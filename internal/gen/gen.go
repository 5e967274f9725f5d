// Package gen is the pack/unpack code generator of Schlegel [22]: "One
// member of the URSA project implemented an automatic code generating
// mechanism which builds these pack/unpack routines directly from the
// message structure definitions." (paper §5.1)
//
// Given a Go source file and a list of struct type names, it emits
// Marshal<T>/Unmarshal<T> functions that encode the §5.1 character
// representation with straight-line code — byte-identical to the
// reflection-based pack.Marshal, but without reflection on the hot path.
// The ntcsgen command wraps this package; the generated functions plug
// into the ComMod as application converters.
package gen

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
)

// Generate parses the Go source in src and emits pack/unpack functions
// for the named struct types, as a complete Go source file in package
// pkgName. Types must be structs of supported fields: booleans, integers,
// floats, strings, []byte, slices of supported types, maps with string or
// integer keys, and other requested (or same-file) named struct types.
func Generate(src []byte, pkgName string, typeNames []string) ([]byte, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "input.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("gen: parse: %w", err)
	}

	structs := collectStructs(file)
	want := make([]string, 0, len(typeNames))
	seen := make(map[string]bool)
	for _, n := range typeNames {
		n = strings.TrimSpace(n)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		if _, ok := structs[n]; !ok {
			return nil, fmt.Errorf("gen: no struct type %q in input", n)
		}
		want = append(want, n)
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("gen: no types requested")
	}
	sort.Strings(want)

	g := &generator{structs: structs, emitted: make(map[string]bool)}
	var body strings.Builder
	for _, name := range want {
		if err := g.emitType(&body, name); err != nil {
			return nil, err
		}
	}

	var out strings.Builder
	fmt.Fprintf(&out, "// Code generated by ntcsgen; DO NOT EDIT.\n")
	fmt.Fprintf(&out, "//\n// Pack/unpack routines built directly from the message structure\n")
	fmt.Fprintf(&out, "// definitions (paper §5.1, Schlegel [22]).\n\n")
	fmt.Fprintf(&out, "package %s\n\n", pkgName)
	if len(g.sortHelpers) > 0 {
		fmt.Fprintf(&out, "import (\n\t\"fmt\"\n\t\"sort\"\n\n\t\"ntcs/internal/pack\"\n)\n\n")
	} else {
		fmt.Fprintf(&out, "import (\n\t\"fmt\"\n\n\t\"ntcs/internal/pack\"\n)\n\n")
	}
	fmt.Fprintf(&out, "var _ = fmt.Errorf // used by length checks in some shapes\n\n")
	out.WriteString(body.String())

	helperKinds := make([]string, 0, len(g.sortHelpers))
	for k := range g.sortHelpers {
		helperKinds = append(helperKinds, k)
	}
	sort.Strings(helperKinds)
	for _, kind := range helperKinds {
		fn := "sortKeys" + titleize(kind)
		if kind == "string" {
			fmt.Fprintf(&out, "func %s(s []string) { sort.Strings(s) }\n\n", fn)
			continue
		}
		fmt.Fprintf(&out, "func %s(s []%s) {\n\tsort.Slice(s, func(i, j int) bool { return s[i] < s[j] })\n}\n\n", fn, kind)
	}
	return []byte(out.String()), nil
}

// titleize upper-cases the first letter (ASCII identifiers only).
func titleize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func collectStructs(file *ast.File) map[string]*ast.StructType {
	out := make(map[string]*ast.StructType)
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				out[ts.Name.Name] = st
			}
		}
	}
	return out
}

type generator struct {
	structs     map[string]*ast.StructType
	emitted     map[string]bool
	varCounter  int
	sortHelpers map[string]bool
}

// emitType writes Marshal<T>, Unmarshal<T>, and the encoder/decoder
// helpers for one struct, recursing into named struct fields.
func (g *generator) emitType(w *strings.Builder, name string) error {
	if g.emitted[name] {
		return nil
	}
	g.emitted[name] = true
	st := g.structs[name]
	if st == nil {
		return fmt.Errorf("gen: referenced struct %q not found in input", name)
	}

	// Emit dependencies (named struct fields) first.
	var fields []*ast.Field
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			return fmt.Errorf("gen: %s: embedded fields are not supported", name)
		}
		for _, fn := range f.Names {
			if !fn.IsExported() {
				return fmt.Errorf("gen: %s.%s: unexported fields cannot be packed", name, fn.Name)
			}
		}
		fields = append(fields, f)
		for _, dep := range namedStructDeps(f.Type) {
			if _, ok := g.structs[dep]; ok {
				if err := g.emitType(w, dep); err != nil {
					return err
				}
			}
		}
	}

	fmt.Fprintf(w, "// Marshal%s packs v in the NTCS character representation.\n", name)
	fmt.Fprintf(w, "func Marshal%s(v *%s) []byte {\n", name, name)
	// Both directions borrow pooled codecs: the encoder's buffer is copied
	// out at its exact size, and the decoder's arena outlives PutDecoder.
	fmt.Fprintf(w, "\te := pack.GetEncoder()\n")
	fmt.Fprintf(w, "\tencode%s(e, v)\n", name)
	fmt.Fprintf(w, "\tout := append([]byte(nil), e.Bytes()...)\n")
	fmt.Fprintf(w, "\tpack.PutEncoder(e)\n")
	fmt.Fprintf(w, "\treturn out\n}\n\n")

	fmt.Fprintf(w, "// Unmarshal%s reverses Marshal%s.\n", name, name)
	fmt.Fprintf(w, "func Unmarshal%s(data []byte, v *%s) error {\n", name, name)
	fmt.Fprintf(w, "\td := pack.GetDecoder(data)\n")
	fmt.Fprintf(w, "\terr := decode%s(d, v)\n", name)
	fmt.Fprintf(w, "\trem := d.Remaining()\n")
	fmt.Fprintf(w, "\tpack.PutDecoder(d)\n")
	fmt.Fprintf(w, "\tif err != nil {\n\t\treturn err\n\t}\n")
	fmt.Fprintf(w, "\tif rem != 0 {\n\t\treturn fmt.Errorf(\"unmarshal %s: %%d trailing bytes\", rem)\n\t}\n", name)
	fmt.Fprintf(w, "\treturn nil\n}\n\n")

	fmt.Fprintf(w, "func encode%s(e *pack.Encoder, v *%s) {\n", name, name)
	fmt.Fprintf(w, "\te.Begin()\n")
	for _, f := range fields {
		for _, fn := range f.Names {
			if err := g.emitEncode(w, 1, "v."+fn.Name, f.Type, name+"."+fn.Name); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "\te.End()\n}\n\n")

	fmt.Fprintf(w, "func decode%s(d *pack.Decoder, v *%s) error {\n", name, name)
	fmt.Fprintf(w, "\tif err := d.Begin(); err != nil {\n\t\treturn err\n\t}\n")
	g.varCounter = 0
	for _, f := range fields {
		for _, fn := range f.Names {
			if err := g.emitDecode(w, 1, "v."+fn.Name, f.Type, name+"."+fn.Name); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "\treturn d.End()\n}\n\n")
	return nil
}

// namedStructDeps lists named types referenced by t.
func namedStructDeps(t ast.Expr) []string {
	switch tt := t.(type) {
	case *ast.Ident:
		return []string{tt.Name}
	case *ast.ArrayType:
		return namedStructDeps(tt.Elt)
	case *ast.MapType:
		return namedStructDeps(tt.Value)
	case *ast.StarExpr:
		return namedStructDeps(tt.X)
	}
	return nil
}

var (
	intKinds   = map[string]bool{"int": true, "int8": true, "int16": true, "int32": true, "int64": true}
	uintKinds  = map[string]bool{"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true, "byte": true}
	floatKinds = map[string]bool{"float32": true, "float64": true}
)

func indent(n int) string { return strings.Repeat("\t", n) }

// emitEncode writes the encoding statement(s) for one expression.
func (g *generator) emitEncode(w *strings.Builder, depth int, expr string, t ast.Expr, ctx string) error {
	ind := indent(depth)
	switch tt := t.(type) {
	case *ast.Ident:
		name := tt.Name
		switch {
		case name == "bool":
			fmt.Fprintf(w, "%se.Bool(%s)\n", ind, expr)
		case name == "string":
			fmt.Fprintf(w, "%se.String(%s)\n", ind, expr)
		case intKinds[name]:
			fmt.Fprintf(w, "%se.Int(int64(%s))\n", ind, expr)
		case uintKinds[name]:
			fmt.Fprintf(w, "%se.Uint(uint64(%s))\n", ind, expr)
		case floatKinds[name]:
			fmt.Fprintf(w, "%se.Float(float64(%s))\n", ind, expr)
		default:
			if _, ok := g.structs[name]; ok {
				fmt.Fprintf(w, "%sencode%s(e, &%s)\n", ind, name, expr)
				return nil
			}
			return fmt.Errorf("gen: %s: unsupported type %s", ctx, name)
		}
	case *ast.ArrayType:
		if tt.Len == nil && isByte(tt.Elt) {
			fmt.Fprintf(w, "%se.BytesField(%s)\n", ind, expr)
			return nil
		}
		iv := g.freshVar("i")
		if tt.Len == nil {
			// Slice: nil marker or counted list, matching pack.Marshal.
			fmt.Fprintf(w, "%sif %s == nil {\n%s\te.Nil()\n%s} else {\n", ind, expr, ind, ind)
			fmt.Fprintf(w, "%s\te.List(len(%s))\n", ind, expr)
			fmt.Fprintf(w, "%s\tfor %s := range %s {\n", ind, iv, expr)
			if err := g.emitEncode(w, depth+2, expr+"["+iv+"]", tt.Elt, ctx+"[]"); err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t}\n%s}\n", ind, ind)
			return nil
		}
		// Fixed array.
		fmt.Fprintf(w, "%se.List(len(%s))\n", ind, expr)
		fmt.Fprintf(w, "%sfor %s := range %s {\n", ind, iv, expr)
		if err := g.emitEncode(w, depth+1, expr+"["+iv+"]", tt.Elt, ctx+"[N]"); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s}\n", ind)
	case *ast.MapType:
		keyIdent, ok := tt.Key.(*ast.Ident)
		if !ok || !(keyIdent.Name == "string" || intKinds[keyIdent.Name] || uintKinds[keyIdent.Name]) {
			return fmt.Errorf("gen: %s: unsupported map key", ctx)
		}
		kv := g.freshVar("k")
		ks := g.freshVar("keys")
		fmt.Fprintf(w, "%sif %s == nil {\n%s\te.Nil()\n%s} else {\n", ind, expr, ind, ind)
		fmt.Fprintf(w, "%s\t%s := make([]%s, 0, len(%s))\n", ind, ks, keyIdent.Name, expr)
		fmt.Fprintf(w, "%s\tfor %s := range %s {\n%s\t\t%s = append(%s, %s)\n%s\t}\n", ind, kv, expr, ind, ks, ks, kv, ind)
		fmt.Fprintf(w, "%s\tsortKeys%s(%s)\n", ind, titleize(keyIdent.Name), ks)
		fmt.Fprintf(w, "%s\te.Map(len(%s))\n", ind, ks)
		fmt.Fprintf(w, "%s\tfor _, %s := range %s {\n", ind, kv, ks)
		if err := g.emitEncode(w, depth+2, kv, tt.Key, ctx+" key"); err != nil {
			return err
		}
		if err := g.emitEncode(w, depth+2, expr+"["+kv+"]", tt.Value, ctx+" value"); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t}\n%s}\n", ind, ind)
		g.needSortKey(keyIdent.Name)
	default:
		return fmt.Errorf("gen: %s: unsupported type shape %T", ctx, t)
	}
	return nil
}

// emitDecode writes the decoding statement(s) for one assignable expression.
func (g *generator) emitDecode(w *strings.Builder, depth int, expr string, t ast.Expr, ctx string) error {
	ind := indent(depth)
	switch tt := t.(type) {
	case *ast.Ident:
		name := tt.Name
		tmp := g.freshVar("x")
		switch {
		case name == "bool":
			fmt.Fprintf(w, "%s%s, err := d.Bool()\n%sif err != nil {\n%s\treturn err\n%s}\n%s%s = %s\n",
				ind, tmp, ind, ind, ind, ind, expr, tmp)
		case name == "string":
			fmt.Fprintf(w, "%s%s, err := d.String()\n%sif err != nil {\n%s\treturn err\n%s}\n%s%s = %s\n",
				ind, tmp, ind, ind, ind, ind, expr, tmp)
		case intKinds[name]:
			fmt.Fprintf(w, "%s%s, err := d.Int()\n%sif err != nil {\n%s\treturn err\n%s}\n%s%s = %s(%s)\n",
				ind, tmp, ind, ind, ind, ind, expr, name, tmp)
		case uintKinds[name]:
			fmt.Fprintf(w, "%s%s, err := d.Uint()\n%sif err != nil {\n%s\treturn err\n%s}\n%s%s = %s(%s)\n",
				ind, tmp, ind, ind, ind, ind, expr, name, tmp)
		case floatKinds[name]:
			fmt.Fprintf(w, "%s%s, err := d.Float()\n%sif err != nil {\n%s\treturn err\n%s}\n%s%s = %s(%s)\n",
				ind, tmp, ind, ind, ind, ind, expr, name, tmp)
		default:
			if _, ok := g.structs[name]; ok {
				fmt.Fprintf(w, "%sif err := decode%s(d, &%s); err != nil {\n%s\treturn err\n%s}\n",
					ind, name, expr, ind, ind)
				return nil
			}
			return fmt.Errorf("gen: %s: unsupported type %s", ctx, name)
		}
	case *ast.ArrayType:
		if tt.Len == nil && isByte(tt.Elt) {
			tmp := g.freshVar("b")
			fmt.Fprintf(w, "%s%s, err := d.BytesField()\n%sif err != nil {\n%s\treturn err\n%s}\n%s%s = %s\n",
				ind, tmp, ind, ind, ind, ind, expr, tmp)
			return nil
		}
		nv := g.freshVar("n")
		iv := g.freshVar("i")
		if tt.Len == nil {
			elt, err := typeString(tt.Elt)
			if err != nil {
				return fmt.Errorf("gen: %s: %w", ctx, err)
			}
			fmt.Fprintf(w, "%sif d.IsNil() {\n%s\t%s = nil\n%s} else {\n", ind, ind, expr, ind)
			fmt.Fprintf(w, "%s\t%s, err := d.List()\n%s\tif err != nil {\n%s\t\treturn err\n%s\t}\n", ind, nv, ind, ind, ind)
			fmt.Fprintf(w, "%s\t%s = make([]%s, %s)\n", ind, expr, elt, nv)
			fmt.Fprintf(w, "%s\tfor %s := 0; %s < %s; %s++ {\n", ind, iv, iv, nv, iv)
			if err := g.emitDecode(w, depth+2, expr+"["+iv+"]", tt.Elt, ctx+"[]"); err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t}\n%s}\n", ind, ind)
			return nil
		}
		fmt.Fprintf(w, "%s%s, err := d.List()\n%sif err != nil {\n%s\treturn err\n%s}\n", ind, nv, ind, ind, ind)
		fmt.Fprintf(w, "%sif %s != len(%s) {\n%s\treturn fmt.Errorf(\"unmarshal %s: array length %%d\", %s)\n%s}\n",
			ind, nv, expr, ind, ctx, nv, ind)
		fmt.Fprintf(w, "%sfor %s := range %s {\n", ind, iv, expr)
		if err := g.emitDecode(w, depth+1, expr+"["+iv+"]", tt.Elt, ctx+"[N]"); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s}\n", ind)
	case *ast.MapType:
		keyIdent, ok := tt.Key.(*ast.Ident)
		if !ok {
			return fmt.Errorf("gen: %s: unsupported map key", ctx)
		}
		valStr, err := typeString(tt.Value)
		if err != nil {
			return fmt.Errorf("gen: %s: %w", ctx, err)
		}
		nv := g.freshVar("n")
		iv := g.freshVar("i")
		kv := g.freshVar("k")
		vv := g.freshVar("val")
		fmt.Fprintf(w, "%sif d.IsNil() {\n%s\t%s = nil\n%s} else {\n", ind, ind, expr, ind)
		fmt.Fprintf(w, "%s\t%s, err := d.Map()\n%s\tif err != nil {\n%s\t\treturn err\n%s\t}\n", ind, nv, ind, ind, ind)
		fmt.Fprintf(w, "%s\t%s = make(map[%s]%s, %s)\n", ind, expr, keyIdent.Name, valStr, nv)
		fmt.Fprintf(w, "%s\tfor %s := 0; %s < %s; %s++ {\n", ind, iv, iv, nv, iv)
		fmt.Fprintf(w, "%s\t\tvar %s %s\n", ind, kv, keyIdent.Name)
		if err := g.emitDecode(w, depth+2, kv, tt.Key, ctx+" key"); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t\tvar %s %s\n", ind, vv, valStr)
		if err := g.emitDecode(w, depth+2, vv, tt.Value, ctx+" value"); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t\t%s[%s] = %s\n", ind, expr, kv, vv)
		fmt.Fprintf(w, "%s\t}\n%s}\n", ind, ind)
	default:
		return fmt.Errorf("gen: %s: unsupported type shape %T", ctx, t)
	}
	return nil
}

func isByte(t ast.Expr) bool {
	id, ok := t.(*ast.Ident)
	return ok && (id.Name == "byte" || id.Name == "uint8")
}

func typeString(t ast.Expr) (string, error) {
	switch tt := t.(type) {
	case *ast.Ident:
		return tt.Name, nil
	case *ast.ArrayType:
		if tt.Len != nil {
			return "", fmt.Errorf("nested fixed arrays need explicit lengths; use a named type")
		}
		elt, err := typeString(tt.Elt)
		if err != nil {
			return "", err
		}
		return "[]" + elt, nil
	case *ast.MapType:
		k, err := typeString(tt.Key)
		if err != nil {
			return "", err
		}
		v, err := typeString(tt.Value)
		if err != nil {
			return "", err
		}
		return "map[" + k + "]" + v, nil
	}
	return "", fmt.Errorf("unsupported type expression %T", t)
}

func (g *generator) freshVar(prefix string) string {
	g.varCounter++
	return fmt.Sprintf("%s%d", prefix, g.varCounter)
}

func (g *generator) needSortKey(kind string) {
	if g.sortHelpers == nil {
		g.sortHelpers = make(map[string]bool)
	}
	g.sortHelpers[kind] = true
}
