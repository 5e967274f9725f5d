package ntcs_test

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ntcs/internal/machine"
	"ntcs/internal/proctest"
)

// TestMultiProcessStyleDeployment wires modules the way the cmd binaries
// do: each "process" holds its own open tcpnet instance and learns the
// Name Server only from the topology's well-known preload. Nothing is
// shared in memory except the loopback interface. The wiring lives in
// the proctest fixture, which realizes the same topology here in-process
// and as real OS processes in internal/proctest's smoke test.
func TestMultiProcessStyleDeployment(t *testing.T) {
	d := proctest.BootInProcess(t, proctest.SmokeTopology())
	proctest.VerifyEcho(t, d, "tcp-server")
}

// fuzzBody is a representative message shape for the end-to-end property
// test: scalars, strings, slices, nesting.
type fuzzBody struct {
	A int64
	B uint32
	C string
	D []byte
	E bool
	F float64
	G []int16
	H map[string]uint8
	I innerFuzz
}

type innerFuzz struct {
	X string
	Y []int64
}

// TestQuickEndToEndRoundTrip is the stack-level property test: arbitrary
// bodies survive Call/Reply across incompatible machines (packed mode)
// byte-for-byte.
func TestQuickEndToEndRoundTrip(t *testing.T) {
	w, _ := oneNetWorld(t)
	server, err := w.Attach(w.MustHost("sun", machine.Sun68K, "ring"), "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			d, err := server.Recv(time.Hour)
			if err != nil {
				return
			}
			if !d.IsCall() {
				continue
			}
			var body fuzzBody
			if err := d.Decode(&body); err != nil {
				_ = server.ReplyError(d, err.Error())
				continue
			}
			_ = server.Reply(d, "echo", body)
		}
	}()
	client, err := w.Attach(w.MustHost("vax", machine.VAX, "ring"), "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}

	f := func(in fuzzBody) bool {
		var out fuzzBody
		if err := client.CallContext(context.Background(), u, "echo", in, &out); err != nil {
			t.Logf("call: %v", err)
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
