// Heterogeneous: the §5 data-conversion story, demonstrated. A VAX
// (little-endian) exchanges a telemetry struct with another VAX, a Sun,
// and an Apollo. The NTCS selects image mode between compatible machines
// and packed mode otherwise — and this program also shows the corruption
// a raw byte copy between incompatible machines would produce, which is
// exactly what the adaptive selection prevents.
//
// Run with: go run ./examples/heterogeneous
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ntcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// Telemetry is a fixed-size record: image-eligible (a contiguous block,
// as §5.1 requires).
type Telemetry struct {
	Reading  int32
	Pressure float64
	Channel  uint16
	Valid    bool
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// First, the raw 1986 problem, without the NTCS: the same struct's
	// memory image on a VAX and on a Sun are different byte strings, and
	// copying one onto the other machine scrambles the values.
	sample := Telemetry{Reading: 0x11223344, Pressure: 1013.25, Channel: 7, Valid: true}
	vaxImage, err := machine.Image(sample, machine.VAX)
	if err != nil {
		return err
	}
	var scrambled Telemetry
	if err := machine.ImageDecode(vaxImage, machine.Sun68K, &scrambled); err != nil {
		return err
	}
	fmt.Println("raw byte copy of a VAX image, read on a Sun (what §5 prevents):")
	fmt.Printf("  sent    %+v\n", sample)
	fmt.Printf("  decoded %+v   ← byte-swapped garbage\n\n", scrambled)

	// Now through the NTCS, which picks the mode per destination.
	world := sim.NewWorld()
	world.AddNetwork("ring", memnet.Options{})
	defer world.Close()
	nsHost := world.MustHost("apollo-ns", ntcs.Apollo, "ring")
	if _, err := world.StartNameServer(nsHost, "ns"); err != nil {
		return err
	}

	sender, err := world.Attach(world.MustHost("vax-a", ntcs.VAX, "ring"), "sender", nil)
	if err != nil {
		return err
	}

	targets := []struct {
		host string
		m    ntcs.Machine
	}{
		{"vax-b", ntcs.VAX},
		{"sun-1", ntcs.Sun68K},
		{"apollo-1", ntcs.Apollo},
		{"pyramid-1", ntcs.Pyramid},
	}
	fmt.Println("through the NTCS (sender is a VAX):")
	for _, tgt := range targets {
		mod, err := world.Attach(world.MustHost(tgt.host, tgt.m, "ring"), tgt.host+"-rx", nil)
		if err != nil {
			return err
		}
		modeCh := make(chan string, 1)
		go func(m *ntcs.Module) {
			d, err := m.Recv(5 * time.Second)
			if err != nil {
				return
			}
			var tl Telemetry
			if err := d.Decode(&tl); err != nil {
				modeCh <- "DECODE ERROR: " + err.Error()
				return
			}
			status := "intact"
			if tl != sample {
				status = "CORRUPT"
			}
			modeCh <- fmt.Sprintf("%-6s mode, values %s", d.Mode(), status)
		}(mod)

		u, err := sender.Locate(tgt.host + "-rx")
		if err != nil {
			return err
		}
		if err := sender.SendMsg(context.Background(), u, "telemetry", sample); err != nil {
			return err
		}
		select {
		case result := <-modeCh:
			fmt.Printf("  VAX → %-9s (%-7s): %s\n", tgt.host, tgt.m, result)
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no delivery at %s", tgt.host)
		}
	}
	fmt.Println("\nimage mode was used only where a byte copy is legal;")
	fmt.Println("every other destination got the packed character representation.")
	return nil
}
