// Recursion: the §6.1 scenario, made visible. "The amount of recursion
// occurring within the NTCS may not be obvious" — this program enables
// the distributed time corrector and the network monitor on a module,
// sends its first message, and prints the causal trace tree: the time
// primitive recursively locating and calling its support module, the
// naming service consulted recursively for the actual send, and the
// monitor record shipped by the LCM "calling itself".
//
// Run with: go run ./examples/recursion
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ntcs"
	"ntcs/internal/drts/monitor"
	"ntcs/internal/drts/timesvc"
	"ntcs/internal/ipcs/memnet"
	"ntcs/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	world := sim.NewWorld()
	world.AddNetwork("ring", memnet.Options{})
	defer world.Close()
	nsHost := world.MustHost("apollo-ns", ntcs.Apollo, "ring")
	if _, err := world.StartNameServer(nsHost, "ns"); err != nil {
		return err
	}
	host := world.MustHost("vax-1", ntcs.VAX, "ring")

	// The DRTS support modules the NTCS itself will use.
	tsMod, err := world.Attach(host, "time-server", map[string]string{"role": "time"})
	if err != nil {
		return err
	}
	go timesvc.NewServer(tsMod, 200*time.Millisecond).Run()
	monMod, err := world.Attach(host, "monitor", map[string]string{"role": "monitor"})
	if err != nil {
		return err
	}
	monSrv := monitor.NewServer(monMod)
	go monSrv.Run()

	receiver, err := world.Attach(host, "receiver", nil)
	if err != nil {
		return err
	}
	go receiver.Serve(func(*ntcs.Delivery) (string, any, error) { return "", nil, nil })

	sender, err := world.Attach(host, "sender", nil)
	if err != nil {
		return err
	}
	corr := timesvc.NewCorrector(sender, "time-server", time.Minute)
	sender.SetClock(corr.Now)
	sender.SetMonitor(monitor.NewClient(sender, "monitor", 1).Record)

	u, err := sender.Locate("receiver")
	if err != nil {
		return err
	}

	fmt.Println("=== first send (monitoring and time correction enabled) ===")
	sender.Tracer().SetEnabled(true)
	sender.Tracer().Clear()
	if err := sender.SendMsg(context.Background(), u, "greeting", "first contact"); err != nil {
		return err
	}
	time.Sleep(50 * time.Millisecond) // let the monitor shipping land
	fmt.Print(sender.Tracer().Tree())
	fmt.Printf("\nrecursion depth %d, %d layer entries; clock offset estimate %v\n",
		sender.Tracer().MaxDepth(), len(sender.Tracer().Events()), corr.Offset())

	fmt.Println("\n=== second send (everything warm) ===")
	sender.Tracer().Clear()
	if err := sender.SendMsg(context.Background(), u, "greeting", "second contact"); err != nil {
		return err
	}
	fmt.Print(sender.Tracer().Tree())
	fmt.Printf("\nrecursion depth %d, %d layer entries\n",
		sender.Tracer().MaxDepth(), len(sender.Tracer().Events()))

	stats := monSrv.Snapshot()
	fmt.Printf("\nmonitor saw %d records from %v\n", stats.TotalRecords, monSrv.Modules())
	fmt.Println("\n\"While not bad for the traditional reason of speed (recursive calls")
	fmt.Println(" are rare under normal operation), it posed difficulties with")
	fmt.Println(" debugging and exception handling\" — §6, reproduced above.")
	return nil
}
