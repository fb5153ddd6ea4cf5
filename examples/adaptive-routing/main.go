// Adaptive-routing demonstrates the source-host adaptivity the paper names
// as future work (§5): instead of cycling alternatives round-robin, the
// source NIC keeps a latency estimate per alternative minimal route and
// sends each message over the current best. Under a hotspot workload the
// adaptive policy steers traffic away from congested alternatives.
//
//	go run ./examples/adaptive-routing
package main

import (
	"fmt"
	"log"

	"itbsim"
)

func main() {
	net, err := itbsim.NewTorus(4, 4, 2)
	if err != nil {
		log.Fatal(err)
	}
	const hotspotHost = 10
	dest, err := itbsim.Hotspot(net.NumHosts(), hotspotHost, 0.08)
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, sel itbsim.Selector) {
		table, err := itbsim.BuildRoutes(net, itbsim.ITBRR)
		if err != nil {
			log.Fatal(err)
		}
		// A nil selector keeps the paper's round-robin.
		res, err := itbsim.Simulate(itbsim.SimConfig{
			Net: net, Table: table.SetSelector(sel), Dest: dest,
			Load: 0.05, MessageBytes: 512, Seed: 1,
			WarmupMessages: 200, MeasureMessages: 1500,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s accepted %.4f  avg %.0f ns  p95 %.0f ns  p99 %.0f ns\n",
			label, res.Accepted, res.AvgLatencyNs, res.LatencyP95Ns, res.LatencyP99Ns)
	}

	run("round-robin", nil)
	run("random", itbsim.NewRandomSelector(7))
	run("fewest-itb", itbsim.NewFewestITBSelector())
	run("adaptive", itbsim.NewAdaptiveSelector(itbsim.DefaultAdaptiveConfig()))
}
