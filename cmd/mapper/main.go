// Command mapper demonstrates the MCP-style automatic network discovery of
// §2: it explores one of the paper's topologies through probe packets,
// reconstructs the wiring, builds routing tables on the reconstruction, and
// optionally re-maps after injected faults, printing what changed and the
// surviving network's routing statistics.
//
// Examples:
//
//	mapper -topo torus -scale medium
//	mapper -topo cplant -fail-switch 7 -fail-link 3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"itbsim/internal/cli"
	"itbsim/internal/experiments"
	"itbsim/internal/mapper"
	"itbsim/internal/routes"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mapper: ")
	fs := flag.NewFlagSet("mapper", flag.ExitOnError)
	cf := cli.AddCommonFlags(fs)
	failLink := fs.Int("fail-link", -1, "inject a link failure before the second mapping pass")
	failSwitch := fs.Int("fail-switch", -1, "inject a switch failure before the second mapping pass")
	failHost := fs.Int("fail-host", -1, "inject a host failure before the second mapping pass")
	mapperHost := fs.Int("mapper-host", 0, "host running the mapper")
	if err := fs.Parse(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
	// The probe walks are sequential and use -fail-* rather than a fault
	// plan; the shared runner flags are accepted for CLI uniformity only.
	if err := cf.RejectRunnerFlags("mapper", false); err != nil {
		log.Fatal(err)
	}
	stopProf, err := cf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	env, err := cf.Env()
	if err != nil {
		log.Fatal(err)
	}

	prober := &mapper.NetworkProber{Net: env.Net, MapperHost: *mapperHost, Salt: uint64(*cf.Seed)}
	before, err := mapper.Discover(prober)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first pass : %v (%d probes)\n", before.Net, before.Probes)
	printRouteStats(before)

	if *failLink < 0 && *failSwitch < 0 && *failHost < 0 {
		return
	}
	if *failLink >= 0 {
		prober.Faults.FailLink(*failLink)
	}
	if *failSwitch >= 0 {
		prober.Faults.FailSwitch(*failSwitch)
	}
	if *failHost >= 0 {
		prober.Faults.FailHost(*failHost)
	}
	after, err := mapper.Discover(prober)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second pass: %v (%d probes)\n", after.Net, after.Probes)
	c := mapper.Diff(before, after)
	fmt.Printf("changes    : -%d switches, -%d hosts, links %+d\n",
		len(c.SwitchesLost), len(c.HostsLost), c.LinksDelta)
	printRouteStats(after)
}

func printRouteStats(d *mapper.Discovered) {
	for _, sch := range experiments.AllSchemes {
		tab, err := routes.Build(d.Net, routes.DefaultConfig(sch))
		if err != nil {
			fmt.Printf("  %-8s cannot route: %v\n", sch, err)
			continue
		}
		st := tab.ComputeStats()
		fmt.Printf("  %-8s minimal %.1f%%, avg distance %.2f, avg ITBs %.2f\n",
			sch, 100*st.MinimalFraction, st.AvgDistance, st.AvgITBs)
	}
}
