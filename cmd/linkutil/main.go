// Command linkutil regenerates the link-utilization figures of the paper
// (figures 8, 9, and 11): it runs one or more routing schemes at a fixed
// injection rate with per-channel accounting and prints the top-N hottest
// links (with their position relative to the up*/down* root) plus, for the
// tori, a per-switch heat map. The paper's reading — UP/DOWN concentrates
// traffic on the links around the root switch while ITB-RR balances it —
// is visible directly in the output: past UP/DOWN saturation the root
// links fill the UP/DOWN top of the list but not ITB-RR's.
//
// -top bounds the hottest-link list; -metrics <file> additionally collects
// windowed telemetry and writes it in the schema of docs/METRICS.md.
//
// Examples:
//
//	linkutil -topo torus -load 0.015                       # figure 8a/8b
//	linkutil -topo torus -load 0.03 -schemes itb-rr        # figure 8c
//	linkutil -topo express -load 0.066                     # figure 9
//	linkutil -topo torus -traffic hotspot -frac 0.10       # figure 11
//	linkutil -topo torus -load 0.025 -top 5                # root-bottleneck check
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"itbsim/internal/cli"
	"itbsim/internal/experiments"
	"itbsim/internal/metrics"
	"itbsim/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("linkutil: ")
	fs := flag.NewFlagSet("linkutil", flag.ExitOnError)
	cf := cli.AddCommonFlags(fs)
	load := fs.Float64("load", 0.015, "injection rate in flits/ns/switch")
	schemes := fs.String("schemes", "updown,itb-rr", "comma-separated routing schemes")
	topN := fs.Int("top", 10, "how many hottest links to report")
	pngPrefix := fs.String("png", "", "also write heat maps as <prefix>-<scheme>.png (tori only)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
	// linkutil runs its snapshots directly, one scheme at a time; it
	// honors -metrics but not the runner-execution flags.
	if err := cf.RejectRunnerFlags("linkutil", true); err != nil {
		log.Fatal(err)
	}
	metricsOut := cf.Run.Metrics
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
	pat, err := cf.Pattern()
	if err != nil {
		log.Fatal(err)
	}

	var mc *metrics.Config
	if *metricsOut != "" {
		mc = &metrics.Config{}
	}
	var points []metrics.ExportPoint
	for _, name := range strings.Split(*schemes, ",") {
		sch, err := cli.Scheme(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		res, err := experiments.LinkUtilSnapshotOpts(env, sch, pat, *load, *cf.Bytes, *cf.Seed, *topN,
			experiments.PointOptions{Metrics: mc})
		if err != nil {
			log.Fatal(err)
		}
		if mc != nil {
			points = append(points, metrics.ExportPoint{Label: sch.String(), Scheme: sch.String(),
				Pattern: pat.String(), Load: *load, Metrics: res.Result.Metrics})
		}
		fmt.Printf("# %s %s %s %s at %.4f flits/ns/switch\n", env.Topo, env.Scale, sch, pat, *load)
		fmt.Print(res.Report.String())
		if res.Grid != "" {
			fmt.Println("per-switch max outgoing utilization (%):")
			fmt.Print(res.Grid)
		}
		if *pngPrefix != "" {
			rows, cols, ok := experiments.GridShape(env)
			if !ok {
				log.Fatalf("-png requires a torus topology, got %s", env.Topo)
			}
			name := fmt.Sprintf("%s-%s.png", *pngPrefix, strings.ToLower(strings.ReplaceAll(sch.String(), "/", "")))
			f, err := os.Create(name)
			if err != nil {
				log.Fatal(err)
			}
			if err := viz.HeatPNG(f, env.Net, res.Busy, rows, cols); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", name)
		}
		fmt.Println()
	}
	if *metricsOut != "" {
		if err := cli.WriteMetricsFile(*metricsOut, points); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# wrote telemetry to %s\n", *metricsOut)
	}
}
