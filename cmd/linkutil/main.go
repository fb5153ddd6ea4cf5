// Command linkutil regenerates the link-utilization figures of the paper
// (figures 8, 9, and 11): it runs one or more routing schemes at a fixed
// injection rate with per-channel accounting and prints the top-N hottest
// links (with their position relative to the up*/down* root) plus, for the
// tori, a per-switch heat map. The paper's reading — UP/DOWN concentrates
// traffic on the links around the root switch while ITB-RR balances it —
// is visible directly in the output: past UP/DOWN saturation the root
// links fill the UP/DOWN top of the list but not ITB-RR's.
//
// The schemes run as independent jobs of one experiment-runner spec, so
// every runner flag applies: -parallel, -progress, -faults, -optimize,
// -checkpoint-dir/-resume, and -json, which replaces the text output with
// the full runner report. -top bounds the hottest-link list; -metrics
// <file> additionally collects windowed telemetry and writes it in the
// schema of docs/METRICS.md.
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
	"itbsim/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("linkutil: ")
	fs := flag.NewFlagSet("linkutil", flag.ExitOnError)
	cf := cli.AddCommonFlags(fs)
	load := fs.Float64("load", 0.015, "injection rate in flits/ns/switch")
	schemesFlag := fs.String("schemes", "updown,itb-rr", "comma-separated routing schemes")
	topN := fs.Int("top", 10, "how many hottest links to report")
	pngPrefix := fs.String("png", "", "also write heat maps as <prefix>-<scheme>.png (tori only)")
	if err := fs.Parse(os.Args[1:]); err != nil {
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
	pat, err := cf.Pattern()
	if err != nil {
		log.Fatal(err)
	}

	schemes, err := cli.Schemes(*schemesFlag)
	if err != nil {
		log.Fatal(err)
	}
	base, err := cf.Options()
	if err != nil {
		log.Fatal(err)
	}
	snaps, rep, err := experiments.LinkUtilSnapshot(env, schemes, pat, *load, *cf.Bytes, *cf.Seed, *topN, base)
	if err != nil {
		log.Fatal(err)
	}
	mfile, err := cf.WriteMetrics(rep)
	if err != nil {
		log.Fatal(err)
	}
	if *cf.JSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, res := range snaps {
		fmt.Printf("# %s %s %s %s at %.4f flits/ns/switch\n", env.Topo, env.Scale, res.Scheme, pat, *load)
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
			name := fmt.Sprintf("%s-%s.png", *pngPrefix, strings.ToLower(strings.ReplaceAll(res.Scheme.String(), "/", "")))
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
	if mfile != "" {
		fmt.Printf("# wrote telemetry to %s\n", mfile)
	}
}
