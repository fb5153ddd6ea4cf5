// Command sweep regenerates the latency-vs-accepted-traffic figures of the
// paper (figures 7, 10, and 12): for one topology and traffic pattern it
// sweeps ascending injection rates under all three routing schemes
// (UP/DOWN, ITB-SP, ITB-RR) and prints the latency/traffic series plus the
// saturation throughputs.
//
// The three scheme curves run as independent jobs on the experiment
// runner: -parallel N spreads them over N workers, -progress streams
// per-point progress to stderr, and -json replaces the text output with
// the full report (curves, per-job timing, wall clock) as JSON.
// -metrics <file> additionally collects windowed per-link/switch/host
// telemetry on every point and writes it in the schema of docs/METRICS.md
// (.csv for CSV, anything else JSON). -checkpoint-dir makes the sweep
// crash-safe — each job keeps one record there, holding its finished
// points and a periodic snapshot of the simulation in flight — and -resume
// picks a killed sweep back up from that directory, reproducing the
// uninterrupted report exactly (see docs/CHECKPOINT.md).
//
// Examples:
//
//	sweep -topo torus   -traffic uniform            # figure 7a
//	sweep -topo express -traffic uniform            # figure 7b
//	sweep -topo cplant  -traffic uniform            # figure 7c
//	sweep -topo torus   -traffic bitrev             # figure 10a
//	sweep -topo torus   -traffic local -radius 3    # figure 12a
//	sweep -topo torus -parallel 3 -json             # figure 7a, JSON report
//	sweep -topo dragonfly -schemes itb-rr,vc        # ITB vs VC flow control
//	sweep -topo torus -schemes itb-rr,vc -vcs 3     # same on the torus, 3 lanes
//	sweep -scale paper -checkpoint-dir ckpt         # crash-safe long sweep
//	sweep -scale paper -checkpoint-dir ckpt -resume # pick it back up after a kill
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"itbsim/internal/cli"
	"itbsim/internal/experiments"
	"itbsim/internal/runner"
	"itbsim/internal/stats"
	"itbsim/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	cf := cli.AddCommonFlags(fs)
	loadsFlag := fs.String("loads", "", "comma-separated injection rates (default: per-topology grid)")
	schemesFlag := fs.String("schemes", "", "comma-separated routing schemes to sweep (default: updown,itb-sp,itb-rr)")
	svgOut := fs.String("svg", "", "also write the figure as an SVG plot to this file")
	csvOut := fs.String("csv", "", "also write the raw series as CSV to this file")
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

	loads := experiments.DefaultLoads(env.Topo, env.Scale)
	if pat.Kind == "local" {
		loads = experiments.LocalLoads(env.Topo, env.Scale)
	}
	if *loadsFlag != "" {
		if loads, err = cli.Loads(*loadsFlag); err != nil {
			log.Fatal(err)
		}
	}

	base, err := cf.Options()
	if err != nil {
		log.Fatal(err)
	}
	schemes := experiments.AllSchemes
	if *schemesFlag != "" {
		if schemes, err = cli.Schemes(*schemesFlag); err != nil {
			log.Fatal(err)
		}
	}
	spec := experiments.SpecFor(env, schemes, []experiments.Pattern{pat},
		loads, *cf.Bytes, *cf.Seed, base)
	rep, err := runner.Run(spec)
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
	cs := experiments.CurveSet{Topo: env.Topo, Pattern: pat}
	for i := range rep.Curves {
		cs.Curves = append(cs.Curves, rep.Curves[i].Curve)
	}
	fmt.Printf("# %s %s %s, %d-byte messages, seed %d (%d workers, %.1fs)\n",
		env.Topo, env.Scale, pat, *cf.Bytes, *cf.Seed, rep.Parallel, rep.Wall.Seconds())
	fmt.Print(cs.String())
	if mfile != "" {
		fmt.Printf("# wrote telemetry to %s\n", mfile)
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := stats.WriteCSV(f, cs.Curves); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# wrote %s\n", *csvOut)
	}

	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("%s %s (%s)", env.Topo, pat, env.Scale)
		if err := viz.CurvesSVG(f, title, cs.Curves); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# wrote %s\n", *svgOut)
	}
}
