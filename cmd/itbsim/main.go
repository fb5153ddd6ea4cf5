// Command itbsim runs single simulation points and prints their
// measurements: latency, accepted traffic, ITB usage and pool statistics.
// -scheme accepts a comma-separated list; the schemes run as independent
// jobs on the experiment runner (-parallel N workers), and -json replaces
// the text output with the full report as JSON. -metrics <file> collects
// windowed per-link/switch/host telemetry and writes it in the schema of
// docs/METRICS.md (.csv for CSV, anything else JSON). -checkpoint-dir
// keeps one crash-safe record per job, snapshotting in-flight simulations,
// so a killed run can be picked up with -resume (see docs/CHECKPOINT.md).
// -trace N prints
// the last N packet life-cycle events of a single-scheme run after its
// point (on stderr with -json); the traced point is the untraced one.
//
// Examples:
//
//	itbsim -topo torus -scale medium -scheme itb-rr -traffic uniform -load 0.02
//	itbsim -topo torus -scheme updown,itb-sp,itb-rr -load 0.02 -parallel 3
//	itbsim -scale paper -scheme itb-rr -load 0.02 -checkpoint-dir ckpt
//	itbsim -scale small -scheme itb-rr -load 0.05 -trace 20
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"itbsim/internal/cli"
	"itbsim/internal/experiments"
	"itbsim/internal/netsim"
	"itbsim/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("itbsim: ")
	fs := flag.NewFlagSet("itbsim", flag.ExitOnError)
	cf := cli.AddCommonFlags(fs)
	scheme := fs.String("scheme", "itb-rr", "routing: updown, itb-sp, itb-rr, or ud-min (comma-separated list allowed)")
	load := fs.Float64("load", 0.01, "injection rate in flits/ns/switch")
	util := fs.Bool("util", false, "collect and print link utilization")
	trace := fs.Int("trace", 0, "print the last N packet life-cycle events (single scheme only)")
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
	schemes, err := cli.Schemes(*scheme)
	if err != nil {
		log.Fatal(err)
	}
	base, err := cf.Options()
	if err != nil {
		log.Fatal(err)
	}
	spec := experiments.SpecFor(env, schemes, []experiments.Pattern{pat},
		[]float64{*load}, *cf.Bytes, *cf.Seed, base)
	spec.CollectLinkUtil = *util
	var tracer *netsim.RingTracer
	if *trace > 0 {
		tracer = netsim.NewRingTracer(*trace)
		spec.Tracer = tracer
	}
	rep, err := runner.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	mfile, err := cf.WriteMetrics(rep)
	if err != nil {
		log.Fatal(err)
	}
	traceOut := os.Stdout
	if *cf.JSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		traceOut = os.Stderr // keep stdout one JSON document
	} else {
		if mfile != "" {
			fmt.Printf("# wrote telemetry to %s\n", mfile)
		}
		for i := range rep.Curves {
			cr := &rep.Curves[i]
			printPoint(env, cr.Job.Scheme.String(), pat, *load, *cf.Bytes, cr.Curve.Points[0].Result, *util)
		}
	}
	if tracer != nil {
		fmt.Fprintf(traceOut, "last %d of %d traced events:\n", len(tracer.Events()), tracer.Total())
		for _, e := range tracer.Events() {
			fmt.Fprintf(traceOut, "  %s\n", e)
		}
	}
}

func printPoint(env *experiments.Env, scheme string, pat experiments.Pattern, load float64, bytes int, res *netsim.Result, util bool) {
	fmt.Printf("%s %s %s %s load=%.4f bytes=%d\n", env.Topo, env.Scale, scheme, pat, load, bytes)
	fmt.Printf("  accepted traffic : %.5f flits/ns/switch (injected %.5f)\n", res.Accepted, res.Injected)
	fmt.Printf("  avg latency      : %.0f ns (network only: %.0f ns, max %.0f ns)\n",
		res.AvgLatencyNs, res.AvgNetLatencyNs, res.MaxLatencyNs)
	fmt.Printf("  messages         : %d measured over %d cycles%s\n",
		res.DeliveredMeasured, res.Cycles, truncNote(res.Truncated))
	fmt.Printf("  ITBs per message : %.3f (pool peak %d B, overflows %d)\n",
		res.AvgITBsPerMessage, res.PoolPeakBytes, res.PoolOverflows)
	if util && res.LinkBusy != nil {
		fmt.Println(linkUtilString(env, res.LinkBusy))
	}
}

func truncNote(t bool) string {
	if t {
		return " (truncated at MaxCycles)"
	}
	return ""
}

func linkUtilString(env *experiments.Env, busy []float64) string {
	r, err := experiments.LinkUtilFromBusy(env, busy)
	if err != nil {
		return err.Error()
	}
	return r
}
