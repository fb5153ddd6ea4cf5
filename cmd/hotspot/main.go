// Command hotspot regenerates the hotspot throughput tables of the paper
// (tables 1, 2, and 3): for a topology and a hotspot traffic fraction it
// draws random hotspot locations and reports the saturation throughput of
// every routing scheme at each location, plus the average row.
//
// The locations × schemes sweeps run as independent jobs on the
// experiment runner, sharing one routing-table build per scheme:
// -parallel N spreads them over N workers, -progress streams per-point
// progress to stderr, -json emits the table as JSON, and -metrics <file>
// writes the sweeps' windowed telemetry (docs/METRICS.md). -checkpoint-dir
// journals the location × scheme jobs so a killed battery can be picked
// back up with -resume (see docs/CHECKPOINT.md).
//
// Examples:
//
//	hotspot -topo torus   -frac 0.05 -locations 10   # table 1, left half
//	hotspot -topo torus   -frac 0.10 -locations 10   # table 1, right half
//	hotspot -topo express -frac 0.03                 # table 2
//	hotspot -topo cplant  -frac 0.05 -parallel 8     # table 3, 8 workers
//	hotspot -topo torus -frac 0.05 -checkpoint-dir ckpt -resume
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"itbsim/internal/cli"
	"itbsim/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotspot: ")
	fs := flag.NewFlagSet("hotspot", flag.ExitOnError)
	cf := cli.AddCommonFlags(fs)
	locations := fs.Int("locations", 10, "number of random hotspot locations")
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
	loads := experiments.DefaultLoads(env.Topo, env.Scale)
	base, err := cf.Options()
	if err != nil {
		log.Fatal(err)
	}
	rows, rep, err := experiments.HotspotBattery(env, *cf.Frac, *locations, loads,
		*cf.Bytes, *cf.Seed, base)
	if err != nil {
		log.Fatal(err)
	}
	mfile, err := cf.WriteMetrics(rep)
	if err != nil {
		log.Fatal(err)
	}
	if *cf.JSON {
		if err := writeJSON(os.Stdout, env, *cf.Frac, rows); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("# %s %s, %d-byte messages, seed %d\n", env.Topo, env.Scale, *cf.Bytes, *cf.Seed)
	fmt.Print(experiments.FormatHotspotTable(*cf.Frac, rows))
	if mfile != "" {
		fmt.Printf("# wrote telemetry to %s\n", mfile)
	}
}

type jsonBattery struct {
	Topo     string    `json:"topo"`
	Scale    string    `json:"scale"`
	Fraction float64   `json:"fraction"`
	Schemes  []string  `json:"schemes"`
	Rows     []jsonRow `json:"rows"`
	Average  []float64 `json:"average"`
}

type jsonRow struct {
	Location   int       `json:"location"`
	Throughput []float64 `json:"throughput"`
}

func writeJSON(w *os.File, env *experiments.Env, frac float64, rows []experiments.HotspotRow) error {
	out := jsonBattery{
		Topo:     env.Topo,
		Scale:    env.Scale.String(),
		Fraction: frac,
		Average:  experiments.HotspotAverages(rows),
	}
	for _, s := range experiments.AllSchemes {
		out.Schemes = append(out.Schemes, s.String())
	}
	for _, r := range rows {
		out.Rows = append(out.Rows, jsonRow{Location: r.Location, Throughput: r.Throughput})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
