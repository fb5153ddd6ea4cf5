package runner

import (
	"errors"
	"reflect"
	"testing"

	"itbsim/internal/faults"
	"itbsim/internal/optimize"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// optimizeSpec is a small grid with the route optimizer enabled: 2 schemes
// × hotspot traffic (so the profiling pre-pass actually finds hotspots),
// 2 loads.
func optimizeSpec(t *testing.T, net *topology.Network) Spec {
	t.Helper()
	return Spec{
		Net:      net,
		Schemes:  []routes.Scheme{routes.UpDown, routes.ITBRR},
		Patterns: []Pattern{{Kind: "hotspot", HotspotHost: 3, HotspotFraction: 0.15}},
		Loads:    []float64{0.02, 0.05},

		MessageBytes:    128,
		Seed:            1,
		WarmupMessages:  50,
		MeasureMessages: 200,
		MaxCycles:       8_000_000,
		Label:           "opt",
		Optimize:        &optimize.Config{},
	}
}

// TestOptimizeDeterminismAcrossParallelism extends the runner's core
// determinism contract to optimized sweeps: the profiling pre-pass and the
// rip-up/reroute pass both key off stable job coordinates, so the same spec
// with Optimize set must produce byte-identical results at parallel=1 and
// parallel=8.
func TestOptimizeDeterminismAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)

	seq := optimizeSpec(t, net)
	seq.Parallel = 1
	repSeq, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	par := optimizeSpec(t, net)
	par.Parallel = 8
	repPar, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	stripTiming(repSeq)
	stripTiming(repPar)
	if !reflect.DeepEqual(repSeq.Curves, repPar.Curves) {
		t.Errorf("optimized sweep diverges between parallel=1 and parallel=8:\nseq: %+v\npar: %+v",
			repSeq.Curves, repPar.Curves)
	}
}

// TestOptimizeChangesResults is the end-to-end wiring check: with a hotspot
// pattern the optimizer must actually rewrite the up*/down* table (the
// package tests prove it helps; here we prove the runner applied it), so
// the optimized curve differs from the static one.
func TestOptimizeChangesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	static := optimizeSpec(t, net)
	static.Optimize = nil
	repStatic, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	repOpt, err := Run(optimizeSpec(t, net))
	if err != nil {
		t.Fatal(err)
	}
	stripTiming(repStatic)
	stripTiming(repOpt)
	if reflect.DeepEqual(repStatic.Curves, repOpt.Curves) {
		t.Error("Optimize set but every curve is identical to the static sweep; the optimizer was not applied")
	}
}

// TestOptimizeWithFaults drives the optimizer through the reconfiguration
// path: a fault mid-run makes the controller rebuild — and now optimize —
// the degraded table, and the run must stay deterministic.
func TestOptimizeWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	mk := func() Spec {
		spec := optimizeSpec(t, net)
		spec.Schemes = []routes.Scheme{routes.ITBRR}
		spec.Loads = []float64{0.02}
		spec.Faults = (&faults.Plan{}).FailLinkAt(0, 40_000)
		return spec
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	stripTiming(a)
	stripTiming(b)
	if !reflect.DeepEqual(a.Curves, b.Curves) {
		t.Error("optimized faulted sweep is not reproducible")
	}
}

// TestOptimizeSpecValidation: an unknown optimizer strategy must be
// refused up front with a typed *topology.ConfigError, before any table is
// built.
func TestOptimizeSpecValidation(t *testing.T) {
	net := testNet(t)
	spec := optimizeSpec(t, net)
	spec.Optimize = &optimize.Config{Strategy: optimize.Strategy(99)}
	spec.Cache = NewTableCache()
	_, err := Run(spec)
	if err == nil {
		t.Fatal("unknown Strategy accepted")
	}
	var ce *topology.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Optimize.Strategy" {
		t.Errorf("error is %T (%v), want a *topology.ConfigError naming Optimize.Strategy", err, err)
	}
	if n := spec.Cache.Builds(); n != 0 {
		t.Errorf("%d tables built before the refusal", n)
	}
}
