package runner

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"itbsim/internal/netsim"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

func testNet(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.NewTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testSpec is a small-but-real grid: 3 schemes × 2 patterns, 2 loads.
func testSpec(t *testing.T, net *topology.Network) Spec {
	t.Helper()
	return Spec{
		Net:     net,
		Schemes: []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR},
		Patterns: []Pattern{
			{Kind: "uniform"},
			{Kind: "hotspot", HotspotHost: 3, HotspotFraction: 0.1},
		},
		Loads:           []float64{0.02, 0.05},
		MessageBytes:    128,
		Seed:            1,
		WarmupMessages:  50,
		MeasureMessages: 200,
		MaxCycles:       8_000_000,
		Label:           "test",
	}
}

// stripTiming zeroes the wall-clock fields so reports can be compared for
// value equality.
func stripTiming(rep *Report) {
	rep.Wall = 0
	for i := range rep.Curves {
		rep.Curves[i].TableBuild = 0
		rep.Curves[i].Sim = 0
	}
	rep.Parallel = 0
}

// TestDeterminismAcrossParallelism is the core contract: the same spec
// must produce byte-identical results at parallel=1 and parallel=8. Run
// under -race this also proves the worker pool race-clean.
func TestDeterminismAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)

	seq := testSpec(t, net)
	seq.Parallel = 1
	repSeq, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}

	par := testSpec(t, net)
	par.Parallel = 8
	repPar, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}

	stripTiming(repSeq)
	stripTiming(repPar)
	if len(repSeq.Curves) != 6 || len(repPar.Curves) != 6 {
		t.Fatalf("expected 6 curves, got %d and %d", len(repSeq.Curves), len(repPar.Curves))
	}
	for i := range repSeq.Curves {
		a, b := &repSeq.Curves[i], &repPar.Curves[i]
		if !reflect.DeepEqual(a, b) {
			t.Errorf("curve %d (%s) diverges between parallel=1 and parallel=8:\nseq: %+v\npar: %+v",
				i, a.Job.Label, a, b)
		}
	}
}

// TestCurveSimTimeRecorded: every curve of a finished Run reports the wall
// time of its load walk. Sim is set by a deferred timer, so it reaches the
// Report only through runJob's named result.
func TestCurveSimTimeRecorded(t *testing.T) {
	spec := testSpec(t, testNet(t))
	spec.Schemes = []routes.Scheme{routes.UpDown, routes.ITBRR}
	spec.Patterns = spec.Patterns[:1]
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep.Curves {
		if cr.Err != nil {
			t.Fatalf("%s: %v", cr.Job.Label, cr.Err)
		}
		if cr.Sim <= 0 {
			t.Errorf("%s: Sim = %v, want > 0", cr.Job.Label, cr.Sim)
		}
	}
}

// TestTableCacheOneBuildPerScheme: a multi-curve spec (schemes × patterns
// × replicas) must build each scheme's table exactly once.
func TestTableCacheOneBuildPerScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	cache := NewTableCache()
	spec := testSpec(t, net)
	spec.Loads = []float64{0.02}
	spec.MeasureMessages = 50
	spec.Replicas = 2
	spec.Cache = cache
	spec.Parallel = 8
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Curves); got != 12 {
		t.Fatalf("expected 3 schemes × 2 patterns × 2 replicas = 12 curves, got %d", got)
	}
	if cache.Builds() != 3 {
		t.Errorf("built %d tables for 3 schemes across 12 jobs, want 3", cache.Builds())
	}
	if rep.TableBuilds != 3 {
		t.Errorf("report counted %d table builds, want 3", rep.TableBuilds)
	}
	if cache.Hits() != 9 {
		t.Errorf("cache hits = %d, want 9 (12 gets - 3 builds)", cache.Hits())
	}

	// A second run on the same cache rebuilds nothing.
	spec2 := testSpec(t, net)
	spec2.Loads = []float64{0.02}
	spec2.MeasureMessages = 50
	spec2.Cache = cache
	if _, err := Run(spec2); err != nil {
		t.Fatal(err)
	}
	if cache.Builds() != 3 {
		t.Errorf("second run rebuilt tables: %d builds total, want 3", cache.Builds())
	}
}

// TestTableCacheSingleFlight: concurrent Gets for one key build once.
func TestTableCacheSingleFlight(t *testing.T) {
	net := testNet(t)
	cache := NewTableCache()
	var wg sync.WaitGroup
	tables := make([]*routes.Table, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tab, err := cache.Get(net, routes.DefaultConfig(routes.ITBRR))
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = tab
		}(i)
	}
	wg.Wait()
	if cache.Builds() != 1 {
		t.Errorf("concurrent gets built %d tables, want 1", cache.Builds())
	}
	for i := 1; i < 8; i++ {
		if tables[i] != tables[0] {
			t.Fatalf("goroutine %d got a different table pointer", i)
		}
	}
}

// TestEarlyStopPastSaturation: a load grid extending far beyond saturation
// must not be walked to the end.
func TestEarlyStopPastSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	spec := testSpec(t, net)
	spec.Schemes = []routes.Scheme{routes.UpDown}
	spec.Patterns = []Pattern{{Kind: "uniform"}}
	spec.Loads = []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.26, 0.30, 0.34, 0.38}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Curves[0].Curve
	if !c.Saturated() {
		t.Fatal("sweep never saturated")
	}
	if len(c.Points) == len(spec.Loads) {
		t.Errorf("walked all %d points despite early saturation", len(spec.Loads))
	}
}

// TestRunCancelled: a cancelled context fails jobs with the context error
// while keeping the report.
func TestRunCancelled(t *testing.T) {
	net := testNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := testSpec(t, net)
	spec.Context = ctx
	rep, err := Run(spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Curves) != 6 {
		t.Fatal("report missing despite cancellation")
	}
}

// TestSpecValidation: the normalization errors.
func TestSpecValidation(t *testing.T) {
	net := testNet(t)
	tab, err := routes.Build(net, routes.DefaultConfig(routes.UpDown))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"no net", Spec{Loads: []float64{0.01}}},
		{"no loads", Spec{Net: net, Table: tab, Dest: uniformDest(net.NumHosts())}},
		{"no schemes or table", Spec{Net: net, Loads: []float64{0.01}, Patterns: []Pattern{{Kind: "uniform"}}}},
		{"no patterns or dest", Spec{Net: net, Loads: []float64{0.01}, Table: tab}},
		{"table and schemes", Spec{Net: net, Loads: []float64{0.01}, Table: tab,
			Schemes: []routes.Scheme{routes.UpDown}, Patterns: []Pattern{{Kind: "uniform"}}}},
		{"dest and patterns", Spec{Net: net, Loads: []float64{0.01}, Table: tab,
			Dest: uniformDest(net.NumHosts()), Patterns: []Pattern{{Kind: "uniform"}}}},
	}
	for _, c := range cases {
		if _, err := Run(c.spec); err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
		}
	}
}

// TestLabels: grid jobs compose labels; the single-curve form (Sweep)
// keeps the label verbatim.
func TestLabels(t *testing.T) {
	net := testNet(t)
	spec := testSpec(t, net)
	_, jobs, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got := jobs[0].Label; got != "test UP/DOWN uniform" {
		t.Errorf("grid label = %q", got)
	}
	if got := jobs[3].Label; !strings.Contains(got, "hotspot") {
		t.Errorf("pattern missing from label %q", got)
	}

	tab, err := routes.Build(net, routes.DefaultConfig(routes.UpDown))
	if err != nil {
		t.Fatal(err)
	}
	single := Spec{Net: net, Table: tab, Dest: uniformDest(net.NumHosts()),
		Loads: []float64{0.01}, Label: "exact"}
	_, jobs, err = single.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Label != "exact" {
		t.Errorf("single-curve label = %+v", jobs)
	}
}

// TestReporterStreams: the reporter sees every job and point, serialized.
func TestReporterStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	rec := &recordingReporter{}
	spec := testSpec(t, net)
	spec.Loads = []float64{0.02}
	spec.MeasureMessages = 50
	spec.Reporter = rec
	spec.Parallel = 4
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.started != len(rep.Curves) || rec.done != len(rep.Curves) {
		t.Errorf("reporter saw %d starts, %d dones for %d jobs", rec.started, rec.done, len(rep.Curves))
	}
	points := 0
	for i := range rep.Curves {
		points += len(rep.Curves[i].Curve.Points)
	}
	if rec.points != points {
		t.Errorf("reporter saw %d points, curves hold %d", rec.points, points)
	}
}

type recordingReporter struct {
	started, points, done int
}

func (r *recordingReporter) JobStarted(Job) { r.started++ }
func (r *recordingReporter) PointDone(Job, float64, *netsim.Result) {
	r.points++
}
func (r *recordingReporter) JobDone(*CurveResult) { r.done++ }

// uniformDest is a deterministic stateless destination chooser for tests.
func uniformDest(numHosts int) netsim.DestFn {
	return func(src int, rng *netsim.RNG) int {
		for {
			d := rng.Intn(numHosts)
			if d != src {
				return d
			}
		}
	}
}

// TestNonFiniteLoadsRejected pins the Loads gate: a NaN, infinite or
// negative entry, or one below its predecessor (the early stop would end
// a descending walk on the wrong points), fails the whole spec with a
// typed error before any table is built or any sibling curve runs.
func TestNonFiniteLoadsRejected(t *testing.T) {
	net := testNet(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.01, 0.005} {
		cache := NewTableCache()
		_, err := Run(Spec{Net: net, Schemes: []routes.Scheme{routes.ITBRR}, Patterns: []Pattern{{Kind: "uniform"}},
			Loads: []float64{0.01, bad}, Cache: cache})
		var ce *topology.ConfigError
		if !errors.As(err, &ce) || ce.Field != "Loads" {
			t.Errorf("load %g: got %v, want a *topology.ConfigError for Loads", bad, err)
		}
		if cache.Builds() != 0 {
			t.Errorf("load %g: %d tables built before the spec was refused", bad, cache.Builds())
		}
	}
}

// TestTracerObservesUnperturbedRun: tracing a one-job, two-load spec
// leaves its report equal to the untraced run's, and the tracer sees
// every delivery of both points.
func TestTracerObservesUnperturbedRun(t *testing.T) {
	spec := testSpec(t, testNet(t))
	spec.Schemes = []routes.Scheme{routes.ITBRR}
	spec.Patterns = spec.Patterns[:1]
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ct := &netsim.CountTracer{}
	spec.Tracer = ct
	traced, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	stripTiming(plain)
	stripTiming(traced)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the report:\nuntraced: %+v\ntraced:   %+v", plain, traced)
	}
	points := traced.Curves[0].Curve.Points
	if len(points) != 2 {
		t.Fatalf("traced curve has %d points, want 2", len(points))
	}
	var delivered int64
	for _, p := range points {
		delivered += p.Result.DeliveredMessages
	}
	if got := ct.Counts[netsim.EvDeliver]; got != delivered {
		t.Errorf("tracer saw %d deliveries, the points delivered %d", got, delivered)
	}
}

// TestTracerNeedsOneJob: a tracer on a spec that expands to several jobs
// is refused with a typed error before any table is built.
func TestTracerNeedsOneJob(t *testing.T) {
	net := testNet(t)
	for _, tc := range []struct {
		name string
		mut  func(*Spec)
	}{
		{"two schemes", func(s *Spec) { s.Schemes = []routes.Scheme{routes.UpDown, routes.ITBRR} }},
		{"two replicas", func(s *Spec) { s.Replicas = 2 }},
	} {
		spec := testSpec(t, net)
		spec.Schemes = []routes.Scheme{routes.ITBRR}
		spec.Patterns = spec.Patterns[:1]
		spec.Tracer = &netsim.CountTracer{}
		spec.Cache = NewTableCache()
		tc.mut(&spec)
		_, err := Run(spec)
		var ce *topology.ConfigError
		if !errors.As(err, &ce) || ce.Field != "Tracer" {
			t.Errorf("%s: got %v, want a *topology.ConfigError for Tracer", tc.name, err)
		}
		if n := spec.Cache.Builds(); n != 0 {
			t.Errorf("%s: %d tables built before the spec was refused", tc.name, n)
		}
	}
}

// TestAdaptiveSelectorCurve runs one curve on an ITB-RR table carrying the
// adaptive selector and the same curve on the plain table. The simulator
// feeds the selector every measured delivery, so it steers traffic and the
// two curves differ.
func TestAdaptiveSelectorCurve(t *testing.T) {
	net := testNet(t)
	curve := func(sel routes.Selector) []float64 {
		tab, err := routes.Build(net, routes.DefaultConfig(routes.ITBRR))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Spec{Net: net, Table: tab.SetSelector(sel),
			Patterns: []Pattern{{Kind: "hotspot", HotspotHost: 10, HotspotFraction: 0.5}},
			Loads:    []float64{0.02, 0.05}, MessageBytes: 128, Seed: 1,
			WarmupMessages: 50, MeasureMessages: 400, MaxCycles: 8_000_000, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		var lat []float64
		for _, p := range rep.Curves[0].Curve.Points {
			lat = append(lat, p.Result.AvgLatencyNs)
		}
		return lat
	}
	plain, adaptive := curve(nil), curve(routes.NewAdaptiveSelector(routes.DefaultAdaptiveConfig()))
	if reflect.DeepEqual(plain, adaptive) {
		t.Errorf("adaptive curve %v equals the round-robin curve: the selector never learned", adaptive)
	}
}
