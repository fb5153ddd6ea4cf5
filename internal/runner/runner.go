// Package runner is the parallel experiment engine behind the public
// RunSpec API: it expands a declarative Spec into independent curve jobs
// (scheme × pattern × replica), executes them on a worker pool, memoizes
// routing-table construction in a shared cache, and streams progress and
// per-job timing to a pluggable Reporter.
//
// Parallelism is across curves, not within one. The saturation early stop
// makes the load points of one curve sequentially dependent — whether
// point i+2 runs depends on what point i measured — so each job walks its
// load grid in order while independent curves run concurrently.
//
// Results are byte-identical at every worker count: each simulation's seed
// is derived (splitmix64, see DeriveSeed) from the root seed and the job's
// stable coordinates alone, never from scheduling order, and the simulator
// itself is single-threaded per job.
package runner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/netsim"
	"itbsim/internal/optimize"
	"itbsim/internal/routes"
	"itbsim/internal/stats"
	"itbsim/internal/topology"
)

// Spec declares a grid of latency/traffic sweeps. The zero value of every
// optional field means "use the default"; Net plus either (Schemes or
// Table) plus either (Patterns or Dest) plus Loads are required.
//
// Spec is also the public itbsim.RunSpec; its single-curve form (a prebuilt
// Table, an explicit Dest, a verbatim Label) is run with the Sweep method.
type Spec struct {
	// Net is the network every job simulates. Required.
	Net *topology.Network

	// Schemes lists the routing schemes to sweep; each becomes one curve
	// per pattern and replica, with its table built through the cache.
	Schemes []routes.Scheme
	// Table is the single-curve alternative to Schemes: a prebuilt routing
	// table (each simulation clones it for its private selection state).
	// Set one or the other.
	Table *routes.Table

	// Patterns lists the traffic patterns to sweep.
	Patterns []Pattern
	// Dest is the single-pattern alternative to Patterns: an explicit
	// destination chooser. Set one or the other.
	Dest netsim.DestFn

	// Replicas repeats every (scheme, pattern) curve with independent
	// seed streams, for confidence intervals. Default 1.
	Replicas int

	// Loads are the injection rates to visit, ascending, in
	// flits/ns/switch. Each curve stops PointsPastSaturation points after
	// accepted traffic first drops below SaturationRatio × injected.
	Loads []float64

	MessageBytes    int
	Seed            int64
	WarmupMessages  int
	MeasureMessages int
	MaxCycles       int64

	// Label prefixes every curve label; a single-curve spec (Table + Dest)
	// uses it verbatim.
	Label string

	// SaturationRatio is the accepted/injected ratio below which a point
	// counts as saturated. Default 0.92, the threshold of §4.7.
	SaturationRatio float64
	// PointsPastSaturation is how many further load points each curve
	// visits once saturated, to resolve the post-knee shape. Default 1;
	// -1 stops at the first saturated point.
	PointsPastSaturation int

	// RouteConfig maps a scheme to its table-construction config; default
	// routes.DefaultConfig (root 0, 10 alternatives).
	RouteConfig func(routes.Scheme) routes.Config

	// CollectLinkUtil enables per-channel utilization accounting on every
	// point (figures 8, 9, 11).
	CollectLinkUtil bool

	// Metrics enables the windowed observability collector on every point
	// (see netsim.Config.Metrics); the per-point telemetry lands in each
	// Result and is flattened across replicas by Report.MetricsPoints.
	Metrics *metrics.Config

	// Tracer receives the packet life-cycle events of every simulated load
	// point (see netsim.Config.Tracer). A tracer is stateful, so a traced
	// spec must expand to exactly one job, whose points run in load order
	// on one goroutine; the optimizer's profiling run is not traced, and
	// points served from a resume journal emit no events.
	Tracer netsim.Tracer

	// Params overrides the Myrinet timing constants; zero means defaults.
	Params netsim.Params

	// Optimize, when non-nil, runs the congestion-aware rip-up/reroute
	// pass (internal/optimize) on every job's routing table before its
	// load walk: a short profiling simulation at Optimize.ProfileLoad
	// (0 = the sweep's top load) measures per-channel utilization, the
	// optimizer reroutes around the measured hotspots, and the job sweeps
	// on the optimized table. With a fault plan, the job's reconfiguration
	// controller applies the same optimizer (on a static criticality
	// estimate) to every degraded table it recomputes. Optimized tables
	// are private to the job — the shared TableCache keeps the pristine
	// builds — and results stay byte-identical at every Parallel count:
	// the profiling seed derives from the job's stable coordinates alone.
	Optimize *optimize.Config

	// Faults schedules link/switch failures (and repairs) on every load
	// point of every job; each job gets its own reconfiguration
	// controller (internal/faults) that re-discovers the degraded
	// topology and swaps recomputed tables into the running simulation.
	// Nil or empty keeps every run on a healthy fabric.
	Faults *faults.Plan
	// FaultMapperHost is the host running the mapping software during
	// reconfiguration (default host 0); its switch must survive the
	// plan's failures for recovery to succeed.
	FaultMapperHost int

	// Parallel is the worker-goroutine count; 0 means GOMAXPROCS.
	Parallel int
	// CheckpointDir enables the crash-safe sweep journal (see
	// docs/CHECKPOINT.md): completed jobs are recorded in
	// <dir>/journal.ndjson, and each in-flight job periodically writes a
	// restorable snapshot to <dir>/job-<index>.ckpt. A fresh Run clears
	// the directory's previous journal; set Resume to reuse it instead.
	CheckpointDir string
	// CheckpointEvery is the in-flight snapshot period in simulated
	// cycles. Zero with a CheckpointDir set means 250,000; setting it
	// requires a CheckpointDir.
	CheckpointEvery int64
	// Resume picks up a killed or crashed Run from CheckpointDir:
	// journaled jobs are served from their records without re-simulating,
	// a job with an in-flight snapshot restarts mid-point, and the Report
	// matches the uninterrupted run's. Requires a CheckpointDir holding a
	// journal written by the same spec.
	Resume bool

	// Context cancels in-flight simulations between cycles and skips
	// not-yet-started points; nil means context.Background().
	Context context.Context
	// Reporter observes job and point completion. The runner serializes
	// calls, so implementations need not be thread-safe.
	Reporter Reporter
	// Cache memoizes table construction; nil means a private per-Run
	// cache. Share one across Runs on the same network to reuse builds.
	Cache *TableCache
}

// Job identifies one curve of a Spec expansion.
type Job struct {
	// Index is the job's dense position in expansion order (scheme-major,
	// then pattern, then replica).
	Index      int
	SchemeIdx  int
	PatternIdx int
	Replica    int

	Scheme  routes.Scheme
	Pattern Pattern
	Label   string

	// table is the explicit Spec.Table for single-curve specs; grid jobs
	// resolve theirs through the cache.
	table *routes.Table
}

// CurveResult is one finished job: its curve plus timing and any error.
type CurveResult struct {
	Job   Job
	Curve stats.Curve
	// TableBuild is the time this job spent obtaining its routing table —
	// near zero when another job already built it into the cache.
	TableBuild time.Duration
	// Sim is the wall time of the job's load walk.
	Sim time.Duration
	Err error
}

// Report is the outcome of a Run: every curve in expansion order, plus
// wall-clock and worker accounting.
type Report struct {
	Curves   []CurveResult
	Wall     time.Duration
	Parallel int
	// TableBuilds is how many routing tables were constructed (as opposed
	// to served from cache) during the run.
	TableBuilds int64
}

// normalized validates the spec, fills defaults, and expands the job grid.
func (s Spec) normalized() (Spec, []Job, error) {
	if s.Net == nil {
		return s, nil, fmt.Errorf("runner: Spec.Net is required")
	}
	if len(s.Loads) == 0 {
		return s, nil, fmt.Errorf("runner: Spec needs at least one load")
	}
	for i, l := range s.Loads {
		if !(l >= 0) || math.IsInf(l, 1) {
			return s, nil, &topology.ConfigError{Field: "Loads", Value: l, Reason: "every load must be a finite number >= 0"}
		}
		// The saturation early stop assumes the walk climbs: on a
		// descending grid it would end the curve on the wrong points.
		if i > 0 && l < s.Loads[i-1] {
			return s, nil, &topology.ConfigError{Field: "Loads", Value: l,
				Reason: fmt.Sprintf("loads must be ascending; %g follows %g", l, s.Loads[i-1])}
		}
	}
	if !s.Faults.Empty() {
		if err := s.Faults.Validate(s.Net); err != nil {
			return s, nil, fmt.Errorf("runner: %w", err)
		}
		// Virtual-channel flow control excludes fault injection (the VC
		// deadlock-freedom argument assumes every assigned lane exists),
		// so reject the combination up front — before any table is built
		// or any sibling curve has run — naming the field that asked for
		// virtual channels.
		if s.Table != nil && s.Table.NumVCs > 0 {
			return s, nil, &topology.ConfigError{Field: "Table", Value: s.Table.Scheme.String(),
				Reason: "a virtual-channel routing table excludes Faults; drop the fault plan or use a non-VC table"}
		}
		for _, sch := range s.Schemes {
			if sch == routes.VC {
				return s, nil, &topology.ConfigError{Field: "Schemes", Value: sch.String(),
					Reason: "the VC scheme excludes Faults; drop the fault plan or sweep the VC curve separately"}
			}
		}
	}
	if s.Optimize != nil {
		if err := s.Optimize.Validate(); err != nil {
			return s, nil, err
		}
	}
	if s.CheckpointEvery < 0 {
		return s, nil, fmt.Errorf("runner: CheckpointEvery must be >= 0, got %d", s.CheckpointEvery)
	}
	if s.CheckpointDir == "" {
		if s.CheckpointEvery > 0 {
			return s, nil, fmt.Errorf("runner: CheckpointEvery requires a CheckpointDir")
		}
		if s.Resume {
			return s, nil, fmt.Errorf("runner: Resume requires the CheckpointDir of the interrupted run")
		}
	} else if s.CheckpointEvery == 0 {
		s.CheckpointEvery = defaultCheckpointEvery
	}
	if s.Table != nil && len(s.Schemes) > 0 {
		return s, nil, fmt.Errorf("runner: set Spec.Table or Spec.Schemes, not both")
	}
	if s.Dest != nil && len(s.Patterns) > 0 {
		return s, nil, fmt.Errorf("runner: set Spec.Dest or Spec.Patterns, not both")
	}
	single := false // single-curve compatibility form: label used verbatim
	schemes := s.Schemes
	if len(schemes) == 0 {
		if s.Table == nil {
			return s, nil, fmt.Errorf("runner: Spec needs Schemes or a prebuilt Table")
		}
		schemes = []routes.Scheme{s.Table.Scheme}
		single = true
	}
	patterns := s.Patterns
	if len(patterns) == 0 {
		if s.Dest == nil {
			return s, nil, fmt.Errorf("runner: Spec needs Patterns or a Dest function")
		}
		patterns = []Pattern{{Kind: "custom", Custom: s.Dest}}
	} else {
		single = false
	}
	if s.Replicas < 1 {
		s.Replicas = 1
	}
	if s.Parallel < 1 {
		s.Parallel = runtime.GOMAXPROCS(0)
	}
	if s.Context == nil {
		s.Context = context.Background()
	}
	if s.Cache == nil {
		s.Cache = NewTableCache()
	}
	if s.RouteConfig == nil {
		s.RouteConfig = routes.DefaultConfig
	}
	if s.SaturationRatio <= 0 {
		s.SaturationRatio = 0.92
	}
	switch {
	case s.PointsPastSaturation == 0:
		s.PointsPastSaturation = 1
	case s.PointsPastSaturation < 0:
		s.PointsPastSaturation = 0
	}

	jobs := make([]Job, 0, len(schemes)*len(patterns)*s.Replicas)
	for si, sch := range schemes {
		for pi, pat := range patterns {
			for r := 0; r < s.Replicas; r++ {
				j := Job{
					Index:      len(jobs),
					SchemeIdx:  si,
					PatternIdx: pi,
					Replica:    r,
					Scheme:     sch,
					Pattern:    pat,
				}
				if single && s.Replicas == 1 {
					j.Label = s.Label
					j.table = s.Table
				} else {
					parts := []string{}
					if s.Label != "" {
						parts = append(parts, s.Label)
					}
					parts = append(parts, sch.String(), pat.String())
					if s.Replicas > 1 {
						parts = append(parts, fmt.Sprintf("r%d", r))
					}
					j.Label = strings.Join(parts, " ")
					j.table = s.Table
				}
				jobs = append(jobs, j)
			}
		}
	}
	if s.Tracer != nil && len(jobs) > 1 {
		return s, nil, &topology.ConfigError{Field: "Tracer", Value: fmt.Sprintf("for %d jobs", len(jobs)),
			Reason: "a tracer observes one job; trace a single scheme, pattern and replica"}
	}
	return s, jobs, nil
}

// pointSeed derives the simulation seed of one load point from the root
// seed and the job's stable coordinates (scheme, pattern, replica,
// load-point index), independent of worker count and scheduling order.
func (s *Spec) pointSeed(j Job, point int) int64 {
	return DeriveSeed(s.Seed, int64(j.Scheme), j.Pattern.salt(), int64(j.Replica), int64(point))
}

// Run expands the spec and executes its jobs on the worker pool. The
// returned report holds every curve in expansion order; the error is the
// first job error (by job index), if any — the report is still returned
// alongside it so completed curves are not lost.
func Run(spec Spec) (*Report, error) {
	ns, jobs, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	var jl *journal
	done := map[int]journalRecord{}
	if ns.CheckpointDir != "" {
		if ns.Resume {
			if done, err = loadJournal(ns.CheckpointDir); err != nil {
				return nil, err
			}
		}
		if jl, err = openJournal(ns.CheckpointDir, ns.Resume); err != nil {
			return nil, err
		}
		defer jl.close() //lint:ignore errcheck-lite every record was already synced by append
	}
	rep := &Report{Curves: make([]CurveResult, len(jobs)), Parallel: ns.Parallel}
	reporter := newLockedReporter(ns.Reporter)

	buildsBefore := ns.Cache.Builds()
	start := time.Now() //lint:ignore noclock wall-clock bookkeeping only; no simulation result depends on it
	workers := ns.Parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan Job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				// Workers write disjoint slots, so no lock is needed.
				// The pprof label attributes CPU samples to the job when
				// the caller profiles (cmd/* -cpuprofile); it costs one
				// context allocation per curve, nothing per cycle.
				pprof.Do(context.Background(), pprof.Labels("job", j.Label), func(context.Context) {
					rep.Curves[j.Index] = ns.executeJob(j, reporter, jl, done)
				})
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	rep.Wall = time.Since(start) //lint:ignore noclock wall-clock bookkeeping only
	rep.TableBuilds = ns.Cache.Builds() - buildsBefore

	for i := range rep.Curves {
		if jerr := rep.Curves[i].Err; jerr != nil {
			return rep, fmt.Errorf("runner: job %d (%s): %w", i, rep.Curves[i].Job.Label, jerr)
		}
	}
	return rep, nil
}

// Sweep runs the spec as a single curve and returns it: the loads in
// ascending order, cloning the routing table per point, stopping one point
// after accepted traffic first drops below the saturation ratio. On error
// the partial curve is returned alongside it. For multi-curve parallel
// sweeps use Run.
func (s Spec) Sweep() (stats.Curve, error) {
	rep, err := Run(s)
	if err != nil {
		if rep != nil && len(rep.Curves) > 0 {
			return rep.Curves[0].Curve, err
		}
		return stats.Curve{Label: s.Label}, err
	}
	return rep.Curves[0].Curve, nil
}

// PanicError is a panic recovered from a job worker, carried in the job's
// CurveResult.Err so one crashing curve does not take down the sweep: the
// remaining jobs finish, and Run reports the panic as that job's error.
type PanicError struct {
	// Value is the value the job panicked with.
	Value any
	// Stack is the worker goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", e.Value, e.Stack)
}

// executeJob runs one job with panic containment and journal integration:
// a job already in the resume journal is served from its record, a freshly
// finished job is journaled (and its in-flight checkpoint dropped), and a
// panic anywhere inside becomes a PanicError result instead of a crash.
func (s *Spec) executeJob(j Job, reporter *lockedReporter, jl *journal, done map[int]journalRecord) (cr CurveResult) {
	defer func() {
		if v := recover(); v != nil {
			cr = CurveResult{Job: j, Err: &PanicError{Value: v, Stack: debug.Stack()}}
			cr.Curve.Label = j.Label
		}
	}()
	if rec, ok := done[j.Index]; ok {
		res, err := resultFromRecord(rec, j)
		if err != nil {
			return CurveResult{Job: j, Err: err}
		}
		reporter.jobStarted(j)
		for _, p := range res.Curve.Points {
			reporter.pointDone(j, p.Load, p.Result)
		}
		reporter.jobDone(&res)
		return res
	}
	cr = s.runJob(j, reporter, jl)
	if jl != nil && cr.Err == nil {
		rec, err := recordFromResult(&cr)
		if err == nil {
			err = jl.append(rec)
		}
		if err != nil {
			cr.Err = err
		} else {
			jl.removeCkpt(j.Index)
		}
	}
	return cr
}

// defaultProfileCycles caps the optimizer's profiling pre-pass when the
// spec does not set Optimize.ProfileCycles: long enough for utilization
// to settle on the fabrics this repo sweeps, far shorter than a full
// load point.
const defaultProfileCycles = 200_000

// optimizeTable runs the congestion-aware optimizer for one job: a short
// profiling simulation on the pristine table measures per-channel busy
// fractions, which become the criticality input of the rip-up/reroute
// (or escape-prune) pass. The profiling seed derives from the job's
// stable coordinates with point -1 — a coordinate no real load point
// uses — so the optimized table, and every result computed on it, is
// identical at every Parallel count. Profiling always runs on
// the healthy fabric: degraded tables are optimized by the job's
// reconfiguration controller instead, from a static estimate.
func (s *Spec) optimizeTable(j Job, table *routes.Table, dest netsim.DestFn) (*routes.Table, error) {
	ocfg := *s.Optimize
	load := ocfg.ProfileLoad
	if load == 0 {
		load = s.Loads[len(s.Loads)-1] // the top load: normalized keeps the grid ascending
	}
	maxCycles := int64(ocfg.ProfileCycles)
	if maxCycles == 0 {
		maxCycles = defaultProfileCycles
	}
	cfg := netsim.Config{
		Net:             s.Net,
		Table:           table,
		Dest:            dest,
		Load:            load,
		MessageBytes:    s.MessageBytes,
		Seed:            s.pointSeed(j, -1),
		WarmupMessages:  s.WarmupMessages,
		MeasureMessages: s.MeasureMessages,
		MaxCycles:       maxCycles,
		CollectLinkUtil: true,
		Params:          s.Params,
	}
	res, err := netsim.RunContext(s.Context, cfg)
	if err != nil {
		return nil, fmt.Errorf("runner: optimize profiling pre-pass: %w", err)
	}
	crit := append([]float64(nil), res.LinkBusy...)
	var peak float64
	for _, v := range crit {
		if v > peak {
			peak = v
		}
	}
	if peak > 0 {
		for i := range crit {
			crit[i] /= peak
		}
	}
	opt, _, err := optimize.Optimize(table, s.RouteConfig(j.Scheme), crit, ocfg)
	if err != nil {
		return nil, fmt.Errorf("runner: optimizing %s table: %w", j.Scheme, err)
	}
	return opt, nil
}

// runJob walks one curve's load grid in order, early-stopping past
// saturation. With a journal it also checkpoints the walk: each point's
// simulation periodically snapshots into <dir>/job-<index>.ckpt alongside
// the finished points, and on Resume the walk reuses finished points and
// restarts the interrupted point from its snapshot mid-simulation.
//
// The result is named so that the deferred Sim timer writes the value the
// caller receives.
func (s *Spec) runJob(j Job, reporter *lockedReporter, jl *journal) (cr CurveResult) {
	cr = CurveResult{Job: j}
	cr.Curve.Label = j.Label
	reporter.jobStarted(j)
	defer func() { reporter.jobDone(&cr) }()

	buildStart := time.Now() //lint:ignore noclock wall-clock bookkeeping only; no simulation result depends on it
	table := j.table
	if table == nil {
		var err error
		table, err = s.Cache.Get(s.Net, s.RouteConfig(j.Scheme))
		if err != nil {
			cr.Err = err
			return cr
		}
	}
	dest, err := j.Pattern.DestFn(s.Net)
	if err != nil {
		cr.Err = err
		return cr
	}

	if s.Optimize != nil {
		table, err = s.optimizeTable(j, table, dest)
		if err != nil {
			cr.Err = err
			return cr
		}
	}
	cr.TableBuild = time.Since(buildStart) //lint:ignore noclock wall-clock bookkeeping only

	// Each job owns one reconfiguration controller: jobs run on separate
	// goroutines (the controller memo is not locked), while the load
	// points within a job share memoized degraded-table builds.
	var reconf netsim.Reconfigurer
	if !s.Faults.Empty() {
		ctrl := faults.NewController(s.Net, s.FaultMapperHost, s.RouteConfig(j.Scheme))
		ctrl.Optimize = s.Optimize
		reconf = ctrl
	}

	// On resume, load the job's in-flight checkpoint: the points finished
	// before the kill plus a snapshot of the point that was simulating.
	var resumeHdr *ckptHeader
	var resumeSnap []byte
	if jl != nil && s.Resume {
		hdr, snap, err := loadCkpt(jl.dir, j.Index)
		if err != nil {
			cr.Err = err
			return cr
		}
		if hdr != nil {
			if !jobIdentityMatches(hdr.Index, hdr.Label, hdr.Scheme, hdr.Pattern, hdr.Replica, j) {
				cr.Err = fmt.Errorf("runner: checkpoint for job %d (%s %s %s r%d) does not match this spec: it was written by a different run",
					j.Index, hdr.Scheme, hdr.Pattern, hdr.Label, hdr.Replica)
				return cr
			}
			resumeHdr, resumeSnap = hdr, snap
		}
	}

	simStart := time.Now() //lint:ignore noclock wall-clock bookkeeping only
	//lint:ignore noclock wall-clock bookkeeping only
	defer func() { cr.Sim = time.Since(simStart) }()
	countdown := -1 // points left after saturation; -1 = not yet saturated
	for i, load := range s.Loads {
		if err := s.Context.Err(); err != nil {
			cr.Err = err
			return cr
		}
		var res *netsim.Result
		if resumeHdr != nil && i < len(resumeHdr.Points) {
			// The point finished before the kill: reuse its result.
			//lint:ignore floateq both sides are the same stored spec value, not recomputed; any difference means a foreign checkpoint
			if resumeHdr.Points[i].Load != load {
				cr.Err = fmt.Errorf("runner: checkpoint for job %d has load %g at point %d, spec has %g: it was written by a different run",
					j.Index, resumeHdr.Points[i].Load, i, load)
				return cr
			}
			pts, derr := decodePoints(resumeHdr.Points[i : i+1])
			if derr != nil {
				cr.Err = derr
				return cr
			}
			res = pts[0].Result
		} else {
			cfg := netsim.Config{
				Net:             s.Net,
				Table:           table,
				Dest:            dest,
				Load:            load,
				MessageBytes:    s.MessageBytes,
				Seed:            s.pointSeed(j, i),
				WarmupMessages:  s.WarmupMessages,
				MeasureMessages: s.MeasureMessages,
				MaxCycles:       s.MaxCycles,
				CollectLinkUtil: s.CollectLinkUtil,
				Metrics:         s.Metrics,
				Tracer:          s.Tracer,
				Params:          s.Params,
				Faults:          s.Faults,
				Reconfigurer:    reconf,
			}
			if jl != nil {
				// The sink header carries everything a resumed walk needs
				// besides the snapshot itself; the finished points are
				// encoded once per point, not once per snapshot.
				prior, eerr := encodePoints(cr.Curve.Points)
				if eerr != nil {
					cr.Err = eerr
					return cr
				}
				hdr := ckptHeader{Index: j.Index, Label: j.Label, Scheme: j.Scheme.String(),
					Pattern: j.Pattern.String(), Replica: j.Replica, Point: i, Points: prior}
				cfg.CheckpointEvery = s.CheckpointEvery
				cfg.CheckpointSink = func(cycle int64, snap []byte) error {
					hdr.Cycle = cycle
					return jl.writeCkpt(hdr, snap)
				}
			}
			var rerr error
			if resumeHdr != nil && i == resumeHdr.Point && len(resumeSnap) > 0 {
				res, rerr = netsim.ResumeContext(s.Context, cfg, resumeSnap)
			} else {
				res, rerr = netsim.RunContext(s.Context, cfg)
			}
			if rerr != nil {
				cr.Err = fmt.Errorf("load %g: %w", load, rerr)
				return cr
			}
		}
		cr.Curve.Points = append(cr.Curve.Points, stats.SweepPoint{Load: load, Result: res})
		reporter.pointDone(j, load, res)
		if countdown < 0 {
			if res.Accepted < s.SaturationRatio*res.Injected {
				countdown = s.PointsPastSaturation
			}
		} else {
			countdown--
		}
		if countdown == 0 {
			break
		}
	}
	return cr
}
