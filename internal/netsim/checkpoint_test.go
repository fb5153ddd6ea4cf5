package netsim

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"itbsim/internal/optimize"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// runCheckpointed runs cfg to completion while capturing a snapshot every
// `every` cycles, returning the result and the captured snapshots in order.
func runCheckpointed(t *testing.T, cfg Config, every int64) (*Result, [][]byte) {
	t.Helper()
	var snaps [][]byte
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = func(cycle int64, snapshot []byte) error {
		snaps = append(snaps, snapshot)
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatalf("run finished without producing a snapshot (CheckpointEvery=%d)", every)
	}
	return res, snaps
}

// resultBytes renders a Result for byte-level comparison: the JSON covers
// every exported field, including the full metrics export.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// expectResume restores snap under cfg, runs to completion, and requires the
// result to match want exactly — structurally and byte-for-byte.
func expectResume(t *testing.T, cfg Config, snap []byte, want *Result, label string) {
	t.Helper()
	got, err := ResumeContext(context.Background(), cfg, snap)
	if err != nil {
		t.Fatalf("%s: resume: %v", label, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: resumed result diverges from the uninterrupted run:\nwant: %+v\ngot:  %+v", label, want, got)
		return
	}
	if wb, gb := resultBytes(t, want), resultBytes(t, got); string(wb) != string(gb) {
		t.Errorf("%s: resumed result serializes differently", label)
	}
}

// TestResumeEquivalence is the checkpoint codec's golden check: for both
// step loops, routing scheme, fault mode and path selector, a run
// snapshotted at an arbitrary mid-run cycle and resumed from that snapshot
// must produce a Result byte-identical to the uninterrupted run — and the
// snapshotting run itself must be unperturbed by taking checkpoints. A
// traced run's restored tracer must see exactly the uninterrupted trace
// from the snapshot cycle on.
func TestResumeEquivalence(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	// check runs mk uninterrupted and with a snapshot every 10,000 cycles,
	// then resumes the snapshot pick chooses.
	check := func(t *testing.T, mk func() Config, pick func(want *Result, snaps [][]byte) int) {
		want, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		res, snaps := runCheckpointed(t, mk(), 10_000)
		if !reflect.DeepEqual(want, res) {
			t.Fatal("taking checkpoints perturbed the run")
		}
		expectResume(t, mk(), snaps[pick(want, snaps)], want, "mid-run snapshot")
	}
	mid := func(_ *Result, snaps [][]byte) int { return len(snaps) / 2 }
	// afterSwap picks the first snapshot after the first table swap, whose
	// fresh selector clone has been learning since.
	afterSwap := func(want *Result, snaps [][]byte) int {
		if len(want.Reconfigs) == 0 || int(want.Reconfigs[0].SwapCycle/10_000) >= len(snaps) {
			t.Fatalf("no snapshot after a table swap (reconfigs %+v, %d snapshots)", want.Reconfigs, len(snaps))
		}
		return int(want.Reconfigs[0].SwapCycle / 10_000)
	}
	for _, mech := range stepLoops {
		for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBRR} {
			for _, faulted := range []bool{false, true} {
				name := mech.name + "/" + sch.String()
				if faulted {
					name += "/faulted"
				}
				t.Run(name, func(t *testing.T) {
					check(t, func() Config {
						cfg := matrixConfig(t, net, sch, faulted)
						mech.apply(&cfg)
						return cfg
					}, mid)
				})
			}
		}
		t.Run(mech.name+"/ITB-RR/fault-storm/traced", func(t *testing.T) {
			const ring = 1 << 16
			mk := func(tr Tracer) Config {
				cfg := stormConfig(t, routes.ITBRR)
				cfg.Tracer = tr
				mech.apply(&cfg)
				return cfg
			}
			full := NewRingTracer(ring)
			want, snaps := runCheckpointed(t, mk(full), 10_000)
			if full.Total() >= ring {
				t.Fatalf("%d events overflowed the ring", full.Total())
			}
			k := len(snaps) / 2
			resumed := NewRingTracer(ring)
			expectResume(t, mk(resumed), snaps[k], want, "traced snapshot")
			var tail []Event
			for _, e := range full.Events() {
				if e.Cycle >= int64(k+1)*10_000 {
					tail = append(tail, e)
				}
			}
			if got := resumed.Events(); len(tail) == 0 || !reflect.DeepEqual(tail, got) {
				t.Errorf("restored tracer saw %d events, the uninterrupted run %d from cycle %d on",
					len(got), len(tail), (k+1)*10_000)
			}
		})
	}
	// Path selectors run under the active-set loop only: their state does
	// not depend on the loop, and results.golden pins both loops.
	for _, sel := range []string{"adaptive", "random"} {
		for _, faulted := range []bool{false, true} {
			name := "active-set/ITB-RR/" + sel
			pick := mid
			if faulted {
				name += "/fault-storm"
				pick = afterSwap
			}
			t.Run(name, func(t *testing.T) {
				check(t, func() Config { return selectorConfig(t, newSelector[sel](), faulted) }, pick)
			})
		}
	}
}

// TestResumeEquivalenceVC covers the virtual-channel mechanism (which
// excludes faults): lane buffers, credits, and per-lane reception state must
// round-trip through a snapshot.
func TestResumeEquivalenceVC(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	for _, mech := range stepLoops {
		t.Run(mech.name, func(t *testing.T) {
			base := vcConfig(t, net, 2)
			mech.apply(&base)
			want, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			ckpt := vcConfig(t, net, 2)
			mech.apply(&ckpt)
			res, snaps := runCheckpointed(t, ckpt, 10_000)
			if !reflect.DeepEqual(want, res) {
				t.Fatal("taking checkpoints perturbed the run")
			}
			resume := vcConfig(t, net, 2)
			mech.apply(&resume)
			expectResume(t, resume, snaps[len(snaps)/2], want, "mid-run snapshot")
		})
	}
}

// TestResumeEverysnapshot resumes one run from its first, middle, and last
// snapshots — early (mid-warmup), mid-measurement, and near the end must all
// converge to the identical result.
func TestResumeEverySnapshot(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	base := matrixConfig(t, net, routes.ITBRR, false)
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	_, snaps := runCheckpointed(t, matrixConfig(t, net, routes.ITBRR, false), 10_000)
	for _, pick := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		expectResume(t, matrixConfig(t, net, routes.ITBRR, false), snaps[pick], want, "snapshot")
	}
}

// TestResumeCrossMechanism proves a snapshot is step-loop-portable: state
// written under the active-set loop restores under the dense scan and vice
// versa, because active sets are re-derived rather than serialized and the
// config hash excludes denseStep.
func TestResumeCrossMechanism(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	mk := func() Config { return matrixConfig(t, net, routes.ITBRR, false) }
	want, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	_, activeSnaps := runCheckpointed(t, mk(), 10_000)
	denseCfg := mk()
	denseCfg.denseStep = true
	_, denseSnaps := runCheckpointed(t, denseCfg, 10_000)

	resume := mk()
	resume.denseStep = true
	expectResume(t, resume, activeSnaps[len(activeSnaps)/2], want, "active-set snapshot, dense resume")
	expectResume(t, mk(), denseSnaps[len(denseSnaps)/2], want, "dense snapshot, active-set resume")
}

// TestResumeEquivalenceTopologies spot-checks the matrix on the other two
// topology families (express torus, irregular CPLANT) with faults live.
func TestResumeEquivalenceTopologies(t *testing.T) {
	for _, net := range matrixNets(t)[1:] {
		t.Run(net.Name, func(t *testing.T) {
			base := matrixConfig(t, net, routes.ITBSP, true)
			want, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			_, snaps := runCheckpointed(t, matrixConfig(t, net, routes.ITBSP, true), 10_000)
			expectResume(t, matrixConfig(t, net, routes.ITBSP, true), snaps[len(snaps)/2], want, "mid-run snapshot")
		})
	}
}

// TestRestoreRejects pins the failure modes of Restore: wrong magic,
// truncation, trailing garbage, another format version, and a checkpoint
// from a different experiment configuration.
func TestRestoreRejects(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := matrixConfig(t, net, routes.UpDown, false)
	_, snaps := runCheckpointed(t, cfg, 10_000)
	snap := snaps[0]

	if _, err := Restore(cfg, []byte("not a checkpoint at all")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("garbage accepted: %v", err)
	}
	if _, err := Restore(cfg, snap[:len(snap)/2]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	if _, err := Restore(cfg, append(append([]byte(nil), snap...), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes accepted: %v", err)
	}
	// The previous and the next format version: the version field follows
	// the magic.
	for _, v := range []uint32{ckptVersion - 1, ckptVersion + 1} {
		old := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint32(old[len(ckptMagic):], v)
		if _, err := Restore(cfg, old); !errors.Is(err, ErrCheckpointVersion) {
			t.Errorf("checkpoint of format version %d accepted or refused for another reason: %v", v, err)
		}
	}
	other := matrixConfig(t, net, routes.UpDown, false)
	other.Seed = 999
	if _, err := Restore(other, snap); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("checkpoint accepted under a different seed: %v", err)
	}
	other = matrixConfig(t, net, routes.UpDown, false)
	other.Load = 0.5
	if _, err := Restore(other, snap); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("checkpoint accepted under a different load: %v", err)
	}

	// The selector's kind and config are part of the experiment.
	_, snaps = runCheckpointed(t, selectorConfig(t, newSelector["adaptive"](), false), 10_000)
	for _, sel := range []routes.Selector{nil, routes.NewRandomSelector(7), routes.NewFewestITBSelector(),
		routes.NewAdaptiveSelector(routes.AdaptiveConfig{Alpha: 0.5, Explore: true})} {
		if _, err := Restore(selectorConfig(t, sel, false), snaps[0]); err == nil || !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("adaptive-selector checkpoint accepted under selector %T: %v", sel, err)
		}
	}
}

// badCables are the lane contents Restore must refuse, each made by
// rewriting the busiest switch input lane of a restored Sim before it
// snapshots again, and the message each refusal carries: a run repeated
// behind itself (arrival cycles that do not strictly increase), arrival
// cycles past the flight after the snapshot, a run whose first flit is
// missing, an empty and an open run behind the lane's head, and more
// arrived flits than the lane's buffer holds.
var badCables = []struct {
	name, want string
	mutate     func(s *Sim, q *runQueue, r *flitRun)
}{
	{"non-increasing", "not after the flit", func(s *Sim, q *runQueue, r *flitRun) {
		dup := *r
		dup.open = false
		q.runs.push(dup)
	}},
	{"beyond-flight", "past the flight", func(s *Sim, q *runQueue, r *flitRun) { r.arrive = s.now + int64(s.p.LinkFlightCycles) }},
	{"first-flit-missing", "misses its first flit", func(s *Sim, q *runQueue, r *flitRun) { r.mask <<= 1 }},
	{"empty-behind-head", "empty run", func(s *Sim, q *runQueue, r *flitRun) { q.runs.push(flitRun{pkt: r.pkt}) }},
	{"open-behind-head", "open run", func(s *Sim, q *runQueue, r *flitRun) {
		q.runs.push(flitRun{pkt: r.pkt, arrive: r.last() + 1, mask: 1, open: true})
	}},
	{"overfull", "overfill", func(s *Sim, q *runQueue, r *flitRun) {
		// Full runs of a window each, all arrived by the snapshot and
		// together more flits than the buffer holds.
		pkt, runs := r.pkt, s.laneFlits/runWindow+1
		q.runs.reset()
		for k := 0; k < runs; k++ {
			q.runs.push(flitRun{pkt: pkt, arrive: s.seen - int64(runWindow*(runs-k)) + 1, mask: ^uint64(0)})
		}
	}},
}

// corruptCable restores snap under cfg, applies mutate to the last run in
// flight on the switch input lane with the most flits in flight, and
// snapshots again.
func corruptCable(tb testing.TB, cfg Config, snap []byte, mutate func(s *Sim, q *runQueue, r *flitRun)) []byte {
	tb.Helper()
	s, err := Restore(cfg, snap)
	if err != nil {
		tb.Fatal(err)
	}
	var busiest *runQueue
	most := 0
	for i := range s.links {
		if s.links[i].recvPort < 0 {
			continue
		}
		for v := range s.links[i].lanes {
			q := &s.links[i].lanes[v]
			n := 0
			for k := 0; k < q.runs.n; k++ {
				n += q.runs.at(k).arrived(s.now+int64(s.p.LinkFlightCycles)) - q.runs.at(k).arrived(s.seen)
			}
			if n > most {
				busiest, most = q, n
			}
		}
	}
	if busiest == nil {
		tb.Fatal("no flit in flight to corrupt")
	}
	mutate(s, busiest, busiest.runs.at(busiest.runs.n-1))
	bad, err := s.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return bad
}

// TestRestoreRejectsBadCable pins that Restore refuses, each with its own
// error and no panic, lane contents a run queue cannot hold.
func TestRestoreRejectsBadCable(t *testing.T) {
	cfg := stormConfig(t, routes.ITBRR)
	_, snaps := runCheckpointed(t, cfg, 30_000)
	for _, bc := range badCables {
		t.Run(bc.name, func(t *testing.T) {
			bad := corruptCable(t, cfg, snaps[0], bc.mutate)
			if _, err := Restore(cfg, bad); err == nil || !strings.Contains(err.Error(), bc.want) {
				t.Errorf("corrupt lane accepted or refused for another reason: %v", err)
			}
		})
	}
}

// badReceptions are the NIC reception records Restore must refuse, each
// made by rewriting a reception in progress whose remaining flits are all
// on its down-link, and the message each refusal carries: a received count
// raised by 3, a packet of another lane, and a re-injection record of
// another packet.
var badReceptions = []struct {
	name, want string
	mutate     func(rx *rxLane)
}{
	{"count-raised", "on the down-link", func(rx *rxLane) { rx.count += 3 }},
	{"other-lane", "packet of lane", func(rx *rxLane) {
		p := *rx.pkt
		p.vc++
		rx.pkt = &p
	}},
	{"other-reinj", "re-injection record of another packet", func(rx *rxLane) {
		p := *rx.pkt
		rx.reinj = &reinjState{pkt: &p, expected: p.wireFlits, readyAt: -1}
	}},
}

// corruptReception restores snap under cfg, steps it to the first cycle
// boundary at which a reception is in progress with its remaining flits
// all on its NIC's down-link, applies mutate to that reception, and
// snapshots again.
func corruptReception(tb testing.TB, cfg Config, snap []byte, mutate func(rx *rxLane)) []byte {
	tb.Helper()
	s, err := Restore(cfg, snap)
	if err != nil {
		tb.Fatal(err)
	}
	for end := s.now + 100_000; s.now < end; s.step() {
		s.settleParked(s.now - 1) // the NICs take every flit that has arrived
		for h := range s.nics {
			lanes := s.links[s.hostDownLink(h)].lanes
			for v := range s.nics[h].rx {
				rx := &s.nics[h].rx[v]
				onCable := 0
				for k := 0; k < lanes[v].runs.n; k++ {
					if r := lanes[v].runs.at(k); r.pkt == rx.pkt {
						onCable += r.count()
					}
				}
				if rx.pkt == nil || rx.count+onCable != rx.expected {
					continue
				}
				mutate(rx)
				bad, err := s.Snapshot()
				if err != nil {
					tb.Fatal(err)
				}
				return bad
			}
		}
	}
	tb.Fatal("no reception in progress with its remaining flits on the down-link")
	return nil
}

// TestRestoreRejectsBadReception pins that Restore refuses, under both
// flow-control models, each with a typed error naming the host and lane
// and no panic, reception records no run reaches, on which a resumed run
// would fail a reception's conservation check at the packet's tail.
func TestRestoreRejectsBadReception(t *testing.T) {
	df, err := topology.NewDragonfly(4, 3, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name  string
		cfg   Config
		every int64
	}{
		{"stop-and-go", stormConfig(t, routes.ITBRR), 30_000},
		{"vc2", vcConfig(t, df, 2), 40_000},
	} {
		_, snaps := runCheckpointed(t, m.cfg, m.every)
		for _, br := range badReceptions {
			t.Run(m.name+"/"+br.name, func(t *testing.T) {
				bad := corruptReception(t, m.cfg, snaps[0], br.mutate)
				_, err := Restore(m.cfg, bad)
				var re *receptionError
				if !errors.As(err, &re) || !strings.Contains(err.Error(), br.want) {
					t.Errorf("corrupt reception accepted or refused for another reason: %v", err)
				}
			})
		}
	}
}

// TestRestoreRejectsDifferentTable pins the table-fingerprint gate: a
// checkpoint written under the static builder table must refuse to restore
// under an optimizer-rewritten table of the same scheme and shape (and vice
// versa), with a typed *topology.ConfigError — the snapshot's in-flight
// packets reference routes only the writing table has.
func TestRestoreRejectsDifferentTable(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := matrixConfig(t, net, routes.UpDown, false)
	_, snaps := runCheckpointed(t, cfg, 10_000)
	snap := snaps[len(snaps)/2]

	resume := matrixConfig(t, net, routes.UpDown, false)
	opt, st, err := optimize.Optimize(resume.Table,
		routes.DefaultConfig(routes.UpDown),
		optimize.EstimateCriticality(resume.Table), optimize.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted == 0 {
		t.Fatal("optimizer accepted no moves on the 4x4 torus; the test needs a genuinely different table")
	}
	if resume.Table.Fingerprint() == opt.Fingerprint() {
		t.Fatal("optimized table fingerprints equal to the static table")
	}
	resume.Table = opt
	_, err = Restore(resume, snap)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("static-table checkpoint accepted under the optimized table: %v", err)
	}
	var ce *topology.ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("hash-mismatch error is %T, want *topology.ConfigError", err)
	}

	// The gate is symmetric: write optimized, restore static.
	wcfg := matrixConfig(t, net, routes.UpDown, false)
	wcfg.Table = opt.Clone()
	_, osnaps := runCheckpointed(t, wcfg, 10_000)
	if _, err := Restore(matrixConfig(t, net, routes.UpDown, false), osnaps[0]); err == nil {
		t.Error("optimized-table checkpoint accepted under the static table")
	}
	// And an identical rebuild still restores: the fingerprint pins route
	// content, not pointer identity.
	rcfg := matrixConfig(t, net, routes.UpDown, false)
	rcfg.Table = opt.Clone()
	if _, err := Restore(rcfg, osnaps[0]); err != nil {
		t.Errorf("optimized-table checkpoint refused under an identical table: %v", err)
	}
}

// TestCheckpointConfigValidation pins the New-time gates for the periodic
// checkpointing hook.
func TestCheckpointConfigValidation(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.UpDown)

	cfg := baseConfig(net, tab)
	cfg.CheckpointEvery = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative CheckpointEvery accepted")
	}

	cfg = baseConfig(net, tab)
	cfg.CheckpointEvery = 1000
	if _, err := New(cfg); err == nil {
		t.Error("CheckpointEvery without a sink accepted")
	}

	// A tracer only observes, and selector state is in the snapshot.
	cfg = selectorConfig(t, newSelector["adaptive"](), false)
	cfg.CheckpointEvery = 1000
	cfg.CheckpointSink = func(int64, []byte) error { return nil }
	cfg.Tracer = &CountTracer{}
	if _, err := New(cfg); err != nil {
		t.Errorf("checkpointing with a Tracer and a selector refused: %v", err)
	}
}

// TestCheckpointSinkErrorAborts verifies a failing sink stops the run with
// the sink's error.
func TestCheckpointSinkErrorAborts(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := matrixConfig(t, net, routes.UpDown, false)
	cfg.CheckpointEvery = 1000
	cfg.CheckpointSink = func(int64, []byte) error {
		return context.Canceled
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "checkpoint sink") {
		t.Errorf("run survived a failing checkpoint sink: %v", err)
	}
}

// TestStallDumpSurvivesRestore is the watchdog-diagnostics check: a stalled
// packet's reported age is measured from its generation cycle, which is
// serialized, so the dump from a restored Sim must equal the original's —
// ages must not restart from the resume point.
func TestStallDumpSurvivesRestore(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := matrixConfig(t, net, routes.ITBRR, false)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.outstanding == 0 || s.now < 5_000 {
		s.step()
		if s.now > 1_000_000 {
			t.Fatal("no traffic in flight after a million cycles")
		}
	}
	want := s.stallDump(maxStalledReported)
	if want == nil || want.Outstanding == 0 {
		t.Fatalf("no stall state to compare: %+v", want)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(matrixConfig(t, net, routes.ITBRR, false), snap)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.stallDump(maxStalledReported)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("stall dump changed across restore:\nwant: %+v\ngot:  %+v", want, got)
	}
	if got.Oldest[0].AgeCycles <= 0 {
		t.Error("restored stall ages reset to zero")
	}
}

// TestResumeManualStepping snapshots from a manually stepped simulator (no
// RunContext, no CheckpointEvery hook) at an exact chosen cycle and resumes
// it with ResumeContext — the two entry points must compose.
func TestResumeManualStepping(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := baseConfig(net, makeTable(t, net, routes.UpDown))
	run := func(snapshotAt int64) (*Result, []byte) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var snap []byte
		for {
			// The measurement transitions RunContext performs, minus the
			// metrics collector (nil here).
			if !s.measuring && s.deliveredTotal >= int64(cfg.WarmupMessages) {
				s.measuring = true
				s.measureStart = s.now
			}
			if s.measuring && s.measCount >= int64(cfg.MeasureMessages) {
				break
			}
			s.step()
			if snap == nil && s.now == snapshotAt {
				if snap, err = s.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if s.now > 100_000_000 {
				t.Fatal("run did not finish")
			}
		}
		return s.finalize(false), snap
	}
	want, snap := run(30_000)
	if snap == nil {
		t.Fatal("no snapshot taken")
	}
	got, err := ResumeContext(context.Background(), cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("manual-stepping resume diverges:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestDrainCheckpoints pins the periodic checkpoint under RunUntilDrained:
// a drain hands the sink a snapshot every CheckpointEvery cycles, as
// RunContext does, and each snapshot restored and drained again gives the
// uninterrupted drain's Result.
func TestDrainCheckpoints(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBRR} {
		t.Run(sch.String(), func(t *testing.T) {
			cfg := baseConfig(net, makeTable(t, net, sch))
			cfg.Load = 0 // Enqueue-driven
			cfg.CheckpointEvery = 100
			var snaps [][]byte
			cfg.CheckpointSink = func(_ int64, snap []byte) error {
				snaps = append(snaps, snap)
				return nil
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := s.Enqueue(i, i+10, 256); err != nil {
					t.Fatal(err)
				}
			}
			want, err := s.RunUntilDrained()
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 {
				t.Fatalf("a drain of %d cycles handed the sink no snapshot", want.Cycles)
			}
			cfg.CheckpointSink = func(int64, []byte) error { return nil }
			for i, snap := range snaps {
				r, err := Restore(cfg, snap)
				if err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
				got, err := r.RunUntilDrained()
				if err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("snapshot %d: restored drain diverges:\nwant: %+v\ngot:  %+v", i, want, got)
				}
			}
		})
	}
}
