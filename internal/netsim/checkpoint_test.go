package netsim

import (
	"context"
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
// step loops, routing scheme, and fault mode, a run snapshotted at
// an arbitrary mid-run cycle and resumed from that snapshot must produce a
// Result byte-identical to the uninterrupted run — and the snapshotting run
// itself must be unperturbed by taking checkpoints.
func TestResumeEquivalence(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	for _, mech := range stepLoops {
		for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBRR} {
			for _, faulted := range []bool{false, true} {
				name := mech.name + "/" + sch.String()
				if faulted {
					name += "/faulted"
				}
				t.Run(name, func(t *testing.T) {
					base := matrixConfig(t, net, sch, faulted)
					mech.apply(&base)
					want, err := Run(base)
					if err != nil {
						t.Fatal(err)
					}
					ckpt := matrixConfig(t, net, sch, faulted)
					mech.apply(&ckpt)
					res, snaps := runCheckpointed(t, ckpt, 10_000)
					if !reflect.DeepEqual(want, res) {
						t.Fatal("taking checkpoints perturbed the run")
					}
					resume := matrixConfig(t, net, sch, faulted)
					mech.apply(&resume)
					expectResume(t, resume, snaps[len(snaps)/2], want, "mid-run snapshot")
				})
			}
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
// config hash excludes DenseStep.
func TestResumeCrossMechanism(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	mk := func() Config { return matrixConfig(t, net, routes.ITBRR, false) }
	want, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	_, activeSnaps := runCheckpointed(t, mk(), 10_000)
	denseCfg := mk()
	denseCfg.DenseStep = true
	_, denseSnaps := runCheckpointed(t, denseCfg, 10_000)

	resume := mk()
	resume.DenseStep = true
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
// truncation, trailing garbage, and a checkpoint from a different
// experiment configuration.
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
// checkpointing hook and Snapshot's own refusals.
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

	cfg = baseConfig(net, tab)
	cfg.CheckpointEvery = 1000
	cfg.CheckpointSink = func(int64, []byte) error { return nil }
	cfg.Tracer = &CountTracer{}
	if _, err := New(cfg); err == nil {
		t.Error("checkpointing with a Tracer accepted")
	}

	cfg = baseConfig(net, tab)
	cfg.Notify = func(Delivery) {}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("Snapshot with Notify succeeded; callback state cannot round-trip")
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
