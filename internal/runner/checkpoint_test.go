package runner

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"itbsim/internal/faults"
	"itbsim/internal/netsim"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// reportJSON renders a report with its wall-clock fields zeroed, the
// canonical form for comparing a resumed sweep against an uninterrupted
// one (timing legitimately differs; everything else may not).
func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	stripTiming(rep)
	rep.TableBuilds = 0 // a resume legitimately serves cached/recorded jobs
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointSpec is a small sweep used by the record tests: two schemes,
// one pattern, two loads, snapshotting frequently enough that every point
// writes in-flight checkpoints.
func checkpointSpec(t *testing.T, net *topology.Network) Spec {
	t.Helper()
	s := testSpec(t, net)
	s.Schemes = []routes.Scheme{routes.UpDown, routes.ITBRR}
	s.Patterns = []Pattern{{Kind: "uniform"}}
	s.CheckpointEvery = 10_000
	return s
}

// doneRecords counts the finished records in dir. Every file there must be
// a job record, and a finished one must carry no snapshot.
func doneRecords(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	done := 0
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".ckpt.tmp") {
			continue // a record being written
		}
		if ok, _ := filepath.Match("job-*.ckpt", name); !ok {
			return 0, fmt.Errorf("%s is not a job record", name)
		}
		rec, snap, err := readRecord(filepath.Join(dir, name))
		if err != nil || rec == nil {
			return 0, fmt.Errorf("%s: unreadable record (%v)", name, err)
		}
		if rec.Done {
			if len(snap) != 0 {
				return 0, fmt.Errorf("%s: finished record carries a %d-byte snapshot", name, len(snap))
			}
			done++
		}
	}
	return done, nil
}

// TestSweepJournalRoundTrip: checkpointing must not perturb results, it
// must leave one finished record per job, and a resume over finished
// records must reproduce the report without re-simulating (zero table
// builds). A record without a digest, as an older build wrote, is ignored
// and its job re-runs.
func TestSweepJournalRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	dir := t.TempDir()

	plain := checkpointSpec(t, net)
	plain.CheckpointEvery = 0
	repRef, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	ref := reportJSON(t, repRef)

	ckpt := checkpointSpec(t, net)
	ckpt.CheckpointDir = dir
	repCkpt, err := Run(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, repCkpt); !bytes.Equal(ref, got) {
		t.Errorf("checkpointing perturbed the sweep:\nwant %s\ngot  %s", ref, got)
	}
	if done, err := doneRecords(dir); err != nil || done != len(repCkpt.Curves) {
		t.Errorf("checkpointed run left %d finished records (%v); want one per job, %d", done, err, len(repCkpt.Curves))
	}

	res := checkpointSpec(t, net)
	res.CheckpointDir = dir
	res.Resume = true
	repRes, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if repRes.TableBuilds != 0 {
		t.Errorf("resume of finished records built %d tables; want 0 (every job served from its record)", repRes.TableBuilds)
	}
	if got := reportJSON(t, repRes); !bytes.Equal(ref, got) {
		t.Errorf("record round trip diverges:\nwant %s\ngot  %s", ref, got)
	}

	rec, _, err := readRecord(filepath.Join(dir, "job-1.ckpt"))
	if err != nil || rec == nil {
		t.Fatalf("job 1 has no record: %v", err)
	}
	rec.Digest = ""
	if err := writeRecord(dir, rec, nil); err != nil {
		t.Fatal(err)
	}
	repOld, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if repOld.TableBuilds != 1 {
		t.Errorf("resume over a record without a digest built %d tables; want 1 (that job re-run)", repOld.TableBuilds)
	}
	if got := reportJSON(t, repOld); !bytes.Equal(ref, got) {
		t.Errorf("resume over a record without a digest diverges:\nwant %s\ngot  %s", ref, got)
	}
}

// cancelAfterPoints cancels a context once the sweep has completed n load
// points, simulating a crash at a deterministic spot mid-job.
type cancelAfterPoints struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterPoints) JobStarted(Job) {}
func (c *cancelAfterPoints) PointDone(_ Job, _ float64, _ *netsim.Result) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
}
func (c *cancelAfterPoints) JobDone(*CurveResult) {}

// interruptAfterFirstPoint runs checkpointSpec uninterrupted, then again
// in dir, interrupted after its first load point, which leaves a
// mid-simulation snapshot of the second on disk. It returns the
// uninterrupted report.
func interruptAfterFirstPoint(t *testing.T, net *topology.Network, dir string) []byte {
	t.Helper()
	plain := checkpointSpec(t, net)
	plain.CheckpointEvery = 0
	repRef, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	crash := checkpointSpec(t, net)
	crash.CheckpointDir = dir
	crash.CheckpointEvery = 1_000 // snapshot often enough to catch every point mid-flight
	crash.Context = ctx
	crash.Parallel = 1
	crash.Reporter = &cancelAfterPoints{n: 1, cancel: cancel}
	if _, err := Run(crash); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if _, err := os.Stat(filepath.Join(dir, "job-0.ckpt")); err != nil {
		t.Fatalf("interrupted run left no in-flight checkpoint: %v", err)
	}
	return reportJSON(t, repRef)
}

// resumeReport resumes checkpointSpec from dir and returns its report.
func resumeReport(t *testing.T, net *topology.Network, dir string) []byte {
	t.Helper()
	res := checkpointSpec(t, net)
	res.CheckpointDir = dir
	res.Resume = true
	repRes, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	return reportJSON(t, repRes)
}

// TestResumeMidJob interrupts a checkpointed sweep after its first load
// point and requires the resumed run to finish the job and match the
// uninterrupted report. This is the in-process half of the kill-and-resume
// contract; TestKillAndResume proves the same across a real SIGKILL.
func TestResumeMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	dir := t.TempDir()
	ref := interruptAfterFirstPoint(t, net, dir)
	if got := resumeReport(t, net, dir); !bytes.Equal(ref, got) {
		t.Errorf("resume after mid-job interrupt diverges:\nwant %s\ngot  %s", ref, got)
	}
}

// TestResumeOtherFormatVersion: a snapshot written in another checkpoint
// format version (by another build) cannot be restored, so the resumed run
// re-runs the interrupted point from scratch, still reuses the finished
// point, and matches the uninterrupted report.
func TestResumeOtherFormatVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	dir := t.TempDir()
	ref := interruptAfterFirstPoint(t, net, dir)

	// The snapshot follows the header line: an 8-byte magic, then the
	// 4-byte format version (docs/CHECKPOINT.md).
	path := filepath.Join(dir, "job-0.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := data[bytes.IndexByte(data, '\n')+1:]
	if !bytes.HasPrefix(snap, []byte("ITBCKPT\x00")) || len(snap) < 12 {
		t.Fatalf("job-0.ckpt holds no snapshot after its header line")
	}
	binary.LittleEndian.PutUint32(snap[8:12], 99)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := resumeReport(t, net, dir); !bytes.Equal(ref, got) {
		t.Errorf("resume over a snapshot of another format version diverges:\nwant %s\ngot  %s", ref, got)
	}
}

// TestResumeRejectsForeignJournal: resuming a finished directory under a
// spec whose jobs would simulate other points (other schemes, another load
// grid, another seed) must fail with the identity error, not silently
// serve the stored curves.
func TestResumeRejectsForeignJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	dir := t.TempDir()

	first := checkpointSpec(t, net)
	first.CheckpointDir = dir
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		mut  func(*Spec)
	}{
		{"schemes", func(s *Spec) { s.Schemes = []routes.Scheme{routes.ITBSP, routes.UpDownMin} }},
		{"loads", func(s *Spec) { s.Loads = []float64{0.03, 0.06} }},
		{"seed", func(s *Spec) { s.Seed = 99 }},
	} {
		other := checkpointSpec(t, net)
		tc.mut(&other)
		other.CheckpointDir = dir
		other.Resume = true
		_, err := Run(other)
		if err == nil {
			t.Errorf("%s: foreign records accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "different spec") {
			t.Errorf("%s: unexpected error for foreign records: %v", tc.name, err)
		}
	}
}

// TestCheckpointSpecValidation covers the flag plumbing invariants.
func TestCheckpointSpecValidation(t *testing.T) {
	net := testNet(t)
	for _, tc := range []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"negative every", func(s *Spec) { s.CheckpointEvery = -1 }, "CheckpointEvery"},
		{"every without dir", func(s *Spec) { s.CheckpointEvery = 1000 }, "CheckpointDir"},
		{"resume without dir", func(s *Spec) { s.Resume = true }, "Resume"},
	} {
		spec := testSpec(t, net)
		tc.mut(&spec)
		_, err := Run(spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestPanicContained: a job that panics mid-simulation must surface as a
// PanicError on its own CurveResult while every other job completes.
func TestPanicContained(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	spec := testSpec(t, net)
	spec.Schemes = []routes.Scheme{routes.UpDown}
	spec.Patterns = []Pattern{
		{Kind: "uniform"},
		{Kind: "custom", Custom: func(src int, rng *netsim.RNG) int {
			panic("deliberate test panic")
		}},
	}
	rep, err := Run(spec)
	if err == nil {
		t.Fatal("sweep with a panicking job reported success")
	}
	if len(rep.Curves) != 2 {
		t.Fatalf("expected 2 curves, got %d", len(rep.Curves))
	}
	var pe *PanicError
	if !errors.As(rep.Curves[1].Err, &pe) {
		t.Fatalf("panicking job error is %T (%v), want *PanicError", rep.Curves[1].Err, rep.Curves[1].Err)
	}
	if pe.Value != "deliberate test panic" || len(pe.Stack) == 0 {
		t.Errorf("PanicError lost the panic: value %v, %d stack bytes", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "deliberate test panic") {
		t.Errorf("PanicError message omits the panic value: %q", pe.Error())
	}
	if good := &rep.Curves[0]; good.Err != nil || len(good.Curve.Points) == 0 {
		t.Errorf("healthy sibling job did not finish: err %v, %d points", good.Err, len(good.Curve.Points))
	}
}

// TestVCWithFaultsRejected: every way of asking for virtual channels
// alongside a fault plan must be rejected at Spec validation with a typed
// ConfigError naming the offending field, before any job runs.
func TestVCWithFaultsRejected(t *testing.T) {
	net := testNet(t)
	plan := (&faults.Plan{}).FailLinkAt(5, 10_000)

	vcTable, err := routes.Build(net, routes.DefaultConfig(routes.VC))
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(src int, rng *netsim.RNG) int { return (src + 1) % net.NumHosts() }

	for _, tc := range []struct {
		name  string
		mut   func(*Spec)
		field string
	}{
		{"scheme list", func(s *Spec) { s.Schemes = []routes.Scheme{routes.UpDown, routes.VC} }, "Schemes"},
		{"prebuilt table", func(s *Spec) {
			s.Schemes = nil
			s.Patterns = nil
			s.Table = vcTable
			s.Dest = uniform
		}, "Table"},
	} {
		spec := testSpec(t, net)
		spec.Faults = plan
		tc.mut(&spec)
		_, err := Run(spec)
		if err == nil {
			t.Errorf("%s: VC + faults accepted", tc.name)
			continue
		}
		var ce *topology.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error is %T (%v), want *topology.ConfigError", tc.name, err, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: ConfigError names field %q, want %q", tc.name, ce.Field, tc.field)
		}
		if !strings.Contains(ce.Error(), "Faults") {
			t.Errorf("%s: error does not mention the fault plan: %v", tc.name, ce)
		}
	}
}

// killResumeSpec is the sweep TestKillAndResume runs three ways: to
// completion in a child process that gets SIGKILLed partway, resumed in
// the parent, and uninterrupted in the parent as the reference.
func killResumeSpec(net *topology.Network, dir string) Spec {
	return Spec{
		Net:             net,
		Schemes:         []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR},
		Patterns:        []Pattern{{Kind: "uniform"}},
		Loads:           []float64{0.02, 0.05},
		MessageBytes:    128,
		Seed:            7,
		WarmupMessages:  50,
		MeasureMessages: 1500,
		MaxCycles:       8_000_000,
		Label:           "killresume",
		Parallel:        1,
		CheckpointDir:   dir,
		CheckpointEvery: 10_000,
	}
}

// TestKillAndResumeChild is the helper process of TestKillAndResume: it
// runs the checkpointed sweep to completion (unless killed first). It
// skips unless the parent's environment variable is set.
func TestKillAndResumeChild(t *testing.T) {
	dir := os.Getenv("ITBSIM_KILLRESUME_DIR")
	if dir == "" {
		t.Skip("helper process for TestKillAndResume")
	}
	net, err := topology.NewTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(killResumeSpec(net, dir)); err != nil {
		t.Fatal(err)
	}
}

// TestKillAndResume is the acceptance test of the crash-safe records: a
// child process running a checkpointed sweep is SIGKILLed once at least
// one job's record is finished, and a resumed run must skip the finished
// jobs yet reproduce the uninterrupted sweep's report.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	net := testNet(t)
	dir := t.TempDir()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestKillAndResumeChild$", "-test.v")
	cmd.Env = append(os.Environ(), "ITBSIM_KILLRESUME_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill -9 as soon as one job's record is finished; the next job is
	// then mid-flight with an in-flight record on disk.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if done, err := doneRecords(dir); err == nil && done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never finished a job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	cmd.Wait() //lint:ignore errcheck-lite the kill is the expected exit

	done, err := doneRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("no finished record survived the kill")
	}
	if done == 3 {
		t.Log("child finished before the kill landed; resume only serves finished records")
	}

	ref := killResumeSpec(net, t.TempDir())
	ref.CheckpointDir = ""
	ref.CheckpointEvery = 0
	repRef, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	res := killResumeSpec(net, dir)
	res.Resume = true
	repRes, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if repRes.TableBuilds >= int64(len(res.Schemes)) {
		t.Errorf("resume built %d tables for %d schemes; finished jobs were re-run", repRes.TableBuilds, len(res.Schemes))
	}

	want, got := reportJSON(t, repRef), reportJSON(t, repRes)
	if !bytes.Equal(want, got) {
		t.Errorf("resumed sweep diverges from the uninterrupted reference:\nwant %s\ngot  %s", want, got)
	}
}
