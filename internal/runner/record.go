package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"itbsim/internal/metrics"
	"itbsim/internal/netsim"
	"itbsim/internal/stats"
	"itbsim/internal/topology"
)

// A checkpointed Run keeps one crash-safe record per job,
// <dir>/job-<index>.ckpt (docs/CHECKPOINT.md): a JSON header line, then
// the netsim snapshot of the point being simulated. While the job runs,
// the header holds its finished points; once it finishes, the file is
// rewritten with the whole curve, its timings and a done mark, and no
// snapshot. Every write goes to a temp file that is synced and renamed
// over the record, so a kill leaves either the old record or the new one.
// A killed Run rerun with Resume serves finished jobs from their records
// without simulating, restarts in-flight jobs mid-point, and produces the
// Report the uninterrupted Run would have.

// defaultCheckpointEvery is the snapshot period (in simulated cycles) used
// when a CheckpointDir is set without an explicit CheckpointEvery.
const defaultCheckpointEvery int64 = 250_000

// pointRecord is one finished load point. The latency histograms are
// carried as their binary encoding (JSON renders []byte as base64) because
// metrics.Metrics excludes them from JSON.
type pointRecord struct {
	Load       float64        `json:"load"`
	Result     *netsim.Result `json:"result"`
	Latency    []byte         `json:"latency,omitempty"`
	NetLatency []byte         `json:"net_latency,omitempty"`
}

// jobRecord is the header line of a job's record. Digest is the digest of
// the spec that wrote it (Spec.digest); a record without one was written
// by an older build.
type jobRecord struct {
	Index  int    `json:"index"`
	Label  string `json:"label"`
	Digest string `json:"digest"`
	// Done marks a finished job: Points is the whole curve, the timings
	// are set, and no snapshot follows the header.
	Done         bool  `json:"done,omitempty"`
	TableBuildUs int64 `json:"table_build_us,omitempty"`
	SimUs        int64 `json:"sim_us,omitempty"`
	// Points are the finished points; while the job runs, the snapshot
	// after the header is of point len(Points).
	Points []pointRecord `json:"points"`
}

// digest fingerprints every spec field that fixes job j's points: the
// job's coordinates, the network's wiring, the scheme's route config (or
// the prebuilt table), the load grid, seed and message size, the warmup,
// measure and cycle limits, the saturation stop, the link-util and metrics
// settings, Params, the optimizer config and the fault plan. Functions
// (Dest, a custom pattern's chooser) cannot be digested: as with a netsim
// snapshot, resuming with the same ones is the caller's job.
func (s *Spec) digest(j Job) (string, error) {
	h := sha256.New()
	if err := topology.Encode(h, s.Net); err != nil {
		return "", fmt.Errorf("runner: digest of job %d: %w", j.Index, err)
	}
	var table uint64
	if j.table != nil {
		table = j.table.Fingerprint()
	}
	p := j.Pattern
	err := json.NewEncoder(h).Encode([]any{
		j.Index, j.Label, j.Scheme, j.Replica, p.Kind, p.HotspotHost, p.HotspotFraction, p.LocalRadius,
		s.RouteConfig(j.Scheme), table,
		s.Loads, s.Seed, s.MessageBytes,
		s.WarmupMessages, s.MeasureMessages, s.MaxCycles,
		s.SaturationRatio, s.PointsPastSaturation, s.CollectLinkUtil, s.Metrics,
		s.Params, s.Optimize, s.Faults, s.FaultMapperHost,
	})
	if err != nil {
		return "", fmt.Errorf("runner: digest of job %d: %w", j.Index, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prepareCheckpointDir creates the checkpoint directory. A fresh Run
// (resume false) removes the records a previous Run left there, so none
// of them can be mistaken for this Run's.
func prepareCheckpointDir(dir string, resume bool) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("runner: checkpoint dir: %w", err)
	}
	if !resume {
		stale, err := filepath.Glob(filepath.Join(dir, "job-*.ckpt"))
		if err == nil {
			for _, p := range stale {
				os.Remove(p) //lint:ignore errcheck-lite best-effort cleanup of a stale record
			}
		}
	}
	return nil
}

func ckptPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("job-%d.ckpt", index))
}

// writeRecord atomically replaces the record of job rec.Index: the header
// line, then snap (nil for a finished job), written to a temp file,
// synced, and renamed over the record.
func writeRecord(dir string, rec *jobRecord, snap []byte) error {
	head, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: checkpoint job %d: %w", rec.Index, err)
	}
	path := ckptPath(dir, rec.Index)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("runner: checkpoint job %d: %w", rec.Index, err)
	}
	_, werr := f.Write(append(append(head, '\n'), snap...))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp) //lint:ignore errcheck-lite best-effort cleanup after a failed write
		return fmt.Errorf("runner: checkpoint job %d: %w", rec.Index, werr)
	}
	return nil
}

// readRecord reads the record at path and the snapshot after its header;
// (nil, nil, nil) when none exists. A torn header is treated as absent
// too: the job simply re-runs.
func readRecord(path string) (*jobRecord, []byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("runner: read checkpoint: %w", err)
	}
	head, snap, ok := bytes.Cut(data, []byte{'\n'})
	var rec jobRecord
	if !ok || json.Unmarshal(head, &rec) != nil {
		return nil, nil, nil
	}
	return &rec, snap, nil
}

// encodePoint converts a finished point to its record form, extracting
// the latency histograms metrics.Metrics keeps out of JSON.
func encodePoint(load float64, res *netsim.Result) (pointRecord, error) {
	pr := pointRecord{Load: load, Result: res}
	if m := res.Metrics; m != nil {
		var err error
		if m.Latency != nil {
			if pr.Latency, err = m.Latency.MarshalBinary(); err != nil {
				return pr, err
			}
		}
		if m.NetLatency != nil {
			if pr.NetLatency, err = m.NetLatency.MarshalBinary(); err != nil {
				return pr, err
			}
		}
	}
	return pr, nil
}

// decodePoint restores a recorded point's result, reattaching its
// histograms.
func decodePoint(pr pointRecord) (*netsim.Result, error) {
	if pr.Result == nil {
		return nil, fmt.Errorf("runner: recorded point at load %g has no result", pr.Load)
	}
	if m := pr.Result.Metrics; m != nil {
		var err error
		if m.Latency, err = decodeHistogram(pr.Latency); err != nil {
			return nil, err
		}
		if m.NetLatency, err = decodeHistogram(pr.NetLatency); err != nil {
			return nil, err
		}
	}
	return pr.Result, nil
}

// decodeHistogram decodes a recorded histogram; nil when none was recorded.
func decodeHistogram(b []byte) (*metrics.Histogram, error) {
	if len(b) == 0 {
		return nil, nil
	}
	h := &metrics.Histogram{}
	if err := h.UnmarshalBinary(b); err != nil {
		return nil, fmt.Errorf("runner: recorded histogram: %w", err)
	}
	return h, nil
}

// resultFromRecord rebuilds the CurveResult of a finished job's record.
func resultFromRecord(rec *jobRecord, j Job) CurveResult {
	cr := CurveResult{
		Job:        j,
		TableBuild: time.Duration(rec.TableBuildUs) * time.Microsecond,
		Sim:        time.Duration(rec.SimUs) * time.Microsecond,
	}
	cr.Curve.Label = j.Label
	for _, pr := range rec.Points {
		res, err := decodePoint(pr)
		if err != nil {
			return CurveResult{Job: j, Err: err}
		}
		cr.Curve.Points = append(cr.Curve.Points, stats.SweepPoint{Load: pr.Load, Result: res})
	}
	return cr
}
