package netsim

import (
	"testing"

	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// FuzzRestore feeds mutated checkpoints to Restore: every input must give
// a restored *Sim or an error, never a panic or an allocation sized by a
// corrupt length. The seeds are mid-run snapshots the target takes itself,
// of the 4×4 ITB-RR fault storm (retries, re-injections, table swaps), of
// the two-lane VC dragonfly (lane buffers, credits, per-lane reception)
// and of the fault storm under the adaptive selector (its EWMA table), plus
// the storm seed with each of the cable corruptions of badCables, and the
// storm and VC seeds with each of the reception corruptions of
// badReceptions; the first argument picks the configuration an input is
// restored under.
func FuzzRestore(f *testing.F) {
	df, err := topology.NewDragonfly(4, 3, 1, 2, 8)
	if err != nil {
		f.Fatal(err)
	}
	configs := []Config{stormConfig(f, routes.ITBRR), vcConfig(f, df, 2), selectorConfig(f, newSelector["adaptive"](), true)}
	for i, every := range []int64{30_000, 80_000, 30_000} {
		cfg := configs[i]
		var seed []byte
		cfg.CheckpointEvery = every
		cfg.CheckpointSink = func(_ int64, snap []byte) error {
			if seed == nil {
				seed = snap
			}
			return nil
		}
		if _, err := Run(cfg); err != nil {
			f.Fatal(err)
		}
		if seed == nil {
			f.Fatalf("config %d finished before cycle %d", i, every)
		}
		if _, err := Restore(configs[i], seed); err != nil {
			f.Fatalf("config %d: seed does not restore: %v", i, err)
		}
		f.Add(uint8(i), seed)
		if i == 0 {
			for _, bc := range badCables {
				f.Add(uint8(i), corruptCable(f, configs[i], seed, bc.mutate))
			}
		}
		if i < 2 {
			for _, br := range badReceptions {
				f.Add(uint8(i), corruptReception(f, configs[i], seed, br.mutate))
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		s, err := Restore(configs[int(which)%len(configs)], data)
		if err == nil && s == nil {
			t.Fatal("Restore returned neither a Sim nor an error")
		}
	})
}
