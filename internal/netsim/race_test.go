//go:build race

package netsim

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation slows every simulation several times over.
const raceEnabled = true
