//go:build race

package lint_test

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation alone slows the full-repository lint past its budget.
const raceEnabled = true
