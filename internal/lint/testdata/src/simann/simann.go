// Package simann exercises the //sim: annotation grammar and the
// hot-path allocation attribution.
package simann

type scratch struct{ d int64 }

// hot is annotated for the hotalloc attribution test; the escape events
// the test fabricates inside this function's line range must be
// attributed to it.
//
//sim:hotpath
func hot() *scratch {
	return &scratch{}
}

//sim:frobnicate
func oops() {} // want sim: unknown verb

// The annotation below attaches to nothing: finding.
//
//sim:hotpath
var floating = 1

// use keeps the unexported fixtures referenced.
var _ = []any{oops, hot, floating}
