package topology

import "fmt"

// ConfigError is the typed validation error returned by the New* topology
// constructors (and reused by netsim for simulator-configuration fields):
// which field was rejected, the offending value, and why. The root facade
// re-exports it as itbsim.ConfigError; callers can errors.As on it to
// distinguish bad parameters from construction failures.
type ConfigError struct {
	// Field names the rejected configuration field or parameter group,
	// e.g. "rows/cols" or "Params.VCs".
	Field string
	// Value is the rejected value, rendered with %v in the message.
	Value any
	// Reason says what the constraint was.
	Reason string
}

// Error renders "invalid <Field> <Value>: <Reason>".
func (e *ConfigError) Error() string {
	return fmt.Sprintf("invalid %s %v: %s", e.Field, e.Value, e.Reason)
}
