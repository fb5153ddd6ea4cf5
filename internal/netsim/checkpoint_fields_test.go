package netsim

import (
	"reflect"
	"testing"

	"itbsim/internal/metrics"
	"itbsim/internal/routes"
)

// checkpointedTypes instantiates every struct the snapshot codec touches;
// the unexported selector types enter as the reflect.Type of what their
// constructors return. Reflection reads the real field lists, so a field
// added to any of these types fails TestCheckpointFieldCoverage until it is
// either serialized (added to checkpointFields alongside the codec change)
// or explicitly exempted with a reason (added to checkpointExempt).
var checkpointedTypes = []interface{}{
	Config{},
	Params{},
	Sim{},
	link{},
	ring[flitRun]{},
	ring[signalInFlight]{},
	runQueue{},
	flitRun{},
	signalInFlight{},
	inPort{},
	inLane{},
	outPort{},
	outLane{},
	swtch{},
	nic{},
	injection{},
	reinjState{},
	packet{},
	msgState{},
	timer{},
	vcRx{},
	bitset{},
	faultEngine{},
	RNG{},
	DropStats{},
	ReconfigStat{},
	metrics.Collector{},
	metrics.Histogram{},
	routes.Table{},
	routes.Route{},
	routes.Seg{},
	routes.AdaptiveConfig{},
	reflect.TypeOf(routes.NewRandomSelector(0)).Elem(),
	reflect.TypeOf(routes.NewFewestITBSelector()),
	adaptiveType,
	adaptiveState.Type.Elem().Elem(), // the per-pair state behind the map
}

var (
	adaptiveType     = reflect.TypeOf(routes.NewAdaptiveSelector(routes.DefaultAdaptiveConfig())).Elem()
	adaptiveState, _ = adaptiveType.FieldByName("state")
)

// TestCheckpointFieldCoverage is the forcing function that keeps the
// checkpoint codec complete as the simulator grows: every field of every
// snapshotted type must be accounted for — either serialized
// (checkpointFields) or deliberately exempt (checkpointExempt) — and the
// two maps may not drift from the real struct definitions or overlap.
func TestCheckpointFieldCoverage(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range checkpointedTypes {
		typ, ok := v.(reflect.Type)
		if !ok {
			typ = reflect.TypeOf(v)
		}
		name := typ.String()
		if seen[name] {
			t.Errorf("%s listed twice in checkpointedTypes", name)
		}
		seen[name] = true

		serialized := map[string]bool{}
		for _, f := range checkpointFields[name] {
			if serialized[f] {
				t.Errorf("%s.%s listed twice in checkpointFields", name, f)
			}
			serialized[f] = true
		}
		exempt := map[string]bool{}
		for _, f := range checkpointExempt[name] {
			if exempt[f] {
				t.Errorf("%s.%s listed twice in checkpointExempt", name, f)
			}
			if serialized[f] {
				t.Errorf("%s.%s is both serialized and exempt", name, f)
			}
			exempt[f] = true
		}

		real := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i).Name
			real[f] = true
			if !serialized[f] && !exempt[f] {
				t.Errorf("%s.%s is not covered by the checkpoint codec: serialize it in checkpoint.go and add it to checkpointFields, or exempt it with a reason in checkpointExempt", name, f)
			}
		}
		for f := range serialized {
			if !real[f] {
				t.Errorf("checkpointFields names %s.%s, which does not exist", name, f)
			}
		}
		for f := range exempt {
			if !real[f] {
				t.Errorf("checkpointExempt names %s.%s, which does not exist", name, f)
			}
		}
	}

	for name := range checkpointFields {
		if !seen[name] {
			t.Errorf("checkpointFields covers %s, which is not in checkpointedTypes", name)
		}
	}
	for name := range checkpointExempt {
		if !seen[name] {
			t.Errorf("checkpointExempt covers %s, which is not in checkpointedTypes", name)
		}
	}
}
