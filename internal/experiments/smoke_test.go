package experiments

import (
	"testing"

	"itbsim/internal/runner"
)

// TestSmokeTorusUniform is the headline qualitative check at small scale:
// in-transit buffers must outperform up*/down* on a torus under uniform
// traffic.
func TestSmokeTorusUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	e, err := NewEnv(TopoTorus, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := LatencyFigure(e, Pattern{Kind: "uniform"}, DefaultLoads(TopoTorus, ScaleSmall), 512, 1, runner.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	sat := cs.Saturation()
	t.Logf("torus/small uniform saturation: UD=%.4f SP=%.4f RR=%.4f", sat[0], sat[1], sat[2])
	// A 4x4 torus forbids far fewer minimal paths than the paper's 8x8
	// ("the number of forbidden minimal paths increases as the network
	// becomes larger"), so the gap is small here: assert only that ITB-RR
	// wins and ITB-SP is competitive. The paper-shape assertions run at
	// medium scale below.
	if sat[2] <= sat[0] {
		t.Errorf("ITB-RR (%.4f) did not beat UP/DOWN (%.4f)", sat[2], sat[0])
	}
	if sat[1] < 0.8*sat[0] {
		t.Errorf("ITB-SP (%.4f) collapsed versus UP/DOWN (%.4f)", sat[1], sat[0])
	}
	// §4.7.1: "ITB-SP achieves slightly lower latency [than ITB-RR]...
	// due to the fact that, on average, more in-transit buffers are used
	// by messages when using ITB-RR". Compare the low-load points.
	spLat := cs.Curves[1].Points[0].Result.AvgLatencyNs
	rrLat := cs.Curves[2].Points[0].Result.AvgLatencyNs
	if spLat > rrLat*1.02 {
		t.Errorf("ITB-SP low-load latency %.0f ns above ITB-RR %.0f ns", spLat, rrLat)
	}
	spITB := cs.Curves[1].Points[0].Result.AvgITBsPerMessage
	rrITB := cs.Curves[2].Points[0].Result.AvgITBsPerMessage
	if spITB > rrITB {
		t.Errorf("ITB-SP used more ITBs per message (%.3f) than ITB-RR (%.3f)", spITB, rrITB)
	}
}

// TestSmokeTorusUniformMedium checks the paper's headline claim on the
// paper's own switch fabric (8x8 torus): the in-transit buffer mechanism
// roughly doubles up*/down* throughput under uniform traffic.
func TestSmokeTorusUniformMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	e, err := NewEnv(TopoTorus, ScaleMedium)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := LatencyFigure(e, Pattern{Kind: "uniform"}, DefaultLoads(TopoTorus, ScaleMedium), 512, 1, runner.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	sat := cs.Saturation()
	t.Logf("torus/medium uniform saturation: UD=%.4f SP=%.4f RR=%.4f (paper: 0.015 / 0.029 / 0.032)",
		sat[0], sat[1], sat[2])
	t.Logf("\n%s", cs.String())
	if sat[1] <= 1.2*sat[0] {
		t.Errorf("ITB-SP (%.4f) did not clearly beat UP/DOWN (%.4f)", sat[1], sat[0])
	}
	if sat[2] <= 1.2*sat[0] {
		t.Errorf("ITB-RR (%.4f) did not clearly beat UP/DOWN (%.4f)", sat[2], sat[0])
	}
}
