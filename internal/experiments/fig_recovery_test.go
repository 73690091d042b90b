package experiments

import (
	"strings"
	"testing"
)

// TestRecoveryFigureShape: every scheme's row must show a storm that was
// contained and healed — quarantine happened, the device ended Healthy, and
// recovered throughput is within 5% of the pre-storm steady state.
func TestRecoveryFigureShape(t *testing.T) {
	rows, err := RecoveryFigure(Options{Quick: true, FaultSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(recoverySchemes) {
		t.Fatalf("want %d rows, got %d", len(recoverySchemes), len(rows))
	}
	for _, r := range rows {
		if r.Storms == 0 || r.Quarantines == 0 {
			t.Errorf("%s: storm not detected (%+v)", r.Scheme, r)
		}
		if r.FinalState != "healthy" {
			t.Errorf("%s: final state %s, want healthy", r.Scheme, r.FinalState)
		}
		if r.RecoveredGbps < 0.95*r.SteadyGbps {
			t.Errorf("%s: recovered %.2f Gb/s < 95%% of steady %.2f Gb/s",
				r.Scheme, r.RecoveredGbps, r.SteadyGbps)
		}
	}
	out := RenderRecovery(rows)
	if !strings.Contains(out, "damn") || !strings.Contains(out, "MTTR") {
		t.Errorf("render missing expected content:\n%s", out)
	}
}

// TestRecoveryFigureParallelMatchesSerial: the same -fault-seed must yield
// byte-identical recovery output serial and parallel.
func TestRecoveryFigureParallelMatchesSerial(t *testing.T) {
	parallelMatchesSerial(t, "recovery", Options{Quick: true, FaultSeed: 3})
}
