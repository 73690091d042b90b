package experiments

import (
	"strings"
	"testing"

	"github.com/asplos18/damn/internal/testbed"
)

// lossGroups indexes the figure's rows by scheme and loss rate.
func lossGroups(t *testing.T, rows []LossRow) map[string]map[float64]LossRow {
	t.Helper()
	out := map[string]map[float64]LossRow{}
	for _, r := range rows {
		if r.Chaos {
			continue
		}
		g, ok := out[r.Res.Scheme]
		if !ok {
			g = map[float64]LossRow{}
			out[r.Res.Scheme] = g
		}
		g[r.LossPct] = r
	}
	return out
}

// TestLossFigureShape is the loss-resilience acceptance gate: for every
// scheme the ARQ transport must recover at least 90% of the clean-wire
// goodput at 1% loss, retransmissions must actually happen on lossy points
// and never on clean ones, and strict's marginal CPU cost of reliability
// (the per-retransmission map/unmap toll) must visibly exceed DAMN's.
func TestLossFigureShape(t *testing.T) {
	skipInShort(t)
	rows, err := Loss(Options{Quick: true, FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(testbed.AllSchemes) * (len(lossRates) + 1); len(rows) != want {
		t.Fatalf("want %d rows, got %d", want, len(rows))
	}
	groups := lossGroups(t, rows)
	for scheme, g := range groups {
		clean, one := g[0].Res, g[1].Res
		if clean.Retransmits != 0 || clean.DroppedDup != 0 || clean.CsumDrops != 0 {
			t.Errorf("%s: clean wire retransmitted: %+v", scheme, clean)
		}
		if one.Retransmits == 0 {
			t.Errorf("%s: 1%% loss produced no retransmissions", scheme)
		}
		if one.GoodputGbps < 0.9*clean.GoodputGbps {
			t.Errorf("%s: goodput at 1%% loss %.2f Gb/s < 90%% of clean %.2f Gb/s",
				scheme, one.GoodputGbps, clean.GoodputGbps)
		}
		if five := g[5].Res; five.RetxPct <= one.RetxPct {
			t.Errorf("%s: retx rate not increasing with loss: %.2f%% at 5%% vs %.2f%% at 1%%",
				scheme, five.RetxPct, one.RetxPct)
		}
	}
	// The cost asymmetry the figure exists to show: every retransmitted
	// segment and every ACK re-crosses the scheme's map/unmap path, so
	// reliable delivery under 5% loss must cost strict visibly more CPU
	// per delivered megabyte than DAMN.
	strictCost := groups["strict"][5].Res.CPUPerMB
	damnCost := groups["damn"][5].Res.CPUPerMB
	if strictCost <= 1.3*damnCost {
		t.Errorf("strict CPU under loss %.2f µs/MB not visibly above damn's %.2f µs/MB",
			strictCost, damnCost)
	}
	// The chaos column survived: goodput under the uniform schedule.
	for _, r := range rows {
		if r.Chaos && r.Res.GoodputGbps <= 0 {
			t.Errorf("%s: no goodput under chaos schedule: %+v", r.Res.Scheme, r.Res)
		}
	}
	out := RenderLoss(rows)
	for _, want := range []string{"damn", "strict", "recov@1%", "chaos Gb/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestLossParallelMatchesSerial: the loss figure must be byte-identical for
// any worker count, and exactly replayable with the same fault seed.
func TestLossParallelMatchesSerial(t *testing.T) {
	skipInShort(t)
	parallelMatchesSerial(t, "loss", Options{Quick: true, FaultSeed: 7})
}
