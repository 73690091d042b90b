package experiments

import (
	"strings"
	"testing"

	"github.com/asplos18/damn/internal/testbed"
)

// TestClusterFigureShape: one row per scheme, every row moving traffic on
// both the incast and the memcached leg, and the render carrying every
// column the figure promises.
func TestClusterFigureShape(t *testing.T) {
	skipInShort(t)
	rows, err := Cluster(Options{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(testbed.AllSchemes) {
		t.Fatalf("got %d rows, want %d", len(rows), len(testbed.AllSchemes))
	}
	for i, r := range rows {
		if r.Scheme != string(testbed.AllSchemes[i]) {
			t.Errorf("row %d is %s, want %s", i, r.Scheme, testbed.AllSchemes[i])
		}
		if r.Incast.Gbps <= 0 || r.Incast.P99 <= 0 {
			t.Errorf("%s: incast moved nothing: %+v", r.Scheme, r.Incast)
		}
		if r.MC.KOps <= 0 || r.MC.P99 <= 0 {
			t.Errorf("%s: memcached cluster served nothing: %+v", r.Scheme, r.MC)
		}
		if r.Incast.Epochs == 0 {
			t.Errorf("%s: topology ran zero epochs", r.Scheme)
		}
	}
	out := RenderCluster(rows)
	for _, want := range []string{"incast Gb/s", "incast p99", "mc kops/s", "mc p99", "damn", "strict"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestClusterFigureParallelMatchesSerial is the figure-level identity bar:
// the cluster rows — and the rendered text — must be byte-identical
// whether the topologies advance serially or with 4 host workers per
// topology and 4 figure-level workers, and exactly replayable.
func TestClusterFigureParallelMatchesSerial(t *testing.T) {
	skipInShort(t)
	parallelMatchesSerial(t, "cluster", Options{Quick: true, Seed: 5})
}
