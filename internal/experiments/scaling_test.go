package experiments

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// TestScalingMonotoneAndDivergent pins the figure's acceptance shape:
// throughput grows monotonically with core count for iommu-off and DAMN,
// and strict — serialized by its invalidation lock — has the flattest
// curve (worst 1→16-core speedup) of all schemes.
func TestScalingMonotoneAndDivergent(t *testing.T) {
	rows, err := Scaling(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	curves := map[string][]float64{}
	for _, r := range rows {
		curves[r.Scheme] = append(curves[r.Scheme], r.RXGbps)
	}
	for _, scheme := range []string{string(testbed.SchemeOff), string(testbed.SchemeDAMN)} {
		g := curves[scheme]
		for i := 1; i < len(g); i++ {
			if g[i] <= g[i-1] {
				t.Errorf("%s throughput not monotone with cores: %v", scheme, g)
			}
		}
	}
	speedup := func(g []float64) float64 { return g[len(g)-1] / g[0] }
	strictX := speedup(curves[string(testbed.SchemeStrict)])
	for scheme, g := range curves {
		if testbed.IsBypass(testbed.Scheme(scheme)) {
			// Bypass saturates the wire at one core and the PCIe ceiling
			// at two — its curve is flat because it is ceiling-bound, not
			// lock-bound, so the lock-contention comparison excludes it.
			continue
		}
		if scheme != string(testbed.SchemeStrict) && speedup(g) <= strictX {
			t.Errorf("strict (%.2fx) is not the flattest curve: %s scales %.2fx", strictX, scheme, speedup(g))
		}
	}
	for _, scheme := range testbed.BypassSchemes {
		g := curves[string(scheme)]
		if len(g) == 0 {
			t.Errorf("scaling rows missing bypass scheme %s", scheme)
			continue
		}
		for i, v := range g {
			if v < 99 {
				t.Errorf("%s at %d cores delivers %.1f Gb/s; polling path should hold the wire/PCIe ceiling", scheme, scalingCores[i], v)
			}
		}
	}
}

// TestScalingFlowSelectionDeterministic: flow selection is a pure function
// of the Toeplitz key and ring count — two machines built alike get the
// same flows on the same rings, with every ring covered.
func TestScalingFlowSelectionDeterministic(t *testing.T) {
	build := func() ([]int, []int) {
		ma, err := testbed.NewMachine(testbed.MachineConfig{
			Scheme: testbed.SchemeDAMN, Model: perf.Default28Core(),
			MemBytes: 256 << 20, Seed: 1, RingSize: 8, Cores: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ma.Close()
		perRing := make([]int, ma.NIC.Cfg.Rings)
		var rings []int
		for flow := 1; len(rings) < 2*len(perRing); flow++ {
			g := workloads.NewRSSGenerator(ma, 0, flow, ma.Model.SegmentSize)
			if perRing[g.Ring()] >= 2 {
				continue
			}
			perRing[g.Ring()]++
			rings = append(rings, g.Ring())
		}
		return rings, perRing
	}
	r1, c1 := build()
	r2, c2 := build()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("ring assignment differs across identical machines:\n%v\n%v", r1, r2)
	}
	for ring, n := range c1 {
		if n != 2 {
			t.Errorf("ring %d got %d flows, want 2", ring, n)
		}
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("per-ring flow counts differ: %v vs %v", c1, c2)
	}
}

// TestScalingParallelMatchesSerial is the determinism contract extended
// through RSS: the same seed and flow set must hash to identical ring
// assignments whatever the host-side worker count, so the scaling figure is
// byte-identical for serial, parallel, and repeated runs.
func TestScalingParallelMatchesSerial(t *testing.T) {
	parallelMatchesSerial(t, "scaling", Options{Quick: true, Seed: 2})
}
