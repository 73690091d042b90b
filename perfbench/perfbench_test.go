package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/asplos18/damn/internal/sim"
)

// TestMain lets the test binary stand in for the benchmark binary in the
// cold set-ups a smoke run starts (perfbench --setup-only ...).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-only" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, pm int
		ok    bool
	}{
		{1, 500, false}, {19, 500, false}, {20, 500, true}, {39, 500, true},
		{40, 750, true}, {999, 750, true}, {1000, 990, true},
	} {
		pm, ok := tailPercentile(tc.n)
		if pm != tc.pm || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, pm, ok, tc.pm, tc.ok)
		}
		if ok && tc.n-rank(pm, tc.n) < 10 {
			t.Errorf("n=%d: %s leaves %d samples beyond it", tc.n, pmName(pm), tc.n-rank(pm, tc.n))
		}
	}
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if got := percentile(s, 750); got != 75 {
		t.Errorf("p75 of 1..100 = %v, want 75", got)
	}
	if got := median(s); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50 (nearest rank)", got)
	}
	if s[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// TestCycleMedian checks that op_s_p50 reads the central configuration of
// a cycle, not the slowest operation below the gap between configurations.
func TestCycleMedian(t *testing.T) {
	var secs []float64
	for c := 0; c < 5; c++ {
		secs = append(secs, 1, 2+float64(c)/10, 10, 11)
	}
	secs[5] = 3 // one slow operation of the second configuration
	if got := cycleMedian(secs, 4); got != 2.3 {
		t.Errorf("cycleMedian = %v, want 2.3", got)
	}
	if got := median(secs); got != 3 {
		t.Errorf("pooled median = %v, want 3 (the outlier)", got)
	}
}

// TestReferenceSpeed checks that host times are scaled by refNominal over
// the kernel's median, that simulated metrics are not, and that the kernel
// does the same work every time without allocating.
func TestReferenceSpeed(t *testing.T) {
	// A host at half the reference speed: the kernel takes twice refNominal.
	slow := refNominal.Seconds() * 2
	sp := speed{samples: []float64{slow, slow / 10, slow, slow * 9}}
	if got := sp.scale(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scale = %v, want 0.5", got)
	}
	w := workload{configs: []config{{name: "damn-RX"}, {name: "iommu-off-RX"}},
		damn: []string{"damn-RX"}, goodput: []string{"damn-RX"}, off: []string{"iommu-off-RX"}}
	refs := map[string]result{"damn-RX": {Gbps: 60}, "iommu-off-RX": {Gbps: 80}}
	var ops []timed
	for i := 0; i < 4; i++ {
		ops = append(ops, timed{cfg: w.configs[i%2], host: 2 * time.Second, res: result{SimTime: 100 * sim.Millisecond}})
	}
	got := map[string]float64{}
	for _, m := range endToEnd(w, ops, refs, 0.7, 10, sp.scale()) {
		got[m.Name] = m.Value
	}
	for name, want := range map[string]float64{
		"op_s_p50": 1, "op_s_tail": 1, "sim_ms_per_host_s": 100, "setup_s": 0.7, "sim_gbps_damn": 60,
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}

	k1, k2 := newRefKernel(), newRefKernel()
	k1.run()
	k2.run()
	if k1.sink != k2.sink || k1.sink == 0 {
		t.Errorf("two kernels did different work: %d, %d", k1.sink, k2.sink)
	}
	if a := testing.AllocsPerRun(5, func() { k1.run() }); a != 0 {
		t.Errorf("the reference kernel allocates: %v per run", a)
	}
}

// TestRatioBases checks that the per-MB ratios divide by the MB through the
// NICs of the DAMN operations only, and the hit ratios by all lookups.
func TestRatioBases(t *testing.T) {
	w := workload{
		configs: []config{{name: "damn-RX", group: "damn-RX"}, {name: "strict-RX", group: "strict-RX"}},
		damn:    []string{"damn-RX"}, goodput: []string{"damn-RX"}, off: []string{"strict-RX"},
	}
	// Machines assembled inside a topology, as on the cluster: two each.
	damnOp := timed{cfg: w.configs[0], o: &op{assembled: 2}, res: result{c: counts{
		Translations: 3000, IOTLBHits: 900, IOTLBMisses: 100, Invalidations: 20,
		Maps: 500, CyclesMap: 4000, MagHits: 60, DepotHits: 30, Builds: 10,
		RXStalls: 7, NICRXBytes: 1_500_000, NICTXBytes: 500_000,
	}}}
	// A non-DAMN operation whose counts must not leak into the ratios.
	strictOp := timed{cfg: w.configs[1], o: &op{assembled: 2}, res: result{c: counts{
		Translations: 1e6, IOTLBHits: 1, IOTLBMisses: 1e6, NICRXBytes: 1e9,
	}}}
	got := map[string]float64{}
	prof := &layerProfile{NS: map[string]float64{"mem": 9e6}, AssembleNS: 12e6}
	for _, m := range perLayer(w, []timed{damnOp, strictOp, damnOp}, nil, layerInputs{prof: prof}) {
		got[m.Name] = m.Value
	}
	for name, want := range map[string]float64{
		"iommu.translations_per_mb":  6000.0 / 4,
		"iommu.iotlb_hit_ratio":      0.9,
		"iommu.invalidations_per_mb": 40.0 / 4,
		"dmaapi.maps_per_mb":         1000.0 / 4,
		"perf.cycles_dma_map_per_mb": 8000.0 / 4,
		"damn.magazine_hit_ratio":    0.6,
		"damn.chunk_builds_per_op":   10,
		"device.rx_stalls_per_mb":    14.0 / 4,
		"topo.epochs_per_op":         0, // no incast operations: an empty base reads 0
		"testbed.assemble_ms":        2, // profile time per machine, not per operation
		"host_ms.mem":                3, // per operation
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}

	refs := map[string]result{
		"damn-RX":   {Gbps: 60, BusyPS: 2e12, DataMB: 1000},
		"strict-RX": {Gbps: 80},
	}
	gbps, cpu, gap := simSummary(w, refs)
	if gbps != 60 || cpu != 2000 || gap != 25 {
		t.Errorf("simSummary = %v Gb/s, %v us/MB, %v %%; want 60, 2000, 25", gbps, cpu, gap)
	}
}

// TestChecks covers the per-operation checks a clean run never trips.
func TestChecks(t *testing.T) {
	if err := clean(counts{}); err != nil {
		t.Errorf("clean counts: %v", err)
	}
	for _, c := range []counts{{Blocked: 1}, {NICFaults: 1}, {PublishFaults: 1}, {WrongCore: 1}, {Clamps: 1}} {
		if clean(c) == nil {
			t.Errorf("clean(%+v) passed", c)
		}
	}
	b := &bench{
		w: workload{order: []ordering{{"damn-RX", "iommu-off-RX", 0.9, false}, {"damn-RX", "strict-RX", 1, false}}},
		refs: map[string]result{
			"damn-RX":      {Gbps: 65, c: counts{Events: 100}},
			"iommu-off-RX": {Gbps: 67},
			"strict-RX":    {Gbps: 44},
		},
	}
	if err := b.againstRefs("damn-RX", b.refs["damn-RX"]); err != nil {
		t.Errorf("exact repeat: %v", err)
	}
	if b.againstRefs("damn-RX", result{Gbps: 65, c: counts{Events: 101}}) == nil {
		t.Error("a repeat with a different event count passed")
	}
	if b.orderings("damn-RX", result{Gbps: 60}) == nil {
		t.Error("damn below 90 % of iommu-off passed")
	}
	if b.orderings("damn-RX", result{Gbps: 44}) == nil {
		t.Error("damn not above strict passed")
	}
}

func TestAttribute(t *testing.T) {
	const p = repoPrefix + "internal/"
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", p + "netstack.(*Kernel).CopyToUser", p + "workloads.RunNetperf"}, "netstack"},
		{[]string{"runtime.mallocgc", p + "sim.push[go.shape.*" + p + "sim.event]", p + "sim.(*Engine).Run"}, "sim"},
		{[]string{p + "mem.(*Memory).Zero.func1", p + "testbed.NewMachine"}, "mem"},
		{[]string{p + "tenant.(*Table).CheckRing", p + "netstack.(*Driver).poll"}, "other"},
		{[]string{"sort.Float64s", repoPrefix + "perfbench.percentile"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.mPark"}, "other"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestAddTraces(t *testing.T) {
	const p = repoPrefix + "internal/"
	text := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 45000000ns (4.50%)
-----------+-------------------------------------------------------
  30000000ns   runtime.memmove
             ` + p + `mem.(*Memory).Write (inline)
             ` + p + `testbed.NewMachine
-----------+-------------------------------------------------------
  10000000ns   ` + p + `iommu.(*IOMMU).Translate
             ` + p + `testbed.(*Machine).Close
-----------+-------------------------------------------------------
   5000000ns   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	lp := newLayerProfile()
	if err := lp.addTraces(text); err != nil {
		t.Fatal(err)
	}
	for l, ns := range map[string]float64{"mem": 30e6, "iommu": 10e6, "gc": 5e6} {
		if lp.NS[l] != ns {
			t.Errorf("%s: %v ns, want %v", l, lp.NS[l], ns)
		}
	}
	if lp.Stacks != 3 || lp.AssembleNS != 30e6 || lp.CloseNS != 10e6 {
		t.Errorf("%d stacks, assemble %v ns, close %v ns; want 3, 3e7, 1e7", lp.Stacks, lp.AssembleNS, lp.CloseNS)
	}
	if newLayerProfile().addTraces("-----------+---\n   oops\n") == nil {
		t.Error("a stack without a sample value passed")
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSON checks that BENCHMARK.json describes these workloads
// and stays within the format's limits.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	ws := allWorkloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for _, m := range append(append([]benchMetric(nil), b.EndToEnd...), b.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s needs the largest bound: %v, largest %v", setupBound, maxBound)
	}
	for _, m := range b.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// TestSmoke runs one cycle of each workload, untraced and traced, and
// checks that every metric BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for _, w := range allWorkloads() {
		for _, trace := range []string{"0", "1"} {
			want := b.EndToEnd
			if trace == "1" {
				want = b.PerLayer
			}
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0",
				"--trace", trace, "--trace-out", traceOut}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out output
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&out); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 2*len(w.configs) {
				t.Errorf("%s trace %s: correct %v, %d failed of %d", w.name, trace, out.Correct, out.Failed, out.Attempted)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: %s = %+v, want unit %q", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if trace == "1" {
				data, err := os.ReadFile(traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					TraceEvents []traceEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) < 2 {
					t.Errorf("%s: trace file: %v, %d events", w.name, err, len(tr.TraceEvents))
				}
				var hostMS float64
				for _, l := range hostLayers {
					hostMS += out.Metrics["host_ms."+l].Value
				}
				if hostMS <= 0 {
					t.Errorf("%s: no host CPU attributed from the profiles", w.name)
				}
			} else {
				for _, name := range []string{"sim_gbps_damn", "sim_ms_per_host_s", "op_s_p50", "setup_s", "peak_rss_mb"} {
					if out.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, out.Metrics[name].Value)
					}
				}
			}
		}
	}
}
