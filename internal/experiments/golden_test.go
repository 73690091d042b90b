package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/asplos18/damn/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the testdata/quick goldens from this run")

// goldenDir holds, per catalog entry, the exact text `damnbench -quick -exp
// <name>` prints (<name>.golden) and every non-zero counter and gauge the
// entry emits through OnStats (<name>.counters).
const goldenDir = "testdata/quick"

// goldenOpts are the options the goldens record: damnbench -quick with its
// default seeds.
var goldenOpts = Options{Quick: true, Seed: 1, FaultSeed: 1}

// goldenRun is one run of a catalog entry: its typed rows, the text
// damnbench prints for it, and every OnStats emission in order.
type goldenRun struct {
	rows   any
	text   string
	emits  []emission
	counts string
}

func runGolden(t *testing.T, fig Figure, opts Options) goldenRun {
	t.Helper()
	var r goldenRun
	opts.OnStats = func(label string, snap stats.Snapshot) {
		r.emits = append(r.emits, emission{label, snap})
	}
	rows, text, err := fig.run(opts)
	if err != nil {
		t.Fatalf("%s at Parallel=%d: %v", fig.Name, opts.Parallel, err)
	}
	r.rows, r.text = rows, text+"\n" // damnbench prints each figure with Println
	r.counts = counterLines(r.emits)
	return r
}

// counterLines renders the sorted "label counter value" lines of every
// non-zero counter and gauge in the emissions.
func counterLines(emits []emission) string {
	var lines []string
	for _, em := range emits {
		for k, v := range em.snap.Counters {
			if v != 0 {
				lines = append(lines, fmt.Sprintf("%s %s %d", em.label, k, v))
			}
		}
		for k, v := range em.snap.Gauges {
			if v != 0 {
				lines = append(lines, fmt.Sprintf("%s %s %d", em.label, k, v))
			}
		}
	}
	if len(lines) == 0 {
		return ""
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// shortGolden lists the entries TestCatalogGolden still runs under -short,
// so the race pass keeps exercising the parallel runner: table1 and fig4
// (the cheapest entry with stats emissions to replay). The per-figure
// ParallelMatchesSerial tests that run in -short add scaling, recovery and
// bypass at other seeds.
var shortGolden = map[string]bool{"table1": true, "fig4": true}

// runBoth runs fig with opts at Parallel 1 and at Parallel 4 with 4
// topology workers, and fails unless the typed rows, the text and the full
// OnStats emission sequence are identical between the two runs.
func runBoth(t *testing.T, fig Figure, opts Options) (serial, par goldenRun) {
	t.Helper()
	serialOpts := opts
	serialOpts.Parallel, serialOpts.TopoWorkers = 1, 0
	serial = runGolden(t, fig, serialOpts)
	par = runGolden(t, fig, parallelOpts(opts))
	if !reflect.DeepEqual(serial.rows, par.rows) {
		t.Errorf("%s: typed rows differ between Parallel=1 and Parallel=4:\nserial   %+v\nparallel %+v", fig.Name, serial.rows, par.rows)
	}
	if serial.text != par.text {
		t.Errorf("%s: text differs between Parallel=1 and Parallel=4\n%s", fig.Name, firstLineDiff(serial.text, par.text))
	}
	if !reflect.DeepEqual(serial.emits, par.emits) {
		t.Errorf("%s: OnStats emission sequence differs between Parallel=1 and Parallel=4", fig.Name)
	}
	return serial, par
}

// parallelMatchesSerial is the determinism check for one catalog entry at
// options other than the goldens': serial and parallel runs must agree
// (runBoth), and a second parallel run must replay the first exactly.
func parallelMatchesSerial(t *testing.T, name string, opts Options) {
	t.Helper()
	fig, ok := catalogEntry(name)
	if !ok {
		t.Fatalf("no catalog entry %q", name)
	}
	_, par := runBoth(t, fig, opts)
	again := runGolden(t, fig, parallelOpts(opts))
	if !reflect.DeepEqual(par.rows, again.rows) || par.text != again.text || !reflect.DeepEqual(par.emits, again.emits) {
		t.Errorf("%s: two Parallel=4 runs with the same options differ\n%s", name, firstLineDiff(par.text, again.text))
	}
}

// parallelOpts is opts with 4 figure-level workers and 4 host workers per
// topology.
func parallelOpts(opts Options) Options {
	opts.Parallel, opts.TopoWorkers = 4, 4
	return opts
}

func catalogEntry(name string) (Figure, bool) {
	for _, fig := range Catalog() {
		if fig.Name == name {
			return fig, true
		}
	}
	return Figure{}, false
}

// TestCatalogGolden pins every catalog entry's quick output and counters to
// the committed goldens, serially and through the parallel runner (with a
// parallel topology engine), and requires the typed rows and the full
// OnStats emission sequence to be deep-equal between the two runs.
// `go test ./internal/experiments -run TestCatalogGolden -update` rewrites
// the goldens.
func TestCatalogGolden(t *testing.T) {
	for _, fig := range Catalog() {
		if testing.Short() && !shortGolden[fig.Name] {
			continue
		}
		t.Run(fig.Name, func(t *testing.T) {
			serial, par := runBoth(t, fig, goldenOpts)

			textPath := filepath.Join(goldenDir, fig.Name+".golden")
			countPath := filepath.Join(goldenDir, fig.Name+".counters")
			if *update {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				for path, data := range map[string]string{textPath: serial.text, countPath: serial.counts} {
					if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			wantText, err := os.ReadFile(textPath)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			wantCounts, err := os.ReadFile(countPath)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			for _, leg := range []struct {
				name string
				run  goldenRun
			}{{"Parallel=1", serial}, {"Parallel=4,TopoWorkers=4", par}} {
				if leg.run.text != string(wantText) {
					t.Errorf("%s: text differs from %s\n%s", leg.name, textPath, firstLineDiff(string(wantText), leg.run.text))
				}
				if leg.run.counts != string(wantCounts) {
					t.Errorf("%s: counters differ from %s (label counter old → new):\n%s", leg.name, countPath, counterDiff(string(wantCounts), leg.run.counts, 20))
				}
			}
		})
	}
}

// firstLineDiff names the first line where two texts diverge.
func firstLineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl || i >= len(w) || i >= len(g) {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, wl, gl)
		}
	}
	return "texts are equal"
}

// counterDiff lists up to max "label counter old → new" lines; the counter
// prefix (damn/, iommu/, dmaapi/ …) names the layer that moved.
func counterDiff(want, got string, max int) string {
	parse := func(s string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				m[line[:i]] = line[i+1:]
			}
		}
		return m
	}
	old, cur := parse(want), parse(got)
	keys := map[string]bool{}
	for k := range old {
		keys[k] = true
	}
	for k := range cur {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		o, ok1 := old[k]
		n, ok2 := cur[k]
		if !ok1 {
			o = "0"
		}
		if !ok2 {
			n = "0"
		}
		if o != n {
			diffs = append(diffs, fmt.Sprintf("  %s %s → %s", k, o, n))
		}
	}
	sort.Strings(diffs)
	total := len(diffs)
	if total > max {
		diffs = append(diffs[:max], fmt.Sprintf("  … and %d more", total-max))
	}
	return strings.Join(diffs, "\n")
}
