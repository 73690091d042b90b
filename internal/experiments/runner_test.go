package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asplos18/damn/internal/stats"
)

// capture records every OnStats emission in arrival order.
type capture struct {
	mu    sync.Mutex
	emits []emission
}

func (c *capture) opts(base Options) Options {
	base.OnStats = func(label string, snap stats.Snapshot) {
		c.mu.Lock()
		c.emits = append(c.emits, emission{label, snap})
		c.mu.Unlock()
	}
	return base
}

func (c *capture) labels() []string {
	out := make([]string, len(c.emits))
	for i, e := range c.emits {
		out[i] = e.label
	}
	return out
}

// TestRunJobsOrderAndEmissions drives the runner with synthetic jobs that
// finish out of order and checks the determinism contract directly: results
// and stats emissions come back in declaration order, bit-identical to a
// serial run.
func TestRunJobsOrderAndEmissions(t *testing.T) {
	const n = 32
	run := func(parallel int) ([]int, []string, error) {
		var c capture
		opts := c.opts(Options{Parallel: parallel})
		results, err := runJobs(opts, n, func(i int, jopts Options) (int, error) {
			// Later jobs finish first: the runner must reorder.
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			jopts.OnStats(fmt.Sprintf("job%d/a", i), stats.Snapshot{})
			jopts.OnStats(fmt.Sprintf("job%d/b", i), stats.Snapshot{})
			return i * i, nil
		})
		return results, c.labels(), err
	}

	serialRes, serialEmits, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	parRes, parEmits, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRes, parRes) {
		t.Errorf("parallel results diverge:\nserial   %v\nparallel %v", serialRes, parRes)
	}
	if !reflect.DeepEqual(serialEmits, parEmits) {
		t.Errorf("parallel emission order diverges:\nserial   %v\nparallel %v", serialEmits, parEmits)
	}
	for i, r := range parRes {
		if r != i*i {
			t.Fatalf("result %d = %d, want %d", i, r, i*i)
		}
	}
}

// TestRunJobsErrorInJobOrder: the error surfaced is the one the serial run
// would have hit first, with the emissions of the preceding jobs delivered.
func TestRunJobsErrorInJobOrder(t *testing.T) {
	errA, errB := errors.New("job 5 failed"), errors.New("job 20 failed")
	var c capture
	opts := c.opts(Options{Parallel: 8})
	_, err := runJobs(opts, 32, func(i int, jopts Options) (int, error) {
		time.Sleep(time.Duration(32-i) * 50 * time.Microsecond)
		switch i {
		case 5:
			return 0, errA
		case 20:
			return 0, errB
		}
		jopts.OnStats(fmt.Sprintf("job%d", i), stats.Snapshot{})
		return i, nil
	})
	if err != errA {
		t.Fatalf("got error %v, want the first job's error %v", err, errA)
	}
	want := []string{"job0", "job1", "job2", "job3", "job4"}
	if !reflect.DeepEqual(c.labels(), want) {
		t.Errorf("emissions before the error: %v, want %v", c.labels(), want)
	}
}

// TestRunJobsConcurrencyAndTracerClamp checks that jobs genuinely overlap
// with Parallel > 1 and that a shared Tracer forces a serial run.
func TestRunJobsConcurrencyAndTracerClamp(t *testing.T) {
	maxInFlight := func(opts Options) int32 {
		var inFlight, peak int32
		_, err := runJobs(opts, 16, func(i int, jopts Options) (int, error) {
			cur := atomic.AddInt32(&inFlight, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&inFlight, -1)
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return atomic.LoadInt32(&peak)
	}
	if peak := maxInFlight(Options{Parallel: 4}); peak < 2 {
		t.Errorf("Parallel=4 never overlapped jobs (peak %d)", peak)
	}
	if peak := maxInFlight(Options{Parallel: 4, Tracer: stats.NewTracer()}); peak != 1 {
		t.Errorf("shared tracer must force serial, saw %d jobs in flight", peak)
	}
}

// TestTable1ParallelMatchesSerial reproduces one real figure at several
// worker counts; rows and rendered text must be byte-identical. Runs in
// -short mode too, so the -race CI pass exercises the parallel path.
func TestTable1ParallelMatchesSerial(t *testing.T) {
	parallelMatchesSerial(t, "table1", Options{Quick: true})
}

// TestSuiteParallelMatchesSerial is the acceptance test for the suite
// damnbench prints: RunSuite with Parallel=1 and Parallel=4 must both print
// exactly the paper entries' goldens in catalog order, their counters must
// be the goldens' counters, and the stats emissions must be deep-equal in
// content and order between the two runs.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	skipInShort(t)
	var wantText strings.Builder
	var wantCounts []string
	for _, fig := range Catalog() {
		if !fig.Paper {
			continue
		}
		text, err := os.ReadFile(filepath.Join(goldenDir, fig.Name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		wantText.Write(text)
		counts, err := os.ReadFile(filepath.Join(goldenDir, fig.Name+".counters"))
		if err != nil {
			t.Fatal(err)
		}
		if c := strings.TrimSuffix(string(counts), "\n"); c != "" {
			wantCounts = append(wantCounts, strings.Split(c, "\n")...)
		}
	}
	sort.Strings(wantCounts)
	want := strings.Join(wantCounts, "\n") + "\n"

	run := func(parallel int) []emission {
		var c capture
		opts := goldenOpts
		opts.Parallel = parallel
		out, err := RunSuite(c.opts(opts))
		if err != nil {
			t.Fatalf("suite with Parallel=%d: %v", parallel, err)
		}
		if out != wantText.String() {
			t.Errorf("suite output with Parallel=%d differs from the goldens\n%s", parallel, firstLineDiff(wantText.String(), out))
		}
		if got := counterLines(c.emits); got != want {
			t.Errorf("suite counters with Parallel=%d differ from the goldens (label counter old → new):\n%s", parallel, counterDiff(want, got, 20))
		}
		return c.emits
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Error("stats emissions differ between -parallel 1 and -parallel 4")
	}
}
