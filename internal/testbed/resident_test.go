package testbed_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// allocatedExtentBytes rounds the machine's allocated frames (every frame
// not inside a free buddy block, the reserved frame 0 included) up to the
// extents that contain them.
func allocatedExtentBytes(m *mem.Memory) int64 {
	const pagesPerExtent = mem.ExtentSize / mem.PageSize
	seen := map[mem.PFN]bool{}
	for pfn := mem.PFN(0); pfn < mem.PFN(m.NumPages()); {
		if p := m.PageOf(pfn); p.Has(mem.FlagBuddy) {
			pfn += 1 << p.Order
			continue
		}
		seen[pfn/pagesPerExtent] = true
		pfn++
	}
	return int64(len(seen)) * mem.ExtentSize
}

// quickNetperf builds a machine under scheme with memBytes of RAM and runs
// a short single-core RX+TX netperf job on it.
func quickNetperf(scheme testbed.Scheme, memBytes int64) (*testbed.Machine, workloads.NetperfResult, error) {
	ma, err := testbed.NewMachine(testbed.MachineConfig{Scheme: scheme, MemBytes: memBytes, Cores: 2})
	if err != nil {
		return nil, workloads.NetperfResult{}, err
	}
	if got := ma.Mem.ResidentBytes(); got != 0 {
		return nil, workloads.NetperfResult{}, fmt.Errorf("%s: fresh machine holds %d resident bytes, want 0", scheme, got)
	}
	res, err := workloads.RunNetperf(workloads.NetperfConfig{
		Machine: ma, RXCores: []int{0}, TXCores: []int{1},
		Warmup: sim.Millisecond, Duration: 2 * sim.Millisecond,
	})
	return ma, res, err
}

// TestMachineResidency guards host memory: a fresh 2 GiB machine holds no
// resident RAM, and after a run only extents that hold allocated frames.
func TestMachineResidency(t *testing.T) {
	for _, scheme := range []testbed.Scheme{testbed.SchemeOff, testbed.SchemeStrict, testbed.SchemeDAMN} {
		ma, _, err := quickNetperf(scheme, 2<<30)
		if err != nil {
			t.Fatal(err)
		}
		got, limit := ma.Mem.ResidentBytes(), allocatedExtentBytes(ma.Mem)
		if got == 0 || got > limit {
			t.Errorf("%s: %d resident bytes after netperf, want 1..%d", scheme, got, limit)
		}
		ma.Close()
		if got := ma.Mem.ResidentBytes(); got != 0 {
			t.Errorf("%s: closed machine holds %d resident bytes", scheme, got)
		}
	}
}

// TestConcurrentMachinesShareExtentPool builds, drives and closes machines
// from several goroutines at once. They share the mem package's extent
// pool, so every run but the first lands on recycled extents; each must
// still reproduce its scheme's serial result exactly. Under -race this
// also checks the pool's locking.
func TestConcurrentMachinesShareExtentPool(t *testing.T) {
	schemes := []testbed.Scheme{testbed.SchemeDAMN, testbed.SchemeStrict, testbed.SchemeShadow}
	want := map[testbed.Scheme]workloads.NetperfResult{}
	for _, scheme := range schemes {
		ma, res, err := quickNetperf(scheme, 256<<20)
		if err != nil {
			t.Fatal(err)
		}
		ma.Close()
		want[scheme] = res
	}
	var wg sync.WaitGroup
	for _, scheme := range schemes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				ma, res, err := quickNetperf(scheme, 256<<20)
				if err != nil {
					t.Error(err)
					return
				}
				ma.Close()
				if res != want[scheme] {
					t.Errorf("%s round %d: %+v, want the serial %+v", scheme, round, res, want[scheme])
				}
			}
		}()
	}
	wg.Wait()
}
