// Allocation gate for the steady-state hot paths. The free-list pools
// (engine events, core tasks, NIC dispatch records, skbs, RX ring cookies,
// user-copy buffers) and the sharded DAMN fast path make every fixture in
// internal/hotpath allocation-free after its warm-up; these tests pin that
// property exactly — zero mallocs and zero bytes, counted without
// truncation — so a stray closure or boxed value on the hot path fails CI
// instead of silently costing wall clock again.
//
// The fixtures that have long had a gate test of their own keep it, under
// its name; TestHotPathZeroAlloc gates every other fixture, so each runs
// exactly once.
package damn_test

import (
	"strings"
	"testing"

	"github.com/asplos18/damn/internal/hotpath"
	"github.com/asplos18/damn/internal/testbed"
)

// ownTest names the fixtures gated by a test of their own below.
var ownTest = map[string]bool{
	"cancel_storm":        true,
	"damn_alloc_free":     true,
	"rx_skb_path":         true,
	"rx_skb_path_4ring":   true,
	"rx_skb_path_tenancy": true,
	"arq_retransmit":      true,
	"cap_check":           true,
	"bypass_poll_tick":    true,
	"vq_post_harvest":     true,
}

// gate runs the exact allocation gate on the named fixture.
func gate(t *testing.T, name string) {
	t.Helper()
	for _, c := range hotpath.Cases() {
		if c.Name == name {
			if err := hotpath.Gate(t, c); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no hot-path fixture %q", name)
}

func TestHotPathZeroAlloc(t *testing.T) {
	for _, c := range hotpath.Cases() {
		if ownTest[c.Name] || strings.HasPrefix(c.Name, "dma_map_unmap_") {
			continue
		}
		t.Run(c.Name, func(t *testing.T) { gate(t, c.Name) })
	}
}

func TestCancelStormZeroAlloc(t *testing.T)     { gate(t, "cancel_storm") }
func TestDamnAllocFreeZeroAlloc(t *testing.T)   { gate(t, "damn_alloc_free") }
func TestRXPathZeroAlloc(t *testing.T)          { gate(t, "rx_skb_path") }
func TestRXPathZeroAllocMultiRing(t *testing.T) { gate(t, "rx_skb_path_4ring") }
func TestRXPathZeroAllocTenancy(t *testing.T)   { gate(t, "rx_skb_path_tenancy") }
func TestRetransmitPathZeroAlloc(t *testing.T)  { gate(t, "arq_retransmit") }
func TestCapCheckZeroAlloc(t *testing.T)        { gate(t, "cap_check") }
func TestBypassPollZeroAlloc(t *testing.T)      { gate(t, "bypass_poll_tick") }

// TestBypassRXPathZeroAlloc gates vq_post_harvest, which the fixture marks
// as still allocating until the bypass poll pile-up is fixed; the gate then
// fails once it stops allocating, so the exemption cannot outlive the bug.
func TestBypassRXPathZeroAlloc(t *testing.T) { gate(t, "vq_post_harvest") }

func TestDmaMapUnmapZeroAlloc(t *testing.T) {
	for _, s := range testbed.AllSchemes {
		t.Run(string(s), func(t *testing.T) { gate(t, "dma_map_unmap_"+string(s)) })
	}
}
