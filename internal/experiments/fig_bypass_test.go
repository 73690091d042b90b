package experiments

import (
	"testing"

	"github.com/asplos18/damn/internal/testbed"
)

// TestBypassShape pins the figure's measured safety verdicts — attack
// probes must land on bypass-raw, stay inside bypass-prot's registered pool,
// and find the TOCTTOU window open on both — and that the interrupt-driven
// schemes burn no idle CPU. (The golden harness pins the rest of the rows.)
func TestBypassShape(t *testing.T) {
	rows, err := Bypass(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]BypassRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	raw := byScheme[string(testbed.SchemeBypassRaw)]
	prot := byScheme[string(testbed.SchemeBypassProt)]
	if raw.Subpage || raw.NoWindow {
		t.Errorf("bypass-raw measured safe (subpage %v, no-window %v); passthrough protects nothing", raw.Subpage, raw.NoWindow)
	}
	if !prot.Subpage {
		t.Error("bypass-prot pool confinement did not hold: probe outside the registered pool landed")
	}
	if prot.NoWindow {
		t.Error("bypass-prot measured window-free; permanent mappings cannot close the TOCTTOU window")
	}
	for _, scheme := range []string{string(testbed.SchemeOff), string(testbed.SchemeDAMN)} {
		if byScheme[scheme].IdleBurnCores != 0 {
			t.Errorf("%s shows idle burn %.2f cores; interrupt drivers spin nowhere", scheme, byScheme[scheme].IdleBurnCores)
		}
	}
}

// TestBypassParallelMatchesSerial extends the determinism contract to the
// kernel-bypass figure at a second seed: any worker count, repeated runs —
// the rows, the rendered table and the stats must be identical.
func TestBypassParallelMatchesSerial(t *testing.T) {
	parallelMatchesSerial(t, "bypass", Options{Quick: true, Seed: 2})
}
