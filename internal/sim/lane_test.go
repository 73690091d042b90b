package sim

import (
	"math/rand"
	"testing"
)

// laneProgram is a random event program that schedules each event either
// through a lane (useLanes) or through Engine.At, with everything else
// identical. Its event times are small multiples of a nanosecond, so
// same-time ties between lane events, plain events and tickers are common.
type laneProgram struct {
	e        *Engine
	rng      *rand.Rand
	useLanes bool
	lanes    []*Lane
	tails    []Time // the generator's monotone time per lane
	budget   int
	nextID   int
	trace    []laneRec
	stops    []func()
	// compactions counts ticker storms after which the heap was smaller
	// than its pre-storm size plus the cancelled tickers.
	compactions int
}

type laneRec struct {
	id int
	at Time
}

func newLaneProgram(seed int64, useLanes bool) *laneProgram {
	e := NewEngine(1)
	p := &laneProgram{e: e, rng: rand.New(rand.NewSource(seed)), useLanes: useLanes, budget: 4000}
	for i := 0; i < 3; i++ {
		p.lanes = append(p.lanes, e.NewLane())
		p.tails = append(p.tails, 0)
	}
	return p
}

func (p *laneProgram) schedule() {
	if p.budget == 0 {
		return
	}
	p.budget--
	id := p.nextID
	p.nextID++
	fn := func() { p.fire(id) }
	now := p.e.Now()
	j := p.rng.Intn(len(p.lanes))
	switch r := p.rng.Intn(10); {
	case r < 6: // monotone lane traffic, ties included
		t := max(p.tails[j], now) + Time(p.rng.Intn(3))*Nanosecond
		p.tails[j] = t
		p.route(j, t, fn)
	case r < 8: // out of order relative to the lane's tail, or in the past
		p.route(j, now+Time(p.rng.Intn(6)-2)*Nanosecond, fn)
	default:
		p.e.At(now+Time(p.rng.Intn(4))*Nanosecond, fn)
	}
}

func (p *laneProgram) route(j int, t Time, fn func()) {
	if p.useLanes {
		p.lanes[j].At(t, fn)
		return
	}
	p.e.At(t, fn)
}

func (p *laneProgram) fire(id int) {
	p.trace = append(p.trace, laneRec{id, p.e.Now()})
	for n := p.rng.Intn(4); n > 0; n-- {
		p.schedule()
	}
	switch r := p.rng.Intn(40); {
	case r == 0: // a ticker that runs until some event stops it
		tid := -1 - p.nextID
		p.nextID++
		p.stops = append(p.stops, p.e.Every(Time(1+p.rng.Intn(3))*Nanosecond, func() {
			p.trace = append(p.trace, laneRec{tid, p.e.Now()})
		}))
	case r == 1 && len(p.stops) > 0:
		// A stop handle must not outlive its ticker (a recycled ticker
		// would take the stale call), so each is called once and dropped.
		k := p.rng.Intn(len(p.stops))
		p.stops[k]()
		p.stops = append(p.stops[:k], p.stops[k+1:]...)
	case r == 2: // a start/stop storm: cancelled entries force compaction
		before := len(p.e.events)
		const storm = 40
		for i := 0; i < storm; i++ {
			p.e.Every(Nanosecond, func() {})()
		}
		if len(p.e.events) < before+storm {
			p.compactions++
		}
	}
}

// run drives the program through fixed Run windows, recording Pending()
// after each, then stops every ticker and drains.
func (p *laneProgram) run() []int {
	for i := 0; i < 16; i++ {
		p.schedule()
	}
	var pending []int
	for w := Time(1); w <= 600; w++ {
		p.e.Run(w * 5 * Nanosecond / 2)
		pending = append(pending, p.e.Pending())
	}
	for _, stop := range p.stops {
		stop()
	}
	p.e.RunUntilIdle()
	return append(pending, p.e.Pending())
}

// TestLaneMatchesAt checks that routing events through lanes changes
// nothing observable: the (id, time) execution trace, Pending() after every
// Run window and the engine's sequence counter are identical to scheduling
// every event with Engine.At.
func TestLaneMatchesAt(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 20; seed++ {
		ref, lane := newLaneProgram(seed, false), newLaneProgram(seed, true)
		refPending, lanePending := ref.run(), lane.run()
		for i := range refPending {
			if refPending[i] != lanePending[i] {
				t.Fatalf("seed %d: Pending after window %d = %d with lanes, %d with At", seed, i, lanePending[i], refPending[i])
			}
		}
		if len(ref.trace) != len(lane.trace) {
			t.Fatalf("seed %d: %d events ran with lanes, %d with At", seed, len(lane.trace), len(ref.trace))
		}
		for i := range ref.trace {
			if ref.trace[i] != lane.trace[i] {
				t.Fatalf("seed %d: event %d = %+v with lanes, %+v with At", seed, i, lane.trace[i], ref.trace[i])
			}
		}
		if ref.e.seq != lane.e.seq {
			t.Fatalf("seed %d: seq counter %d with lanes, %d with At", seed, lane.e.seq, ref.e.seq)
		}
		if len(ref.trace) < 1000 {
			t.Fatalf("seed %d: program ran only %d events", seed, len(ref.trace))
		}
		compactions += lane.compactions
	}
	if compactions == 0 {
		t.Fatal("no ticker storm triggered a compaction")
	}
}

// TestLaneSteadyStateAllocs checks that a lane's schedule/run cycle reuses
// its ring buffer and pinned head event: 0 allocs after warm-up.
func TestLaneSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	l := e.NewLane()
	fn := func() {}
	at := Time(0)
	step := func() {
		at += 4 * Nanosecond
		for i := Time(0); i < 4; i++ {
			l.At(at+i*Nanosecond, fn)
		}
		e.Run(at + 2*Nanosecond)
	}
	step() // warm the ring buffer
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("lane schedule/run steady state allocates %.1f allocs/op, want 0", avg)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

// TestLanePendingCountsQueued checks Pending counts events queued behind a
// lane's head, and that an out-of-order call falls back to the heap.
func TestLanePendingCountsQueued(t *testing.T) {
	e := NewEngine(1)
	l := e.NewLane()
	var got []int
	for i, at := range []Time{10, 20, 20, 15, 30} {
		i := i
		l.At(at*Nanosecond, func() { got = append(got, i) })
	}
	if p := e.Pending(); p != 5 {
		t.Fatalf("Pending = %d, want 5", p)
	}
	if len(e.events) != 2 {
		t.Fatalf("heap holds %d entries, want 2 (lane head + out-of-order fallback)", len(e.events))
	}
	e.RunUntilIdle()
	want := []int{0, 3, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane order %v, want %v", got, want)
		}
	}
	if p := e.Pending(); p != 0 {
		t.Fatalf("Pending = %d after drain, want 0", p)
	}
}

func TestEveryRejectsNonPositivePeriod(t *testing.T) {
	for _, period := range []Time{0, -Nanosecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Every(%v) did not panic", period)
				}
			}()
			NewEngine(1).Every(period, func() {})
		}()
	}
}
