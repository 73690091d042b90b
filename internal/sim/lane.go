package sim

// Lane is a completion queue for a caller whose events mostly arrive in
// non-decreasing time order, such as a device's DMA completions (each is the
// max of monotone bandwidth reservations). The lane keeps its events in a
// FIFO and only its head sits in the engine's heap, so a device with
// thousands of completions in flight costs the heap one entry instead of
// thousands.
//
// Execution order is exactly what Engine.At would have produced. Lane.At
// draws seq from the engine counter at call time, so every lane event
// carries the same (at, seq) key a plain At would have given it. The FIFO is
// sorted by that key (times are non-decreasing and seq increases), so the
// head is the lane's minimum and the heap's minimum is still the global
// minimum. When the head pops, the next event enters the heap under its own
// original key. A call whose time is earlier than the lane's tail would
// break the FIFO order, so it becomes an ordinary heap event instead.
//
// Lane events cannot be cancelled. Engine.Pending counts them.
type Lane struct {
	e  *Engine
	ev event // pinned head event, in the heap while the lane is non-empty
	// q is a power-of-two ring buffer of n items starting at head.
	q    []laneItem
	head int
	n    int
}

type laneItem struct {
	at  Time
	seq uint64
	fn  func()
}

// NewLane returns an empty lane on the engine.
func (e *Engine) NewLane() *Lane {
	l := &Lane{e: e}
	l.ev.pinned = true
	l.ev.lane = l
	return l
}

// At schedules fn at absolute time t (>= now; earlier times clamp to now),
// exactly as Engine.At would order it.
func (l *Lane) At(t Time, fn func()) {
	e := l.e
	if t < e.now {
		t = e.now
	}
	mask := len(l.q) - 1
	if l.n > 0 && t < l.q[(l.head+l.n-1)&mask].at {
		e.At(t, fn)
		return
	}
	if l.n == len(l.q) {
		l.grow()
		mask = len(l.q) - 1
	}
	e.seq++
	l.q[(l.head+l.n)&mask] = laneItem{at: t, seq: e.seq, fn: fn}
	l.n++
	if l.n == 1 {
		e.events.push(slot{at: t, seq: e.seq, ev: &l.ev})
		return
	}
	e.laneQueued++
}

// advance pops the head item the engine just took off the heap, arms the
// next item under its original key, and returns the popped callback.
func (l *Lane) advance() func() {
	mask := len(l.q) - 1
	it := &l.q[l.head]
	fn := it.fn
	*it = laneItem{}
	l.head = (l.head + 1) & mask
	l.n--
	if l.n == 0 {
		return fn
	}
	next := &l.q[l.head]
	l.e.laneQueued--
	l.e.events.push(slot{at: next.at, seq: next.seq, ev: &l.ev})
	return fn
}

func (l *Lane) grow() {
	q := make([]laneItem, max(8, 2*len(l.q)))
	for i := 0; i < l.n; i++ {
		q[i] = l.q[(l.head+i)&(len(l.q)-1)]
	}
	l.q = q
	l.head = 0
}
