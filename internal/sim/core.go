package sim

import "fmt"

// Core models one CPU core as a FIFO work server in simulated time. Kernel
// work (syscall-side processing, softirq/interrupt handlers) is submitted as
// tasks; each task's callback executes functionally at its start time and
// charges cycle costs that advance the core's clock. CPU utilization is the
// accumulated busy time over the measurement window.
type Core struct {
	eng *Engine
	// ID is the core index; it doubles as the "cpu idx" field of DAMN's
	// encoded IOVAs (Figure 3 of the paper).
	ID int
	// Node is the NUMA node the core belongs to.
	Node int
	// Hz is the clock rate in cycles per second (the paper's testbed
	// server runs 2 GHz Broadwell cores).
	Hz float64

	freeAt Time
	busy   Time
	// queue is the FIFO run queue: qhead indexes the next task so popping
	// is O(1) without shifting; the slice resets when it drains and is
	// compacted when an append would grow it behind a non-zero qhead, so a
	// core that never drains keeps its array bounded by its peak depth.
	queue   []*Task
	qhead   int
	running bool
	// free recycles Task structs (and their bound dispatch closures) the
	// same way the engine recycles events: tasks live exactly one
	// dispatch, so the steady state allocates nothing per submission.
	free []*Task
}

// NewCore creates a core attached to the engine.
func NewCore(eng *Engine, id, node int, hz float64) *Core {
	if hz <= 0 {
		panic("sim: core frequency must be positive")
	}
	return &Core{eng: eng, ID: id, Node: node, Hz: hz}
}

// CyclesToTime converts a cycle count on this core to simulated duration.
func (c *Core) CyclesToTime(cycles float64) Time {
	return Time(cycles / c.Hz * float64(Second))
}

// Busy returns the cumulative busy time of the core.
func (c *Core) Busy() Time { return c.busy }

// QueueLen returns the number of tasks waiting or running on the core.
func (c *Core) QueueLen() int {
	n := len(c.queue) - c.qhead
	if c.running {
		n++
	}
	return n
}

// Task is the execution context handed to a task callback. The callback
// charges costs through it; the task's simulated clock (Now) advances as
// costs accrue, so nested resource reservations see a consistent timeline.
type Task struct {
	core *Core
	// Interrupt marks tasks running in interrupt context (NIC completion
	// and RX processing). DAMN keeps separate per-context DMA caches to
	// avoid disabling interrupts (§5.4 "two physical copies").
	Interrupt bool

	start  Time
	cycles float64
	stall  Time // non-cycle charged time (resource waits)
	fn     func(*Task)
	// run is the dispatch-event callback, bound once when the Task struct
	// is first created and reused across recycles — the per-dispatch
	// closure would otherwise be an allocation per submitted task.
	run func()
}

// Core returns the core the task runs on.
func (t *Task) Core() *Core { return t.core }

// Start returns the simulated time the task began executing.
func (t *Task) Start() Time { return t.start }

// Now returns the task's current simulated time: start plus everything
// charged so far.
func (t *Task) Now() Time {
	return t.start + t.core.CyclesToTime(t.cycles) + t.stall
}

// Charge adds cycle cost to the task.
func (t *Task) Charge(cycles float64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: negative charge %f", cycles))
	}
	t.cycles += cycles
}

// ChargeTime adds a fixed simulated duration (e.g. a hardware operation
// latency that does not scale with the core clock).
func (t *Task) ChargeTime(d Time) {
	if d < 0 {
		panic("sim: negative time charge")
	}
	t.stall += d
}

// StallUntil busy-waits the task until absolute time at (no-op if at is in
// the task's past). The waited time counts as consumed CPU, matching a
// spin-wait or a stalled memory pipeline.
func (t *Task) StallUntil(at Time) {
	if now := t.Now(); at > now {
		t.stall += at - now
	}
}

// Elapsed returns the total time the task has consumed.
func (t *Task) Elapsed() Time {
	return t.core.CyclesToTime(t.cycles) + t.stall
}

// Submit enqueues fn as a task on the core. Tasks run FIFO; fn executes at
// the task's start time and may submit further work or schedule events.
// Task structs are recycled; callbacks must not retain the *Task beyond
// their own execution (charging after completion would be a bug anyway —
// the core's clock already advanced past the task).
func (c *Core) Submit(interrupt bool, fn func(*Task)) {
	var t *Task
	if n := len(c.free); n > 0 {
		t = c.free[n-1]
		c.free = c.free[:n-1]
		t.Interrupt = interrupt
		t.start = 0
		t.cycles = 0
		t.stall = 0
		t.fn = fn
	} else {
		t = &Task{core: c, Interrupt: interrupt, fn: fn}
		t.run = func() { t.core.execute(t) }
	}
	if c.qhead > 0 && len(c.queue) == cap(c.queue) {
		n := copy(c.queue, c.queue[c.qhead:])
		clear(c.queue[n:])
		c.queue = c.queue[:n]
		c.qhead = 0
	}
	c.queue = append(c.queue, t)
	c.dispatch()
}

// dispatch starts the next queued task when the core is free.
func (c *Core) dispatch() {
	if c.running || c.qhead == len(c.queue) {
		return
	}
	t := c.queue[c.qhead]
	c.queue[c.qhead] = nil
	c.qhead++
	if c.qhead == len(c.queue) {
		c.queue = c.queue[:0]
		c.qhead = 0
	}
	c.running = true
	at := c.freeAt
	if now := c.eng.Now(); at < now {
		at = now
	}
	c.eng.At(at, t.run)
}

// execute runs one dispatched task at its start time, accounts its elapsed
// time, recycles the Task struct and starts the next queued task.
func (c *Core) execute(t *Task) {
	t.start = c.eng.Now()
	t.fn(t)
	d := t.Elapsed()
	c.busy += d
	c.freeAt = t.start + d
	c.running = false
	if t.Interrupt {
		c.eng.irqCount.Inc()
	} else {
		c.eng.taskCount.Inc()
	}
	c.eng.taskHist.Observe(float64(d))
	if tr := c.eng.tracer; tr != nil {
		name := "task"
		if t.Interrupt {
			name = "irq"
		}
		tr.Span(c.eng.tracePID, c.ID, name, "core", int64(t.start), int64(d))
	}
	t.fn = nil
	c.free = append(c.free, t)
	c.dispatch()
}
