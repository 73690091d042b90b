package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Cluster executes several engines — logical processes, one per simulated
// machine or router — as a conservative parallel discrete-event simulation.
// Shards only interact through cross-shard messages carrying at least the
// cluster's lookahead of propagation delay (link latency), which is the
// classic conservative-synchronization precondition: inside an epoch of
// length lookahead, no shard can affect another shard's present, so all
// shards advance their private event queues concurrently. At the epoch
// barrier the buffered cross-shard messages are merged into their
// destination engines in deterministic (time, source shard, send sequence)
// order, so the engine-level (at, seq) tie-break sees the same enqueue
// order no matter how many host workers ran the epoch. A K-worker run is
// therefore byte-identical to the serial (workers=1) run — the same
// "host-fast, sim-identical" bar the experiment runner sets across jobs,
// now applied inside one run.
type Cluster struct {
	look    Time
	workers int
	now     Time
	shards  []*Shard
	epochs  uint64

	// scratch is the barrier's merge buffer, reused across epochs.
	scratch []xmsg
}

// Shard is one logical process: a private engine plus the outbox of
// cross-shard messages generated during the current epoch. Only the host
// worker running the shard's epoch touches the outbox, so no locking is
// needed; the barrier drains it single-threaded.
type Shard struct {
	id  int
	eng *Engine
	out []xmsg
	seq uint64
}

// xmsg is one buffered cross-shard delivery.
type xmsg struct {
	at  Time
	src int
	seq uint64
	dst *Shard
	fn  func()
}

// NewCluster builds an empty cluster. lookahead must be positive and no
// larger than the smallest cross-shard link latency the topology will use;
// workers <= 1 runs epochs serially (the reference execution).
func NewCluster(lookahead Time, workers int) *Cluster {
	if lookahead <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	return &Cluster{look: lookahead, workers: workers}
}

// AddShard creates a new logical process with its own engine.
func (c *Cluster) AddShard(seed int64) *Shard {
	s := &Shard{id: len(c.shards), eng: NewEngine(seed)}
	c.shards = append(c.shards, s)
	return s
}

// Engine returns the shard's private event engine.
func (s *Shard) Engine() *Engine { return s.eng }

// ID returns the shard's index in the cluster.
func (s *Shard) ID() int { return s.id }

// Send schedules fn at absolute time at on the destination shard. Called
// from inside the source shard's epoch (an event callback on its engine).
// Same-shard sends go straight onto the local queue; cross-shard sends are
// buffered and merged at the epoch barrier, which requires at to land at or
// after the epoch boundary — guaranteed when the message carries at least
// the cluster's lookahead of delay.
func (s *Shard) Send(dst *Shard, at Time, fn func()) {
	if dst == s {
		s.eng.At(at, fn)
		return
	}
	s.seq++
	s.out = append(s.out, xmsg{at: at, src: s.id, seq: s.seq, dst: dst, fn: fn})
}

// Lookahead returns the epoch length.
func (c *Cluster) Lookahead() Time { return c.look }

// Workers returns the host worker count epochs run under.
func (c *Cluster) Workers() int { return c.workers }

// Now returns the cluster's epoch-barrier time (every shard's engine has
// advanced at least this far).
func (c *Cluster) Now() Time { return c.now }

// Epochs reports how many epoch barriers have completed.
func (c *Cluster) Epochs() uint64 { return c.epochs }

// Shards returns the cluster's logical processes in ID order.
func (c *Cluster) Shards() []*Shard { return c.shards }

// Run advances every shard to until, one lookahead-bounded epoch at a time.
func (c *Cluster) Run(until Time) {
	for c.now < until {
		end := c.now + c.look
		if end > until {
			end = until
		}
		c.runEpoch(end)
		c.merge(end)
		c.now = end
		c.epochs++
	}
}

// runEpoch advances every shard's engine to end, in parallel when the
// cluster has workers to spare. Each shard's engine state (and everything
// hanging off it — machine, stats, fault plane) is private to the shard, so
// the only shared state inside an epoch is this read-only cluster struct.
func (c *Cluster) runEpoch(end Time) {
	if c.workers <= 1 || len(c.shards) <= 1 {
		for _, s := range c.shards {
			s.eng.Run(end)
		}
		return
	}
	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			s.eng.Run(end)
		}(s)
	}
	wg.Wait()
}

// merge drains every shard's outbox into the destination engines, sorted by
// (time, source shard, send sequence). The destination heap orders by
// (time, engine seq), and engine seq is assigned in enqueue order, so this
// sort fully determines the execution order of same-time deliveries —
// independent of which host worker ran which shard. A message landing
// before the epoch boundary would have to rewrite its destination's past;
// that can only come from a topology whose cross-shard latency is below the
// cluster lookahead, which is a construction bug worth dying loudly for.
func (c *Cluster) merge(end Time) {
	msgs := c.scratch[:0]
	for _, s := range c.shards {
		msgs = append(msgs, s.out...)
		// Drop closure refs so the retained outbox array leaks nothing.
		clear(s.out)
		s.out = s.out[:0]
	}
	slices.SortFunc(msgs, func(a, b xmsg) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range msgs {
		m := &msgs[i]
		if m.at < end {
			panic(fmt.Sprintf("sim: cross-shard message at %v lands inside the epoch ending %v (link latency below cluster lookahead %v)",
				m.at, end, c.look))
		}
		m.dst.eng.At(m.at, m.fn)
	}
	clear(msgs)
	c.scratch = msgs[:0]
}
