package sim

import (
	"fmt"
	"testing"
)

// clusterTrace runs a little 3-shard message-passing system — every shard
// periodically sends work to the next with exactly the lookahead of delay,
// every execution appends to a shared-by-construction trace at the
// receiving side — and returns the trace. With workers=1 the epochs run
// serially; any trace divergence at higher worker counts is a merge-
// determinism bug.
func clusterTrace(t *testing.T, workers int) []string {
	t.Helper()
	const look = 10 * Microsecond
	c := NewCluster(look, workers)
	shards := []*Shard{c.AddShard(1), c.AddShard(2), c.AddShard(3)}

	// The trace is appended to only at epoch barriers' merged deliveries
	// and by local events — all on the owning shard — but the slice itself
	// is shared. That is safe precisely because appends happen in the
	// single-threaded merge-ordered deliveries; a data race here would be
	// caught by -race and would itself be the bug.
	var trace []string
	traces := make([][]string, 3)
	for i, s := range shards {
		i, s := i, s
		var n int
		s.Engine().Every(look, func() {
			n++
			at := s.Engine().Now() + look
			msg := fmt.Sprintf("s%d#%d", i, n)
			dst := shards[(i+1)%3]
			s.Send(dst, at, func() {
				traces[dst.ID()] = append(traces[dst.ID()], fmt.Sprintf("%s@%v", msg, dst.Engine().Now()))
			})
		})
	}
	c.Run(1 * Millisecond)
	for _, tr := range traces {
		trace = append(trace, tr...)
	}
	return trace
}

func TestClusterParallelMatchesSerial(t *testing.T) {
	serial := clusterTrace(t, 1)
	if len(serial) == 0 {
		t.Fatal("empty trace")
	}
	for _, workers := range []int{2, 4, 8} {
		got := clusterTrace(t, workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d events, serial %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: event %d = %q, serial %q", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestClusterMergeOrdersByShardAndSeq(t *testing.T) {
	const look = 5 * Microsecond
	c := NewCluster(look, 1)
	a, b, dst := c.AddShard(1), c.AddShard(2), c.AddShard(3)

	// Shards a and b both send two messages landing at the same instant.
	// The merged execution order must be (shard, seq): a#1, a#2, b#1, b#2
	// regardless of send order inside the epoch.
	var got []string
	at := look // epoch boundary — legal landing time
	b.Engine().At(0, func() {
		b.Send(dst, at, func() { got = append(got, "b1") })
		b.Send(dst, at, func() { got = append(got, "b2") })
	})
	a.Engine().At(0, func() {
		a.Send(dst, at, func() { got = append(got, "a1") })
		a.Send(dst, at, func() { got = append(got, "a2") })
	})
	c.Run(2 * look)
	want := []string{"a1", "a2", "b1", "b2"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge order %v, want %v", got, want)
		}
	}
}

func TestClusterSameShardSendIsLocal(t *testing.T) {
	c := NewCluster(10*Microsecond, 1)
	s := c.AddShard(1)
	ran := false
	// A same-shard send below the lookahead is legal: it never crosses the
	// barrier.
	s.Engine().At(0, func() {
		s.Send(s, 1*Microsecond, func() { ran = true })
	})
	c.Run(20 * Microsecond)
	if !ran {
		t.Fatal("same-shard send did not run")
	}
	if c.Epochs() != 2 {
		t.Fatalf("epochs = %d, want 2", c.Epochs())
	}
}

func TestClusterPanicsOnSubLookaheadMessage(t *testing.T) {
	c := NewCluster(10*Microsecond, 1)
	a, b := c.AddShard(1), c.AddShard(2)
	a.Engine().At(0, func() {
		b2 := b
		a.Send(b2, 1*Microsecond, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: cross-shard message lands inside the epoch")
		}
	}()
	c.Run(20 * Microsecond)
}

func TestClusterRunStopsAtUntil(t *testing.T) {
	c := NewCluster(7*Microsecond, 2)
	s := c.AddShard(1)
	var ticks int
	s.Engine().Every(2*Microsecond, func() { ticks++ })
	c.Run(20 * Microsecond)
	if c.Now() != 20*Microsecond {
		t.Fatalf("cluster now = %v", c.Now())
	}
	if s.Engine().Now() != 20*Microsecond {
		t.Fatalf("shard now = %v", s.Engine().Now())
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}

// TestClusterMergeZeroAlloc checks that an epoch barrier carrying
// cross-shard messages merges without allocating once the outboxes, the
// merge buffer and the destination event pools are warm.
func TestClusterMergeZeroAlloc(t *testing.T) {
	const look = 5 * Microsecond
	c := NewCluster(look, 1)
	shards := []*Shard{c.AddShard(1), c.AddShard(2), c.AddShard(3)}
	delivered := 0
	deliver := func() { delivered++ }
	for i, s := range shards {
		s, dst := s, shards[(i+1)%len(shards)]
		s.Engine().Every(look, func() {
			at := s.Engine().Now() + look
			s.Send(dst, at, deliver)
			s.Send(dst, at, deliver)
		})
	}
	epoch := func() { c.Run(c.Now() + look) }
	for i := 0; i < 4; i++ {
		epoch()
	}
	before := delivered
	if avg := testing.AllocsPerRun(100, epoch); avg != 0 {
		t.Fatalf("epoch merge allocates %.1f allocs/epoch, want 0", avg)
	}
	if delivered == before {
		t.Fatal("no cross-shard message was delivered")
	}
}
