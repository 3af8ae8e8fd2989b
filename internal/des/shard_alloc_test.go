package des

import "testing"

// TestBoundaryPostZeroAlloc pins the pooled fast path: in steady state a
// cross-shard post → source sort → seal → fold → release → fire cycle,
// through the functions an epoch runs, must not allocate at all — records
// recycle through the double-buffered per-(src, dst) mailboxes, pending
// buffers reuse their arrays, and delivery nodes come from per-destination
// free lists. A regression here is the old closure-per-packet path
// sneaking back in, or a sort that boxes what it sorts.
func TestBoundaryPostZeroAlloc(t *testing.T) {
	engines := []*Engine{New(), New()}
	c := NewCoordinatorMatrix[int](engines, [][]Duration{{0, 5}, {5, 0}})
	sum := 0
	c.OnDeliver(func(dst, p int) { sum += p })

	const k = 16 // boundary packets per side per step
	step := func() {
		c.epochOn = true
		for i := 0; i < k; i++ {
			// Descending arrival times: the source sort has work to do.
			c.PostPayload(0, 1, engines[0].Now()+5+Time(k-i), i)
			c.PostPayload(1, 0, engines[1].Now()+5+Time(k-i), i)
		}
		c.lanes[0].sortOut()
		c.lanes[1].sortOut()
		c.seal()
		for d, e := range engines {
			b := e.Now() + 5 + k
			c.lanes[d].fold()
			c.release(d, b)
			e.RunBefore(b)
		}
		c.epochOn = false
	}
	// Warm up: grow mailbox/pending capacity, event pools, and delivery
	// node free lists to their steady-state high-water marks.
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("boundary handoff allocates %.1f times per %d-packet step, want 0", avg, 2*k)
	}
	if sum == 0 {
		t.Fatal("deliver hook never ran — the measurement exercised nothing")
	}
	if c.unsorted {
		t.Fatal("posts inside an epoch marked the outboxes unsorted")
	}
}
