package des

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// meshRun drives `shards` engines that each tick on their own period and
// post to two rotating peers, cut into three Run calls the way a checkpoint
// driver would. It returns the per-shard firing logs (ticks and deliveries,
// each appended only by its own shard), the coordinator, and how far above
// the count at entry the goroutine count ever was inside an event; it fails
// the test if a Run call's runners outlive it.
func meshRun(t *testing.T, shards int, prep func(*Coordinator[[2]int])) (logs [][]string, c *Coordinator[[2]int], extra int) {
	t.Helper()
	base := runtime.NumGoroutine()
	logs = make([][]string, shards)
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = New()
	}
	c = NewCoordinatorMatrix[[2]int](engines, uniformLA(shards, Millisecond))
	c.OnDeliver(func(dst int, m [2]int) {
		logs[dst] = append(logs[dst], fmt.Sprintf("s%d<-s%d hop%d@%v", dst, m[0], m[1], engines[dst].Now()))
	})
	peaks := make([]int, shards)
	for src := range engines {
		hop := 0
		tickEvery(engines[src], Time(src+1)*90*Microsecond, Time(500+37*src)*Microsecond, func() {
			hop++
			logs[src] = append(logs[src], fmt.Sprintf("s%d tick%d@%v", src, hop, engines[src].Now()))
			peaks[src] = max(peaks[src], runtime.NumGoroutine())
			dst := (src + 1 + hop%2) % shards
			c.PostPayload(src, dst, engines[src].Now()+Millisecond+Time(hop)*17, [2]int{src, hop})
		})
	}
	if prep != nil {
		prep(c)
	}
	for _, d := range []Time{11 * Millisecond, 11*Millisecond + 1, 40 * Millisecond} {
		c.Run(d)
		// An exited runner leaves the count a moment after Run has seen it
		// stop; a leaked one never does.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Run(%v), %d before: a runner leaked", runtime.NumGoroutine(), d, base)
			}
		}
	}
	return logs, c, slices.Max(peaks) - base
}

// atProcs runs fn under GOMAXPROCS p.
func atProcs(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	fn()
}

// TestCoordinatorRunnersNeverExceedProcs pins the runner rule: 8 shards
// under GOMAXPROCS 1, 2 and 4 fire the same per-shard logs — the tick
// lines being exactly what a lone sequential engine fires for that shard's
// ticker — while Run starts at most min(shards, GOMAXPROCS) − 1 goroutines
// and every one of them is gone when it returns, Run call after Run call.
// The per-shard account sums to the engines' executed events and is
// identical at every GOMAXPROCS and on repetition.
func TestCoordinatorRunnersNeverExceedProcs(t *testing.T) {
	const shards = 8
	var ref [][]string
	var refAcct ShardAccount
	for _, procs := range []int{1, 2, 4, 4} {
		atProcs(procs, func() {
			logs, c, extra := meshRun(t, shards, nil)
			if limit := min(shards, procs) - 1; extra > limit {
				t.Errorf("GOMAXPROCS %d: Run held %d extra goroutines, limit %d", procs, extra, limit)
			}

			acct := c.Account()
			var events, executed uint64
			for i, e := range c.engines {
				events += acct.Events[i]
				executed += e.executed
			}
			if events != executed || acct.Parallel > c.Epochs() {
				t.Errorf("GOMAXPROCS %d: account %+v: %d events vs %d executed, %d epochs", procs, acct, events, executed, c.Epochs())
			}
			if ref == nil {
				ref, refAcct = logs, acct
				return
			}
			if fmt.Sprint(logs) != fmt.Sprint(ref) {
				t.Errorf("GOMAXPROCS %d: firing logs differ from GOMAXPROCS 1", procs)
			}
			if fmt.Sprint(acct) != fmt.Sprint(refAcct) {
				t.Errorf("GOMAXPROCS %d: account %+v, GOMAXPROCS 1 gave %+v", procs, acct, refAcct)
			}
		})
	}
	if refAcct.Parallel == 0 {
		t.Fatal("no epoch had two active shards: the script exercised no barrier")
	}
	// The sequential-engine oracle for the tick lines.
	for src := 0; src < shards; src++ {
		seq, n := New(), 0
		var want []string
		tickEvery(seq, Time(src+1)*90*Microsecond, Time(500+37*src)*Microsecond, func() {
			n++
			want = append(want, fmt.Sprintf("s%d tick%d@%v", src, n, seq.Now()))
		})
		seq.RunUntil(40 * Millisecond)
		got := slices.DeleteFunc(slices.Clone(ref[src]), func(l string) bool { return l[2] == '<' })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("shard %d ticks diverge from a sequential engine:\n got %v\nwant %v", src, got, want)
		}
	}
}

// TestCoordinatorForcedPark sets the spin budget to zero so every wait that
// is not satisfied at once parks: the park/wake protocol alone must finish
// the run, with the same logs, and must actually have been exercised — on a
// quiet box the spin path would otherwise hide it.
func TestCoordinatorForcedPark(t *testing.T) {
	const shards = 4
	var ref [][]string
	atProcs(1, func() { ref, _, _ = meshRun(t, shards, nil) })
	atProcs(2, func() {
		logs, c, _ := meshRun(t, shards, func(c *Coordinator[[2]int]) { c.spin = 0 })
		if fmt.Sprint(logs) != fmt.Sprint(ref) {
			t.Error("firing logs differ from the inline run")
		}
		if len(c.runners) != 1 {
			t.Fatalf("%d extra runners under GOMAXPROCS 2, want 1", len(c.runners))
		}
		if rn := &c.runners[0]; rn.start.parks+rn.done.parks == 0 {
			t.Error("nothing ever parked with a zero spin budget")
		}
	})
}

// TestCoordinatorFoldsForIdleDestination pins the second half of the
// hand-off's race contract on two runners, where shard 1 is the extra
// runner's only shard: shard 0 posts to shard 1 every tick, 20 ms ahead,
// so shard 1 holds sealed records through epochs with nothing live in its
// window — its runner must still be posted to fold them before the next
// seal hands the same buffers back (seal panics otherwise) — and every
// record arriving by the deadline is delivered, in order.
func TestCoordinatorFoldsForIdleDestination(t *testing.T) {
	atProcs(2, func() {
		engines := []*Engine{New(), New()}
		c := NewCoordinatorMatrix[int](engines, uniformLA(2, Millisecond))
		var got []int
		c.OnDeliver(func(_, hop int) { got = append(got, hop) })
		hop := 0
		tickEvery(engines[0], 100*Microsecond, 100*Microsecond, func() {
			hop++
			c.PostPayload(0, 1, engines[0].Now()+20*Millisecond, hop)
		})
		c.Run(30 * Millisecond)
		if len(c.runners) != 1 {
			t.Fatalf("%d extra runners under GOMAXPROCS 2, want 1", len(c.runners))
		}
		if len(got) != 100 || !slices.IsSorted(got) || got[0] != 1 {
			t.Fatalf("delivered %d records (first %v), want hops 1…100 in order", len(got), got[:min(len(got), 3)])
		}
	})
}

// TestRunnerBudgetIsProcessWide pins the oversubscription guard: runners
// are granted against one process-wide count of goroutines inside a
// multi-shard Run, so concurrent coordinators degrade to inline epochs
// rather than spin on more goroutines than there are Ps.
func TestRunnerBudgetIsProcessWide(t *testing.T) {
	atProcs(4, func() {
		// A pool holds three of the four Ps: a coordinator beside it gets
		// no runner, and fires what it fires with runners.
		release := HoldRunners(3)
		logs, c, extra := meshRun(t, 4, nil)
		if len(c.runners) != 0 || extra != 0 {
			t.Errorf("coordinator beside a full pool started %d runners (%d goroutines over base)", len(c.runners), extra)
		}
		release()
		want, c2, _ := meshRun(t, 4, nil)
		if len(c2.runners) != 3 {
			t.Errorf("budget not returned: %d runners, want 3", len(c2.runners))
		}
		if fmt.Sprint(logs) != fmt.Sprint(want) {
			t.Error("inline and runner executions fired different logs")
		}
		if n := busyRunners.Load(); n != 0 {
			t.Errorf("busyRunners = %d after every Run returned", n)
		}
	})
}

// TestGateZeroAlloc pins the barrier's steady state: a post/wait round trip
// allocates nothing, spinning or parking.
func TestGateZeroAlloc(t *testing.T) {
	for _, spin := range []time.Duration{spinBudget, 0} {
		a, b := &gate{wake: make(chan struct{}, 1)}, &gate{wake: make(chan struct{}, 1)}
		go func() {
			for k := uint64(1); a.wait(k, spin) != stopSeq; k++ {
				b.set(k)
			}
			b.set(stopSeq)
		}()
		k := uint64(0)
		if avg := testing.AllocsPerRun(200, func() {
			k++
			a.set(k)
			b.wait(k, spin)
		}); avg != 0 {
			t.Errorf("spin %v: a gate round trip allocates %.1f times, want 0", spin, avg)
		}
		a.set(stopSeq)
		b.wait(stopSeq, spin)
	}
}

// mailboxRig drives the cross-shard hand-off in its production placement
// with fuzzed records, one barrier per epoch call: the coordinator seals,
// and runOwned, with every shard on one runner, folds every destination
// with a sealed mailbox — live or not — releases and runs the live ones
// below their bounds, and sorts the outboxes each live source filled. The
// records a test queues are posted during the next epoch by an event on
// their source, straight into its outbox (bypassing PostPayload's
// lookahead check, so a test controls every key field). The oracle is a
// full slices.SortFunc, under the order spelled out field by field, of the
// records each destination was sent.
type mailboxRig struct {
	t      *testing.T
	c      *Coordinator[int]
	queued [][]rigPost // per source, posted during the next epoch
	recs   []rec[int]  // posted so far; payload = index
	dsts   []int
	log    [][]int // per destination, payloads in delivery order
	bound  []Time  // per shard, the bound of the last epoch
}

// rigPost is a queued record: it arrives dat after its destination's
// next bound, and was posted dlam before it arrives.
type rigPost struct {
	dst       int
	dat, dlam Time
}

// oracleCmp is the total order written out independently of recCmp.
func oracleCmp(a, b rec[int]) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.lamport, b.lamport),
		cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
}

func newMailboxRig(t *testing.T, nsh int) *mailboxRig {
	engines := make([]*Engine, nsh)
	for i := range engines {
		engines[i] = New()
	}
	m := &mailboxRig{t: t, c: NewCoordinatorMatrix[int](engines, uniformLA(nsh, 1)),
		queued: make([][]rigPost, nsh), log: make([][]int, nsh), bound: make([]Time, nsh)}
	m.c.OnDeliver(func(dst, idx int) { m.log[dst] = append(m.log[dst], idx) })
	return m
}

// post queues one record from src to dst for the next epoch.
func (m *mailboxRig) post(src, dst int, dat, dlam Time) {
	m.queued[src] = append(m.queued[src], rigPost{dst, dat, dlam})
}

// want is dst's records among the first n posted, in the oracle order.
func (m *mailboxRig) want(dst, n int) []rec[int] {
	var w []rec[int]
	for i, d := range m.dsts[:n] {
		if d == dst {
			w = append(w, m.recs[i])
		}
	}
	slices.SortFunc(w, oracleCmp)
	return w
}

// epoch runs one barrier and one epoch; a shard with ends[d] above its
// last bound, or with records queued, is live. Afterwards each
// destination has delivered exactly a prefix, in the oracle order, of the
// records posted before this epoch and holds the rest in its pending
// buffer, none below its bound; every sealed mailbox is empty; and every
// outbox holds what its source posted this epoch, sorted.
func (m *mailboxRig) epoch(ends []Time) {
	t, c := m.t, m.c
	t.Helper()
	c.seal()
	for d := range c.engines {
		c.ends[d] = max(ends[d], m.bound[d])
		if len(m.queued[d]) > 0 {
			c.ends[d] = max(c.ends[d], m.bound[d]+1)
		}
		c.live[d] = c.ends[d] > m.bound[d]
	}
	before := len(m.recs)
	for src, q := range m.queued {
		if len(q) == 0 {
			continue
		}
		l := &c.lanes[src]
		c.engines[src].Schedule(m.bound[src], func() {
			for _, p := range q {
				at := c.ends[p.dst] + p.dat
				l.seq++
				r := rec[int]{at: at, lamport: at - p.dlam, seq: l.seq, src: int32(src), payload: len(m.recs)}
				l.out[p.dst] = append(l.out[p.dst], r)
				m.recs, m.dsts = append(m.recs, r), append(m.dsts, p.dst)
			}
		})
		m.queued[src] = nil
	}
	c.runOwned(0)
	copy(m.bound, c.ends)
	posted := 0
	for d := range c.engines {
		want, l := m.want(d, before), &c.lanes[d]
		got := slices.Clone(m.log[d])
		for i := l.head; i < len(l.pend); i++ {
			got = append(got, l.pend[i].payload)
		}
		if len(got) != len(want) {
			t.Fatalf("dst %d: %d delivered + %d pending, %d sent", d, len(m.log[d]), len(l.pend)-l.head, len(want))
		}
		for i := range want {
			if g, w := m.recs[got[i]], want[i]; oracleCmp(g, w) != 0 {
				t.Fatalf("dst %d position %d (of %d delivered): got (%v,%v,%d,%d), sorted (%v,%v,%d,%d)", d, i, len(m.log[d]),
					g.at, g.lamport, g.src, g.seq, w.at, w.lamport, w.src, w.seq)
			}
			if i >= len(m.log[d]) && want[i].at < m.bound[d] {
				t.Fatalf("dst %d: record at %v still pending below bound %v", d, want[i].at, m.bound[d])
			}
		}
		for src := range c.lanes {
			if len(l.in[src]) != 0 {
				t.Fatalf("mailbox %d→%d still sealed after the epoch", src, d)
			}
			out := c.lanes[src].out[d]
			if !slices.IsSortedFunc(out, oracleCmp) {
				t.Fatalf("outbox %d→%d not sorted when its source's epoch ended", src, d)
			}
			posted += len(out)
		}
	}
	if posted != len(m.recs)-before {
		t.Fatalf("%d records in the outboxes, %d posted this epoch", posted, len(m.recs)-before)
	}
}

// flush runs two far-reaching epochs — the first posts what is queued,
// the second seals, folds and releases it — and checks that every record
// was delivered.
func (m *mailboxRig) flush() {
	m.t.Helper()
	ends := make([]Time, len(m.bound))
	for _, far := range []Time{maxTime / 4, maxTime / 2} {
		for d := range ends {
			ends[d] = far
		}
		m.epoch(ends)
	}
	for d := range ends {
		if len(m.log[d]) != len(m.want(d, len(m.recs))) {
			m.t.Fatalf("dst %d: %d of %d records delivered at the end", d, len(m.log[d]), len(m.want(d, len(m.recs))))
		}
	}
}

// TestDrainMergeMatchesSort is the hand-off's property test: random
// mailbox batches — few distinct (at, lamport) values, so exact ties
// across sources are the common case — sorted by their sources, sealed,
// folded by their destinations on top of a non-empty pending buffer and
// released below random bounds, with destinations left not live for
// several epochs at a time, must deliver and hold exactly the sequence a
// full sort of the same records gives.
func TestDrainMergeMatchesSort(t *testing.T) {
	const nsh = 4
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		m := newMailboxRig(t, nsh)
		asleep := make([]int, nsh) // epochs a destination stays not live
		ends := make([]Time, nsh)
		for batch := 0; batch < 8; batch++ {
			for n := rng.Intn(40); n > 0; n-- {
				if src, dst := rng.Intn(nsh), rng.Intn(nsh); src != dst {
					m.post(src, dst, Time(rng.Intn(6)), Time(rng.Intn(3)))
				}
			}
			for d := range ends {
				ends[d] = m.bound[d]
				if asleep[d] > 0 {
					asleep[d]--
					continue
				}
				if rng.Intn(4) == 0 {
					asleep[d] = 1 + rng.Intn(3)
				}
				ends[d] += Time(rng.Intn(4))
			}
			m.epoch(ends)
		}
		m.flush()
	}
}
