package des

import (
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

// mergeOracle checks dst's pending buffer against slices.SortFunc over the
// same records.
func mergeOracle[P any](t *testing.T, c *Coordinator[P], dst int) {
	t.Helper()
	want := slices.Clone(c.pend[dst])
	slices.SortFunc(want, func(a, b rec[P]) int { return recCmp(&a, &b) })
	for i := range want {
		if g, w := &c.pend[dst][i], &want[i]; recCmp(g, w) != 0 {
			t.Fatalf("dst %d position %d: merged (%v,%v,%d,%d), sorted (%v,%v,%d,%d)", dst, i,
				g.at, g.lamport, g.src, g.seq, w.at, w.lamport, w.src, w.seq)
		}
	}
}

// TestDrainMergeMatchesSort is the merge's property test: random mailbox
// batches — few distinct (at, lamport) values, so exact ties across sources
// are the common case — drained on top of a non-empty pending buffer, with
// random releases in between, must leave exactly the sequence a full sort
// of the same records gives.
func TestDrainMergeMatchesSort(t *testing.T) {
	const nsh = 4
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		engines := make([]*Engine, nsh)
		for i := range engines {
			engines[i] = New()
		}
		c := NewCoordinatorMatrix[int](engines, uniformLA(nsh, 1))
		c.OnDeliver(func(int, int) {})
		floor := Time(0) // nothing is posted before what was already released
		for batch := 0; batch < 6; batch++ {
			for n := rng.Intn(40); n > 0; n-- {
				src, dst := rng.Intn(nsh), rng.Intn(nsh)
				if src == dst {
					continue
				}
				c.seq[src]++
				at := floor + Time(rng.Intn(6))
				c.outbox[src][dst] = append(c.outbox[src][dst],
					rec[int]{at: at, lamport: at - Time(rng.Intn(3)), seq: c.seq[src], src: int32(src)})
			}
			c.drain()
			for d := 0; d < nsh; d++ {
				mergeOracle(t, c, d)
			}
			floor += Time(rng.Intn(4))
			for d := 0; d < nsh; d++ {
				c.release(d, floor)
			}
		}
	}
}
