package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	mathbits "math/bits"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// allocFixtures are the two sessions the allocation budgets are stated
// over: a 60-host (σ, ρ, λ) session in three full groups, and the quick
// waxman-zipf-64 cell (150 hosts in 64 Zipf groups) — few components in
// few groups, and few per group in many.
func allocFixtures(t *testing.T) map[string]core.Config {
	small := core.Config{NumHosts: 60, NumGroups: 3, Mix: traffic.MixAudio, Load: 0.8, Scheme: core.SchemeSRL,
		Duration: des.Second, Seed: 5, Topology: topo.Waxman{N: 24}}
	sc := scenario.MustLookup("waxman-zipf-64").Quick()
	cell, err := sc.SessionConfig(sc.Combos[0], sc.Loads[0], 1, core.SeedOpt{}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]core.Config{"60-host": small, "waxman-zipf-64-quick": cell}
}

// TestMembershipIsOneBitPerHost holds the member sets to one bit per host
// in one allocation: after NewSession and after Restore alike, the K
// groups' sets are consecutive, capacity-capped ⌈N/64⌉-word windows of one
// backing array of K·⌈N/64⌉ words, each holding exactly its group's
// members. One byte per host, in one array per group, was 51.2 MB of a
// started waxman-zipf-512 session's 128.6 MB heap.
func TestMembershipIsOneBitPerHost(t *testing.T) {
	check := func(t *testing.T, s *core.Session, cfg core.Config) {
		t.Helper()
		windows := core.MemberWindows(s)
		n := (cfg.NumHosts + 63) / 64
		slab := unsafe.Slice(unsafe.SliceData(windows[0]), len(windows)*n)
		for g, w := range windows {
			if len(w) != n || cap(w) != n || unsafe.SliceData(w) != &slab[g*n] {
				t.Fatalf("group %d: window of %d words (cap %d), want %d words at word %d of group 0's slab",
					g, len(w), cap(w), n, g*n)
			}
			bits := 0
			for _, word := range w {
				bits += mathbits.OnesCount64(word)
			}
			members := s.Groups()[g].Members
			for _, m := range members {
				if w[m/64]&(1<<(m%64)) == 0 {
					t.Fatalf("group %d: member %d has no bit", g, m)
				}
			}
			if bits != len(members) {
				t.Fatalf("group %d: %d member bits, want %d", g, bits, len(members))
			}
		}
	}
	for name, cfg := range allocFixtures(t) {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(cfg)
			check(t, s, cfg)
			s.Start()
			s.RunTo(des.Time(cfg.Duration) / 2)
			blob, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.Restore(cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			check(t, r, cfg)
		})
	}
}

type sharingCase struct {
	name string
	cfg  core.Config
}

// sharingCases are the static configs the blueprint-sharing tests run: the
// quick waxman-zipf-64 cell at one shard and at four, and the 60-host
// fixture under the capacity-aware scheme, whose groups share one tree.
func sharingCases(t *testing.T) []sharingCase {
	fixtures := allocFixtures(t)
	sharded := fixtures["waxman-zipf-64-quick"]
	sharded.Shards = 4
	capAware := fixtures["60-host"]
	capAware.Scheme = core.SchemeCapacityAware
	return []sharingCase{{"1 shard", fixtures["waxman-zipf-64-quick"]}, {"4 shards", sharded}, {"capacity-aware", capAware}}
}

// groupZeroJoins returns cfg with churn in group 0 only: a join, at each
// of the given instants, of a host outside the group (each event names
// the next one). No control plane runs under the capacity-aware scheme,
// so it returns false there.
func groupZeroJoins(cfg core.Config, at ...des.Time) (core.Config, bool) {
	if !cfg.Scheme.Regulated() {
		return cfg, false
	}
	members := core.NewSession(cfg).Groups()[0].Members
	cfg.Events = nil
	for h := 0; h < cfg.NumHosts && len(cfg.Events) < len(at); h++ {
		if !slices.Contains(members, h) {
			cfg.Events = append(cfg.Events, core.MembershipEvent{At: at[len(cfg.Events)], Group: 0, Host: h, Join: true})
		}
	}
	return cfg, len(cfg.Events) == len(at)
}

// TestStaticSessionsShareBlueprintTrees: every group a session has not
// edited holds its blueprint's tree itself, not a clone — at one shard and
// at four, and for the capacity-aware scheme's one tree shared by every
// group. A session without churn, faults or re-optimization shares every
// tree after NewSession, after a Restore and after its run. One whose
// churn touches only group 0 shares every tree after NewSession and after
// a Restore taken before the edit, and groups 1…K−1 after its run and
// after a Restore taken after the edit. Static sessions checkpointed,
// restored and run side by side with an editing one leave the blueprint's
// trees byte for byte as they were and without the live RTT index a graft
// point builds, which the editing session's own tree of group 0 carries
// (make race runs this under the race detector).
func TestStaticSessionsShareBlueprintTrees(t *testing.T) {
	every := func(int) bool { return true }
	unwritten := func(g int) bool { return g != 0 }
	shares := func(t *testing.T, s *core.Session, how string, want func(g int) bool) {
		t.Helper()
		own, _ := core.BlueprintTrees(s)
		for g, o := range own {
			if o != want(g) {
				t.Fatalf("%s: group %d holds the blueprint's tree = %v, want %v", how, g, o, want(g))
			}
		}
	}
	// restoreAt runs s to at, checkpoints it and restores the blob.
	restoreAt := func(t *testing.T, s *core.Session, cfg core.Config, at des.Time) *core.Session {
		t.Helper()
		s.RunTo(at)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Restore(cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tc := range sharingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			d := des.Time(tc.cfg.Duration)
			s := core.NewSession(tc.cfg)
			_, before := core.BlueprintTrees(s)
			shares(t, s, "static NewSession", every)
			s.Start()
			shares(t, restoreAt(t, s, tc.cfg, d/2), "static Restore", every)
			s.Finish()
			shares(t, s, "static run", every)

			if cfg, ok := groupZeroJoins(tc.cfg, d/2); ok {
				w := core.NewSession(cfg)
				shares(t, w, "NewSession with churn in group 0", every)
				w.Start()
				r := restoreAt(t, w, cfg, d/4)
				shares(t, r, "Restore before the edit", every)
				shares(t, restoreAt(t, r, cfg, d*3/4), "Restore after the edit", unwritten)
				w.Finish()
				shares(t, w, "run with churn in group 0", unwritten)
				if bp, own := core.TreesIndexed(w); slices.Contains(bp, true) || !own[0] {
					t.Fatalf("after a session grafted into group 0: blueprint indexed %v, own %v", bp, own)
				}
			}

			// Side by side: two static sessions through a checkpoint cycle
			// and, where a control plane can run, one editing group 0.
			var wg sync.WaitGroup
			side := []core.Config{tc.cfg, tc.cfg}
			if cfg, ok := groupZeroJoins(tc.cfg, d/4, d/2); ok {
				side = append(side, cfg)
			}
			for _, cfg := range side {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := core.NewSession(cfg)
					s.Start()
					s.RunTo(d / 3)
					blob, err := s.Snapshot()
					if err == nil {
						s, err = core.Restore(cfg, blob)
					}
					if err != nil {
						t.Error(err)
						return
					}
					s.Finish()
				}()
			}
			wg.Wait()
			if _, after := core.BlueprintTrees(s); !bytes.Equal(before, after) {
				t.Fatal("sessions running side by side changed the blueprint's trees")
			}
			if bp, _ := core.TreesIndexed(s); slices.Contains(bp, true) {
				t.Fatalf("after sessions ran side by side, blueprint trees hold a live RTT index: %v", bp)
			}
		})
	}
}

// TestStaticSessionsShareBlueprintPlan: a session reads its blueprint's
// child plan — every forwarder's child windows lie in it — until it first
// edits a child set, and from then on reads exactly one plan of its own.
// A session without churn, faults or re-optimization reads the
// blueprint's after NewSession and after each of three chained Restores,
// at one shard and at four, and under the capacity-aware scheme's one
// shared tree: the plan is compiled once per blueprint. A session whose
// churn joins two hosts to group 0 reads it after NewSession and after a
// Restore taken before the first join; after the joins it holds one plan
// of its own, the same one after the second join as after the first, and
// a Restore taken then compiles one of its own too. Two static sessions
// built, checkpointed, restored and run side by side leave the plan byte
// for byte as it was (make race runs this under the race detector).
func TestStaticSessionsShareBlueprintPlan(t *testing.T) {
	// reads checks, after how, whether every forwarder with children reads
	// the blueprint's plan and the session holds no plan of its own.
	reads := func(t *testing.T, s *core.Session, how string, blueprint bool) (first uintptr) {
		t.Helper()
		shared, first, oneArena := core.ChildWindows(s)
		if len(shared) == 0 || (blueprint && !oneArena) {
			t.Fatalf("after %s: %d forwarders with children, windows in one array: %v", how, len(shared), oneArena)
		}
		for j, sh := range shared {
			if sh != blueprint {
				t.Fatalf("after %s: forwarder %d reads the blueprint's plan = %v, want %v", how, j, sh, blueprint)
			}
		}
		if _, own := core.ChildPlan(s); own == blueprint {
			t.Fatalf("after %s: the session holds a plan of its own = %v, want %v", how, own, !blueprint)
		}
		return first
	}
	for _, tc := range sharingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			d := des.Time(tc.cfg.Duration)
			s := core.NewSession(tc.cfg)
			s.Start()
			compiles := map[uintptr]bool{reads(t, s, "static NewSession", true): true}
			for i := 1; i <= 3; i++ {
				s.RunTo(d * des.Time(i) / 8)
				blob, err := s.Snapshot()
				if err == nil {
					s, err = core.Restore(tc.cfg, blob)
				}
				if err != nil {
					t.Fatal(err)
				}
				compiles[reads(t, s, fmt.Sprintf("static Restore %d", i), true)] = true
			}
			if len(compiles) != 1 {
				t.Fatalf("a build and three restores read child sets from %d compiles, want 1", len(compiles))
			}

			if cfg, ok := groupZeroJoins(tc.cfg, d/2, d*5/8); ok {
				w := core.NewSession(cfg)
				reads(t, w, "NewSession with churn in group 0", true)
				w.Start()
				w.RunTo(d / 4)
				blob, err := w.Snapshot()
				if err == nil {
					w, err = core.Restore(cfg, blob)
				}
				if err != nil {
					t.Fatal(err)
				}
				reads(t, w, "Restore before the first join", true)
				w.RunTo(d * 9 / 16)
				reads(t, w, "the first join", false)
				plan, _ := core.ChildPlan(w)
				w.RunTo(d * 3 / 4)
				reads(t, w, "the second join", false)
				if again, _ := core.ChildPlan(w); again != plan {
					t.Fatal("the second join took another plan: a session holds one plan of its own")
				}
				blob, err = w.Snapshot()
				if err == nil {
					w, err = core.Restore(cfg, blob)
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, _, oneArena := core.ChildWindows(w); !oneArena {
					t.Fatal("a Restore after the joins does not read one compiled plan")
				}
				reads(t, w, "Restore after the joins", false)
			}

			before := core.BlueprintPlan(core.NewSession(tc.cfg))
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := core.NewSession(tc.cfg)
					s.Start()
					s.RunTo(d / 2)
					blob, err := s.Snapshot()
					if err == nil {
						s, err = core.Restore(tc.cfg, blob)
					}
					if err != nil {
						t.Error(err)
						return
					}
					s.Finish()
				}()
			}
			wg.Wait()
			if after := core.BlueprintPlan(core.NewSession(tc.cfg)); !bytes.Equal(before, after) {
				t.Fatal("two static sessions running side by side changed the blueprint's plan")
			}
		})
	}
}

// allocated runs fn three times and returns the bytes and objects the
// leanest run allocated: the counters are the process's, and a goroutine
// an earlier test left winding down can add an object to any one run.
func allocated(fn func()) (bytes, mallocs uint64) {
	bytes, mallocs = math.MaxUint64, math.MaxUint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	return bytes, mallocs
}

// TestLeavesCarryNoForwarder holds the forwarding state to the hosts that
// forward: after NewSession the hosts holding a forwarder are exactly the
// hosts with a child in some tree, and each shard's are carved back to back
// from one arena; a Restore rebuilds the set the checkpointed session held,
// the same way. At one shard and at four.
func TestLeavesCarryNoForwarder(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := allocFixtures(t)["waxman-zipf-64-quick"]
		cfg.Shards = shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := core.NewSession(cfg)
			fwds, parents, oneArena := core.ForwarderLayout(s)
			if !slices.Equal(fwds, parents) || !oneArena {
				t.Fatalf("NewSession: forwarders at %v (one arena per shard: %v), hosts with children %v", fwds, oneArena, parents)
			}
			if len(fwds) == 0 || len(fwds) == cfg.NumHosts {
				t.Fatalf("%d of %d hosts forward: the fixture has no leaves or no forwarders", len(fwds), cfg.NumHosts)
			}
			s.Start()
			s.RunTo(des.Time(cfg.Duration) / 2)
			blob, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, _, _ := core.ForwarderLayout(s)
			r, err := core.Restore(cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, oneArena := core.ForwarderLayout(r); !slices.Equal(got, want) || !oneArena {
				t.Fatalf("Restore: forwarders at %v (one arena per shard: %v), the checkpointed session's at %v", got, oneArena, want)
			}
			t.Logf("%d of %d hosts forward, on %d shards", len(fwds), cfg.NumHosts, s.Shards())
		})
	}
}

// TestMuxEndsAreConnections: a MUX names its output link by its two ends
// and shares its engine, discipline, flow count and fabric with every MUX
// of its shard, through the shard's one Line. After NewSession and after
// Restore, at one shard and four, every MUX a forwarder has in service
// sits in the owner table of its host's shard with the forwarder's host and
// the connection table's child as its ends, every MUX of a shard points at
// that shard's Line, and — the fixture has no churn — every MUX is in
// service.
func TestMuxEndsAreConnections(t *testing.T) {
	check := func(t *testing.T, s *core.Session) {
		t.Helper()
		ws, unowned := core.MuxWirings(s)
		if unowned > 0 {
			t.Fatalf("%d MUXes in service are in no owner table", unowned)
		}
		if len(ws) == 0 {
			t.Fatal("the fixture has no MUX")
		}
		for _, w := range ws {
			if w.Line != w.Shard || w.Owner != w.Shard {
				t.Fatalf("a MUX of host %d, which shard %d owns, is in shard %d's owner table and points at the Line of shard %d",
					w.From, w.Owner, w.Shard, w.Line)
			}
			if w.Host < 0 || w.From != w.Host || w.To != w.Child {
				t.Fatalf("MUX on link %d→%d of shard %d is in service as host %d's connection to %d", w.From, w.To, w.Shard, w.Host, w.Child)
			}
		}
	}
	for _, shards := range []int{1, 4} {
		cfg := allocFixtures(t)["waxman-zipf-64-quick"]
		cfg.Shards = shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := core.NewSession(cfg)
			check(t, s)
			s.Start()
			s.RunTo(des.Time(cfg.Duration) / 2)
			blob, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.Restore(cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			check(t, r)
		})
	}
}

// TestBlueprintCompileAllocBudget states what compiling a blueprint cold
// may allocate, on one runner: at most 12 objects per group and 800
// besides — nothing per cluster, nothing per domain and nothing per
// router. A group's hierarchy runs in one buffer its builder owns: each
// cluster is a window of it selected in place, with one RTT index
// scratch for the whole build, and each cluster's core is written back to
// its front as the next layer. A group's tree, member set, RTT index
// scratch and child windows are the objects per group; the network — graph, hosts, and
// shortest paths whose delay and next-hop tables are one slab each — is
// most of the rest. Unlike the run budgets this one holds under the race
// detector too (make substrate runs it there), whose instrumentation adds
// about an object per group.
//
// At the parent of the commit that added it the waxman-zipf-64 fixture's
// cold compile made 2,431 objects for its 64 groups (1,864 at it): every
// layer of every domain of every group cloned its member list and made a
// list of clusters and a next layer, and every group grew a slice of local
// cores a domain at a time. The budget was 1,300 besides then; it fell to
// 800 (1,430 objects, 1,490 under the race detector) when the shortest
// paths stopped making a distance, predecessor, visited and next-hop row
// per source — four objects per router, 128 routers here. The RTT index
// that replaced the key scratch is one object per build, as the scratch
// was, so the count stayed 1,430.
func TestBlueprintCompileAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := allocFixtures(t)["waxman-zipf-64-quick"]
	var groups int
	_, objects := allocated(func() {
		core.FlushSubstrateCache()
		groups = core.CompileBlueprint(cfg)
	})
	if limit := uint64(12*groups + 800); objects > limit {
		t.Errorf("a cold blueprint compile allocated %d objects for %d groups; budget %d", objects, groups, limit)
	}
	t.Logf("cold compile: %d objects (%d groups, %d hosts)", objects, groups, cfg.NumHosts)
}

// TestBlueprintKeyAllocBudget: a blueprint key is written into its hash
// through one buffer, with strconv's append forms, so however many groups
// and members it prints it makes two objects, the hash and the buffer
// (TestBlueprintKeyMatchesFmt holds its bytes to fmt's). At the parent of
// the commit that added it, fmt made about 50 for the quick
// waxman-zipf-64 cell, and more with every group and member printed.
func TestBlueprintKeyAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates; the budget is the plain build's")
	}
	for name, cfg := range allocFixtures(t) {
		if objects := testing.AllocsPerRun(10, func() { core.KeyOf(cfg) }); objects > 2 {
			t.Errorf("%s: the blueprint key allocated %v objects, budget 2", name, objects)
		}
	}
}

// TestBuildAllocBudget states what NewSession + Start may allocate with the
// blueprint warm, on one runner: 67 objects, nothing per component, per
// host, per group or per router — MUXes, regulators, clocks and the link
// records their outputs point at are carved from per-shard slabs, and
// events fire the components themselves; the group records, the sources
// and the member sets are one slab each, a source emits into its root
// host's record, the blueprint key is written without fmt, the host
// partition and lookahead matrix are the blueprint's, and each source
// owner table and the ready run the sources start in are made once.
//
// At the parent of the commit that added it a build of the 60-host and the
// waxman-zipf-64 fixture made 881 and 4,248 objects (223 and 1,555 at it):
// each component came with a stored completion callback and an output
// closure, and each host with a receiver closure. Until the build stopped
// allocating per group the budget granted one object per host and 24 per
// group besides the 160, and a build of the two fixtures made 136 and 603
// objects (67 and 79 after). Until the sources registered highest flow
// first and the ready run was sized for their first events, both grew a
// slot at a time, the budget was 160, and a build made 67 and 79 objects
// (64 and 67 after).
func TestBuildAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates; the budget is the plain build's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, cfg := range allocFixtures(t) {
		t.Run(name, func(t *testing.T) {
			core.NewSession(cfg) // warm the blueprint cache
			var s *core.Session
			_, objects := allocated(func() {
				s = core.NewSession(cfg)
				s.Start()
			})
			comps, groups := core.ComponentCount(s), len(s.Groups())
			if objects > 67 {
				t.Errorf("NewSession + Start allocated %d objects for %d components, %d hosts and %d groups; budget 67",
					objects, comps, cfg.NumHosts, groups)
			}
			t.Logf("build: %d objects (%d components, %d hosts, %d groups)", objects, comps, cfg.NumHosts, groups)
		})
	}
}

// TestRunAllocBudget states what NewSession + Run may allocate with the
// blueprint warm, on one runner: 160 objects plus 8 per shard, and nothing
// per regulator, per MUX or per group. Every
// queue's storage past what the build carved — a regulator's first buffer,
// the size of a burst, ⌈σ/L⌉ + 1 packets; its regrowth when the MUXes
// upstream bunch more than a burst into it; a MUX queue's growth past its
// packet per routed flow — is a window of the shard's one packet pool,
// which makes a chunk at a time (snap.Arena); the 8 per shard are those
// chunks. A clock's waiting list has a seat carved for each follower.
// Run's other allocations — engine and flight blocks, the result's
// per-group tree walks — fit in the 160 beside the build's 67.
//
// At the parent of the commit that added it a run of the 60-host and the
// waxman-zipf-64 fixture made 1,191 and 4,229 objects (321 and 1,958 at
// it): a MUX built its per-flow queue table on its first packet, and a
// regulator's queue doubled its way up from one packet. Until the queues
// moved into the pool the budget granted two objects per regulator — each
// made its first buffer on its own, and 45 of the 79 regulators of the
// waxman-zipf-64 fixture regrew once, 8 of them twice — and a run made 216
// and 940 objects (164 and 761 after). Until the build stopped allocating
// per group the budget granted one object per host and 24 per group as the
// build's did, and a run made 157 and 632 objects (82 and 102 after).
func TestRunAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates; the budget is the plain run's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, cfg := range allocFixtures(t) {
		t.Run(name, func(t *testing.T) {
			core.NewSession(cfg) // warm the blueprint cache
			var s *core.Session
			_, objects := allocated(func() {
				s = core.NewSession(cfg)
				s.Run()
			})
			regs, groups := core.RegulatorCount(s), len(s.Groups())
			if limit := uint64(160 + 8*s.Shards()); objects > limit {
				t.Errorf("NewSession + Run allocated %d objects for %d components (%d regulators), %d hosts, %d groups and %d shards; budget %d",
					objects, core.ComponentCount(s), regs, cfg.NumHosts, groups, s.Shards(), limit)
			}
			t.Logf("run: %d objects (%d components, %d regulators, %d hosts, %d groups)", objects, core.ComponentCount(s), regs, cfg.NumHosts, groups)
		})
	}
}

// TestCheckpointCycleAllocBudget states what one Snapshot → Restore cycle
// may allocate, on one runner with the blueprint warm. Allocation here is
// deterministic, so the bounds are exact statements, not tolerances:
//
//   - Restore allocates at most 1.15 × the bytes NewSession + Start
//     allocate for the same Config, plus 64 bytes per pending event (the
//     blob adds queue contents and the events in flight; the slabs and the
//     build it skips pay for the rest), in at most 73 objects: none per
//     component or per host (components, their link records and the
//     hosts' tables are carved from slabs, and a host is its own
//     receiver), none per group (the group records, the sources and the
//     member sets are one slab each, and a source emits into its root
//     host's record) and none per pending event (the engine's records and
//     the flights' carriers are one block each, sized from the record, and
//     the shard's packet pool starts with room for every queued packet the
//     blob holds).
//   - Snapshot on the restored session allocates at most 1.1 × the blob's
//     bytes, plus one 8 KB page (the allocator's rounding of the stream
//     buffer, which is the blob's size plus a sixteenth) and 40 bytes per
//     pending event (the copy of the event queue it sorts), in at most
//     twelve objects, the same at every checkpoint: every tree sorts its
//     parents in one scratch the snapshot sizes for the largest.
//
// At the parent of the commit that added it a restore took 1.4–1.6 × the
// build's bytes in ≈ 13 objects per component, and a restored session's
// snapshot 4–5 × the blob's bytes. Until components stopped binding
// callbacks, the object budget also granted two per component, one per
// host and three per pending event; a restore of these fixtures then made
// 643–3,397 objects, 215–1,526 after. Until trees sorted their parents in
// the snapshot's scratch, a snapshot took one object per tree more (12 and
// 73 on these fixtures, 10 and 10 after). Until restores stopped
// allocating per group and per pending event the object budget granted two
// per pending event and 24 per group besides the 160; a restore of these
// fixtures made 146–613 objects, 73–79 after. Until the sources
// registered highest flow first, each source owner table grew a slot at a
// time, the object budget was 160, and a restore made 73–79 objects, 71–73
// after.
func TestCheckpointCycleAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates; the budgets are the plain build's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, cfg := range allocFixtures(t) {
		t.Run(name, func(t *testing.T) {
			core.NewSession(cfg) // warm the blueprint cache
			var s *core.Session
			buildBytes, _ := allocated(func() {
				s = core.NewSession(cfg)
				s.Start()
			})
			groups := len(s.Groups())
			var snapObjects uint64
			d := des.Time(cfg.Duration)
			for _, at := range []des.Time{d / 4, d / 2} {
				s.RunTo(at)
				blob, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				restBytes, restObjects := allocated(func() {
					if s, err = core.Restore(cfg, blob); err != nil {
						t.Fatal(err)
					}
				})
				comps, pending := core.ComponentCount(s), core.PendingEvents(s)
				if limit := buildBytes*115/100 + 64*uint64(pending); restBytes > limit {
					t.Errorf("at %v: Restore allocated %d bytes, over 1.15 × the %d of NewSession + Start plus 64 for each of %d pending events", at, restBytes, buildBytes, pending)
				}
				if restObjects > 73 {
					t.Errorf("at %v: Restore allocated %d objects for %d components, %d hosts, %d pending events and %d groups; budget 73",
						at, restObjects, comps, cfg.NumHosts, pending, groups)
				}
				var again []byte
				snapBytes, objects := allocated(func() {
					if again, err = s.Snapshot(); err != nil {
						t.Fatal(err)
					}
				})
				if limit := uint64(len(again))*11/10 + 8<<10 + 40*uint64(pending); snapBytes > limit {
					t.Errorf("at %v: Snapshot of the restored session allocated %d bytes for a %d-byte blob, limit %d", at, snapBytes, len(again), limit)
				}
				if objects > 12 || (snapObjects != 0 && objects != snapObjects) {
					t.Errorf("at %v: Snapshot of the restored session allocated %d objects (%d at the checkpoint before) for %d groups, budget 12",
						at, objects, snapObjects, groups)
				}
				snapObjects = objects
				t.Logf("at %v: build %d B; restore %d B in %d objects (%d components, %d pending); snapshot %d B in %d objects for %d B",
					at, buildBytes, restBytes, restObjects, comps, pending, snapBytes, objects, len(again))
			}
		})
	}
}

// runObjects returns the objects the leanest of three RunTo(d) calls
// allocates, each on a fresh session from mk (allocated's three runs of one
// session would time two no-op calls).
func runObjects(mk func() *core.Session, d des.Time) uint64 {
	objects := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		s := mk()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.RunTo(d)
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	return objects
}

// TestRestoredRunAllocBudget states what a session restored halfway may
// allocate running to its end, on one runner: what the straight session
// allocates over the same half, plus 8 objects per shard — the chunks of
// the shard's packet pool, in which a restored regulator queue, whose
// capacity is exactly its restored length, takes the window it moves to on
// its first arrival, as a built one takes its first buffer — and 16
// besides. A restored MUX has room carved for a packet of each group
// routed through its connection and a restored clock a seat in its waiting
// list for each follower, as built ones do; a source is the handler of its
// own events.
//
// At the parent of the commit that added it the restored half of the
// 60-host and the waxman-zipf-64 fixture made 134 and 559 objects, where
// the straight half made none: every restored MUX queue had exactly its
// restored length, most often none, and grew on its first arrival. Until
// the queues moved into the pool the budget granted one object per
// regulator, a restored queue's first buffer made on its own, and the
// restored half made 40 and 78 objects (11 and 17 after).
func TestRestoredRunAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates; the budget is the plain run's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, cfg := range allocFixtures(t) {
		t.Run(name, func(t *testing.T) {
			d := des.Time(cfg.Duration)
			var blob []byte
			half := func() *core.Session {
				s := core.NewSession(cfg)
				s.Start()
				s.RunTo(d / 2)
				var err error
				if blob, err = s.Snapshot(); err != nil {
					t.Fatal(err)
				}
				return s
			}
			straight := runObjects(half, d)
			var regs, shards int
			restored := runObjects(func() *core.Session {
				s, err := core.Restore(cfg, blob)
				if err != nil {
					t.Fatal(err)
				}
				regs, shards = core.RegulatorCount(s), s.Shards()
				return s
			}, d)
			if limit := straight + 8*uint64(shards) + 16; restored > limit {
				t.Errorf("the restored session's run to %v allocated %d objects, the straight one's %d; budget %d for %d shards",
					d, restored, straight, limit, shards)
			}
			t.Logf("run %v → %v: straight %d objects, restored %d (%d regulators)", d/2, d, straight, restored, regs)
		})
	}
}

// TestSnapshotHintSurvivesRestore: a restored session starts its next
// snapshot stream at the size of the blob it came from, not at 4 KB — at
// the parent every snapshot of a checkpoint chain regrew its stream by
// doubling, which was a fifth of the whole cycle's CPU.
func TestSnapshotHintSurvivesRestore(t *testing.T) {
	for name, cfg := range allocFixtures(t) {
		s := core.NewSession(cfg)
		s.Start()
		s.RunTo(des.Time(cfg.Duration) / 2)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := core.SnapshotHint(s); got != len(blob) {
			t.Errorf("%s: hint after Snapshot is %d, blob is %d bytes", name, got, len(blob))
		}
		r, err := core.Restore(cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.SnapshotHint(r); got != len(blob) {
			t.Errorf("%s: hint after Restore is %d, blob is %d bytes", name, got, len(blob))
		}
	}
}

// TestSnapshotBlobBytes pins the exact size and the SHA-256 of one v9
// blob: the 60-host fixture checkpointed halfway. The simulation is
// deterministic, so both are too. A word added back to a component record
// — a MUX, a regulator or a clock writes one per component — changes the
// size by that word times the component count; a pending event written
// with another (at, prio, kind, arg), a slot renumbered or a queue
// reordered changes the hash. Change the pins only with the format.
// (Format v7 wrote 30,717 bytes here and v8 20,525: v9 dropped the 88
// MUXes' arrival sequence, their 177 per-flow queue headers, the sequence
// of the 51 packets in transmission and one record total.)
func TestSnapshotBlobBytes(t *testing.T) {
	const (
		want = 17993
		hash = "fb7c114f174da2c934209eb7217146d8bdd529726d72ffd240632a64a6a4db10"
	)
	cfg := allocFixtures(t)["60-host"]
	s := core.NewSession(cfg)
	s.Start()
	s.RunTo(des.Time(cfg.Duration) / 2)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != want {
		t.Fatalf("the 60-host fixture's blob at %v is %d bytes, pinned at %d (snapshot v%d)", cfg.Duration/2, len(blob), want, core.SnapshotVersion)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != hash {
		t.Fatalf("the 60-host fixture's blob at %v hashes to %s, pinned at %s (snapshot v%d)", cfg.Duration/2, got, hash, core.SnapshotVersion)
	}
}
