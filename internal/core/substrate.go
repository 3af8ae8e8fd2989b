package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/topo"
	"repro/internal/xrand"
)

// substrate is the engine-independent compiled structure of a session:
// everything NewSession derives from a Config before any simulation
// machinery is wired — the underlay network, flow envelopes, resolved
// member sets, delivery trees, base connection capacity, and uplink
// multipliers. Compiling it involves no engine, so builds at every shard
// count start from bit-identical structure.
//
// The groups field is the mutable per-group runtime (trees and member
// sets the control plane drives), so a substrate belongs to exactly
// one session; compile a fresh one per run. The expensive immutable parts
// (network, built trees, resolved member sets, the child plan compiled
// from the trees) live in a shared blueprint (see blueprintFor). A session
// reads the blueprint's trees and child plan until it writes them, and
// takes its own of each on its first write (edits.tree, edits.own), so
// compiling the N-th substrate for the same structural Config never
// builds, clones or compiles anything of the blueprint's.
type substrate struct {
	cfg       Config // fillDefaults applied
	bp        *blueprint
	net       *topo.Network
	specs     []FlowSpec
	groups    []*groupState
	conn      float64   // base per-connection capacity C (bits/second)
	mults     []float64 // per-host uplink multipliers; nil when homogeneous
	threshold float64   // adaptive switching utilisation
	key       [32]byte  // blueprintKey of cfg: the structural identity snapshots are checked against
	// plan is the child sets the session's forwarders hold: the
	// blueprint's until the session first writes one, then its own.
	plan *childPlan
}

func (sub *substrate) numGroups() int { return len(sub.specs) }

// trees returns the session's trees, one per group.
func (sub *substrate) trees() []*overlay.Tree {
	trees := make([]*overlay.Tree, len(sub.groups))
	for g, st := range sub.groups {
		trees[g] = st.tree
	}
	return trees
}

// blueprint is the immutable, shareable half of a compiled substrate: the
// parts that depend only on the Config's structural identity (population,
// seed, topology, membership, tree construction inputs) and are read-only
// after construction. One blueprint serves any number of concurrent
// sessions — sweeps over load/traffic-seed grids, auto-tune probes, and
// snapshot restores all reuse the same one (see blueprintFor).
type blueprint struct {
	key    [32]byte // blueprintKey of the Config this was built from
	net    *topo.Network
	groups []GroupSpec // resolved member sets; read-only
	// trees are the built trees — under capacity-aware implicit membership
	// one build at every g — read by every session until it writes one.
	trees   []*overlay.Tree
	strat   overlay.Strategy
	mults   []float64 // per-host uplink multipliers; nil when homogeneous
	minMult float64   // smallest multiplier (envelope-fit check); 1 when homogeneous

	planOnce sync.Once
	plan     *childPlan

	shardMu   sync.Mutex
	shardings []*sharding // one per shard count sessions asked for
}

// children returns the child plan of the blueprint's trees, compiled on
// the first session's demand and read-only from then on.
func (bp *blueprint) children() *childPlan {
	bp.planOnce.Do(func() { bp.plan = compileChildren(len(bp.net.Hosts), bp.trees) })
	return bp.plan
}

// sharding is the blueprint's hosts partitioned over a shard count
// (netsim.PartitionHosts) and the partition's lookahead matrix
// (netsim.LookaheadMatrix), which has a row per shard the partition uses.
// Read-only: every session built or restored from the blueprint at that
// count shares it, its coordinator included.
type sharding struct {
	shards int   // the count asked for, at least 1
	owner  []int // host id -> shard
	la     [][]des.Duration
}

// shardingFor returns the blueprint's sharding over n shards (n < 1 is
// one), computed on the first session's demand.
func (bp *blueprint) shardingFor(n int) *sharding {
	n = max(n, 1)
	bp.shardMu.Lock()
	defer bp.shardMu.Unlock()
	for _, sd := range bp.shardings {
		if sd.shards == n {
			return sd
		}
	}
	sd := &sharding{shards: n, owner: netsim.PartitionHosts(bp.net, n)}
	sd.la, _ = netsim.LookaheadMatrix(bp.net, sd.owner)
	bp.shardings = append(bp.shardings, sd)
	return sd
}

// parallelIndexed runs fn(w, i) for i in [0, n) across a bounded worker
// pool, w being the index in [0, min(workers, n)) of the worker that runs
// i, and propagates the first panic to the caller. Each fn writes only
// its own pre-sized slot (or its worker's), so the result is identical to
// the sequential loop regardless of scheduling. workers <= 1 degenerates
// to the plain loop — the reference order the golden tests pin.
func parallelIndexed(n, workers int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// compileWorkers is the worker-pool width for substrate compilation.
func compileWorkers() int { return runtime.GOMAXPROCS(0) }

// blueprintKey fingerprints the structural identity of a Config: every
// field that feeds the blueprint (and nothing that doesn't). Configs that
// differ only in load, traffic seed, duration, scheme (among the regulated
// schemes), discipline, shard count, or the runtime planes (churn, faults,
// reopt) map to the same key and share one blueprint. The capacity-aware
// scheme's trees depend on the fanout bound — a function of load — so its
// key includes that bound.
//
// The hashed text is what fmt prints for each field — the key rides in
// every snapshot, so its bytes are part of the format — but it is written
// through keyText, which formats with strconv's append forms into one
// buffer: a restore fingerprints every member list of its Config to find
// the blueprint and check the blob against it, and fmt would box each
// number it prints.
func blueprintKey(cfg *Config, numGroups int) [32]byte {
	k := keyText{h: sha256.New(), buf: make([]byte, 0, 1024)}
	k.str("v1|hosts=").int(cfg.NumHosts).str("|seed=").uint(cfg.Seed).str("|groups=").int(numGroups).str("\n")
	k.str("topo=").topology(cfg.Topology).str("\n")
	k.str("uplinks=[")
	for i, u := range cfg.UplinkClasses {
		if i > 0 {
			k.str(" ")
		}
		k.str("{Mult:").float(u.Mult).str(" Weight:").float(u.Weight).str("}")
	}
	k.str("]\n")
	if cfg.Groups == nil {
		k.str("members=all\n")
	} else {
		for g, spec := range cfg.Groups {
			k.str("g").int(g).str(" src=").int(spec.Source).str(" members=[")
			for i, m := range spec.Members {
				if i > 0 {
					k.str(" ")
				}
				k.int(m)
			}
			k.str("]\n")
		}
	}
	if cfg.Scheme == SchemeCapacityAware {
		k.str("capaware tree=").str(cfg.strategyName()).str(" fanout=").int(overlay.FanoutBound(cfg.Load, cfg.CapacityFactor))
		k.str(" implicit=").str(strconv.FormatBool(cfg.Groups == nil)).str("\n")
	} else {
		k.str("regulated strat=").str(cfg.strategyName()).str(" k=").int(cfg.ClusterK).str("\n")
	}
	k.flush()
	var key [32]byte
	copy(key[:], k.h.Sum(k.buf[:0]))
	return key
}

// keyText streams a blueprint key's text into its hash through one buffer.
type keyText struct {
	h   hash.Hash
	buf []byte
}

// room flushes the buffer unless n more bytes fit in it.
func (k *keyText) room(n int) {
	if len(k.buf)+n > cap(k.buf) {
		k.flush()
	}
}

func (k *keyText) flush() {
	k.h.Write(k.buf)
	k.buf = k.buf[:0]
}

func (k *keyText) str(s string) *keyText {
	k.room(len(s))
	k.buf = append(k.buf, s...)
	return k
}

func (k *keyText) int(v int) *keyText {
	k.room(20)
	k.buf = strconv.AppendInt(k.buf, int64(v), 10)
	return k
}

func (k *keyText) uint(v uint64) *keyText {
	k.room(20)
	k.buf = strconv.AppendUint(k.buf, v, 10)
	return k
}

// float prints v as fmt's %v does.
func (k *keyText) float(v float64) *keyText {
	k.room(32)
	k.buf = strconv.AppendFloat(k.buf, v, 'g', -1, 64)
	return k
}

// topology prints g as fmt's %T%+v does: the generators of package topo
// field by field, any other through fmt.
func (k *keyText) topology(g topo.Generator) *keyText {
	switch g := g.(type) {
	case topo.Backbone19Generator:
		return k.str("topo.Backbone19Generator{}")
	case topo.Wire:
		return k.str("topo.Wire{}")
	case topo.Waxman:
		return k.str("topo.Waxman{N:").int(g.N).str(" Alpha:").float(g.Alpha).
			str(" Beta:").float(g.Beta).str(" Size:").float(g.Size).str("}")
	case topo.TransitStub:
		return k.str("topo.TransitStub{Transits:").int(g.Transits).str(" StubsPerTransit:").int(g.StubsPerTransit).
			str(" StubSize:").int(g.StubSize).str("}")
	case topo.Ring:
		return k.str("topo.Ring{N:").int(g.N).str("}")
	case topo.Star:
		return k.str("topo.Star{N:").int(g.N).str("}")
	}
	k.flush()
	fmt.Fprintf(k.h, "%T%+v", g, g)
	return k
}

// The blueprint cache: a small mutex-guarded LRU keyed by blueprintKey.
// Eight entries cover the realistic working set (a sweep's distinct
// capacity-aware fanout bounds plus the regulated key) while bounding the
// memory pinned by retired scenarios' networks.
const blueprintCacheSize = 8

var blueprintCache struct {
	sync.Mutex
	entries map[[32]byte]*blueprint
	order   [][32]byte // LRU order, oldest first
}

// blueprintCacheLen reports the cached entry count (tests).
func blueprintCacheLen() int {
	blueprintCache.Lock()
	defer blueprintCache.Unlock()
	return len(blueprintCache.entries)
}

// FlushSubstrateCache drops every cached substrate blueprint. Sessions
// already compiled keep what they hold, their blueprint among it; the
// shared immutable halves (networks, built trees, resolved member sets,
// child plans) are released once no session holds them. A restore after
// a flush checks a snapshot's trees against a rebuilt blueprint's,
// identical by construction. Useful for
// memory-sensitive callers retiring a large scenario, and for benchmarks
// that need to measure a cold compile.
func FlushSubstrateCache() {
	blueprintCache.Lock()
	defer blueprintCache.Unlock()
	blueprintCache.entries = nil
	blueprintCache.order = nil
}

// blueprintFor returns the shared blueprint for cfg, compiling (and
// caching) it on first use. The build runs outside the cache lock so
// concurrent sweep workers never serialize on a compile; two racing
// workers may both build the same blueprint, in which case the first
// insert wins and the loser's copy is garbage (both are identical).
func blueprintFor(cfg *Config, numGroups int) *blueprint {
	key := blueprintKey(cfg, numGroups)
	blueprintCache.Lock()
	if bp, ok := blueprintCache.entries[key]; ok {
		for i, k := range blueprintCache.order {
			if k == key {
				copy(blueprintCache.order[i:], blueprintCache.order[i+1:])
				blueprintCache.order[len(blueprintCache.order)-1] = key
				break
			}
		}
		blueprintCache.Unlock()
		return bp
	}
	blueprintCache.Unlock()

	bp := buildBlueprint(cfg, numGroups, compileWorkers())
	bp.key = key

	blueprintCache.Lock()
	defer blueprintCache.Unlock()
	if prior, ok := blueprintCache.entries[key]; ok {
		return prior
	}
	if blueprintCache.entries == nil {
		blueprintCache.entries = make(map[[32]byte]*blueprint, blueprintCacheSize)
	}
	for len(blueprintCache.order) >= blueprintCacheSize {
		oldest := blueprintCache.order[0]
		blueprintCache.order = blueprintCache.order[1:]
		delete(blueprintCache.entries, oldest)
	}
	blueprintCache.entries[key] = bp
	blueprintCache.order = append(blueprintCache.order, key)
	return bp
}

// buildBlueprint compiles the immutable half of a substrate: the underlay
// network, resolved member sets, and delivery trees. Per-group tree builds
// fan across the worker pool into pre-sized slots — each group's random
// stream is derived independently (xrand.DeriveSeed(Seed, g)), so the
// result is bit-identical to the sequential build the goldens pin.
// workers == 1 is that sequential reference.
func buildBlueprint(cfg *Config, numGroups, workers int) *blueprint {
	bp := &blueprint{}
	bp.net = topo.NewNetwork(cfg.Topology.Build(cfg.Seed), topo.NetworkConfig{
		NumHosts:      cfg.NumHosts,
		Seed:          cfg.Seed,
		UplinkClasses: cfg.UplinkClasses,
	})
	bp.groups = cfg.resolveGroups(numGroups)

	// Trees. Regulated schemes build one tree per group over the group's
	// member set, rooted at its source. The capacity-aware scheme under
	// the paper's full-membership model instead shares a single
	// cluster-capped tree across all groups, exactly as the paper's
	// Fig. 1(b) reconstructs one tree carrying both flows: its fanout
	// budget ⌊C_out/Σρᵢ⌋ only yields a stable schedule when the same d
	// children receive every flow. With explicit (possibly disjoint)
	// member sets no shared tree can span every group, so the scheme
	// falls back to one capped flat tree per group. A failed build is a
	// panic here: the configs the scenario layer compiles are validated
	// before any session exists, so this indicates a programming error.
	must := func(t *overlay.Tree, err error) *overlay.Tree {
		if err != nil {
			panic(err)
		}
		return t
	}
	bp.trees = make([]*overlay.Tree, numGroups)
	if cfg.Scheme == SchemeCapacityAware {
		fanout := overlay.FanoutBound(cfg.Load, cfg.CapacityFactor)
		blind := cfg.strategyName() == "nice"
		if cfg.Groups == nil {
			var shared *overlay.Tree
			members := bp.groups[0].Members
			if blind {
				shared = must(overlay.BuildFlatBlind(bp.net, members, 0, fanout, xrand.DeriveSeed(cfg.Seed, 0)))
			} else {
				shared = must(overlay.BuildFlat(bp.net, members, 0, fanout))
			}
			for g := range bp.trees {
				bp.trees[g] = shared
			}
		} else {
			parallelIndexed(numGroups, workers, func(_, g int) {
				if blind {
					bp.trees[g] = must(overlay.BuildFlatBlind(bp.net, bp.groups[g].Members,
						bp.groups[g].Source, fanout, xrand.DeriveSeed(cfg.Seed, g)))
				} else {
					bp.trees[g] = must(overlay.BuildFlat(bp.net, bp.groups[g].Members,
						bp.groups[g].Source, fanout))
				}
			})
		}
	} else {
		// Regulated schemes build through the named overlay strategy —
		// "dsct" and "nice" resolve to the exact builders (and random
		// streams) the pre-strategy substrate called, pinned by the golden
		// bit-identity tests. Strategies are stateless; all randomness
		// enters through the per-group seed, so the builds are independent.
		strat, err := overlay.LookupStrategy(cfg.strategyName())
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		bp.strat = strat
		parallelIndexed(numGroups, workers, func(_, g int) {
			tc := overlay.Config{K: cfg.ClusterK, Seed: xrand.DeriveSeed(cfg.Seed, g)}
			bp.trees[g] = must(strat.Build(bp.net, bp.groups[g].Members, bp.groups[g].Source, tc))
		})
	}

	bp.minMult = 1
	if len(cfg.UplinkClasses) > 0 {
		bp.mults = make([]float64, cfg.NumHosts)
		bp.minMult = bp.net.Hosts[0].UplinkMult
		for id := range bp.mults {
			bp.mults[id] = bp.net.Hosts[id].UplinkMult
			if bp.mults[id] < bp.minMult {
				bp.minMult = bp.mults[id]
			}
		}
	}
	return bp
}

// compileSubstrate validates cfg and builds the session structure. The
// derivation order and every random stream match the pre-shard NewSession
// exactly — pinned by the paper-fig4/paper-fig6 golden bit-identity tests.
// The immutable half comes from the shared blueprint cache; the per-
// session half (flow envelopes at this traffic seed, connection capacity
// at this load, the member sets — bitset windows of one slab) is
// instantiated fresh on every call.
func compileSubstrate(cfg Config) *substrate {
	if err := cfg.checkOrder(); err != nil {
		panic(err.Error())
	}
	return compile(cfg, false)
}

// compile is compileSubstrate, or with resume set the substrate of a
// checkpoint restore: the same in everything but the per-group runtime,
// whose member windows come up empty for the snapshot's group records to
// fill. Either way the session holds the blueprint's trees and child plan
// themselves; a restore keeps each tree its snapshot does not carry
// (readGroup).
func compile(cfg Config, resume bool) *substrate {
	cfg.fillDefaults()
	numGroups := cfg.groupCount()
	bp := blueprintFor(&cfg, numGroups)

	sub := &substrate{cfg: cfg, bp: bp, net: bp.net, mults: bp.mults, key: bp.key, plan: bp.children()}

	// Flow envelopes: one flow per group.
	sub.specs = cfg.Specs
	if sub.specs == nil {
		sub.specs = cfg.Workload.BuildSpecsN(cfg.Mix, numGroups, cfg.TrafficSeed.Or(cfg.Seed),
			DefaultEnvelopeMargin, DefaultBurstSec, cfg.EnvelopeHorizonSec)
	} else if len(sub.specs) != numGroups {
		panic(fmt.Sprintf("core: %d specs for %d groups", len(sub.specs), numGroups))
	}

	// Base per-connection capacity from the x-axis load: sized so a host
	// carrying every group flow runs at the configured utilisation.
	sub.conn = cfg.Mix.TotalRateN(numGroups) / cfg.Load

	// Per-group runtime: the mutable state the control plane drives. Each
	// session gets its own member sets and reads the blueprint's trees —
	// the capacity-aware scheme's one tree shared by every group among
	// them, since no control plane runs under that scheme. Every member set
	// is a word-aligned, capacity-capped window of one slab, ⌈N/64⌉ words
	// per group, so the fan-out's workers write disjoint words. Slots are
	// pre-sized and written independently, so the fan-out is order-free. A
	// restore only carves, too little work to fan out. The group records
	// are one slab, as the member sets are.
	sub.groups = make([]*groupState, numGroups)
	states := make([]groupState, numGroups)
	n := words(cfg.NumHosts)
	members := make(bitset, numGroups*n)
	workers := compileWorkers()
	if resume {
		workers = 1
	}
	parallelIndexed(numGroups, workers, func(_, g int) {
		st := &states[g]
		*st = groupState{spec: bp.groups[g], member: members[g*n : (g+1)*n : (g+1)*n]}
		if bp.strat != nil {
			st.strat = bp.strat
			st.lim = bp.strat.Limits(overlay.Config{K: cfg.ClusterK}, cfg.NumHosts)
		}
		if !resume {
			for _, m := range st.spec.Members {
				st.member.set(m)
			}
		}
		st.tree = bp.trees[g]
		sub.groups[g] = st
	})

	if len(cfg.UplinkClasses) > 0 {
		// Every flow envelope must fit inside the slowest class's uplink:
		// a host whose C sits at or below some ρᵢ cannot regulate flow i
		// (NewSRL requires ρ < C), and even a host that never forwards
		// flow i folds W_i = σᵢ/(C−ρᵢ) into its stagger offsets — a
		// negative W would silently corrupt the schedule. Fail loudly at
		// build time instead.
		for g, sp := range sub.specs {
			if sp.Rho >= bp.minMult*sub.conn {
				panic(fmt.Sprintf(
					"core: group %d envelope rate %.0f bps exceeds the slowest uplink class capacity %.0f bps (mult %.2g of C=%.0f); lower the load or raise the class multiplier",
					g, sp.Rho, bp.minMult*sub.conn, bp.minMult, sub.conn))
			}
		}
	}
	sub.threshold = ThresholdUtilization(numGroups, cfg.Mix.Homogeneous())
	return sub
}

// compileChildren flattens every host's per-group child sets in the
// given trees into a childPlan: a counting pass sizes the plan's three
// arenas (group ids, edge-window headers, edges) and its per-host offset
// index, a group-ascending fill pass writes each host's slots at its
// offset, and a connection pass gives each edge its connection's slot.
// Three bulk allocations and the index replace the per-(host, group)
// slice copies an earlier version made — at 100k hosts × 512 groups that
// is millions of heap objects the GC no longer scans. It is the one
// compiler of child sets: a blueprint runs it once over its trees for
// every session built or restored from it (blueprint.children); a session
// runs it at its first child-set edit (edits.own), and a restore over its
// trees when the snapshot's differ from the blueprint's (readHosts).
//
// The counting and connection passes fan across parallelIndexed's worker
// pool (per-worker count arrays, summed after the join; per-worker
// scratch); the fill pass walks groups in ascending order so each host's
// slots come out sorted by group id without any per-host sort. Children
// are copied out of the trees: trees own their child slices, and the
// control plane mutates host child sets independently of tree
// bookkeeping. A host's connections are its distinct children in
// ascending order, the order a build makes their MUXes in (host.wire).
func compileChildren(numHosts int, trees []*overlay.Tree) *childPlan {
	numGroups := len(trees)
	workers := max(1, min(compileWorkers(), numGroups))

	// Counting pass: per-worker slot/kid counts per host, merged below.
	slotCounts := make([][]int32, workers)
	kidCounts := make([][]int32, workers)
	for w := range workers {
		slotCounts[w], kidCounts[w] = make([]int32, numHosts), make([]int32, numHosts)
	}
	parallelIndexed(numGroups, workers, func(w, g int) {
		slots, kids := slotCounts[w], kidCounts[w]
		trees[g].EachParent(func(p int, cs []int) {
			slots[p]++
			kids[p] += int32(len(cs))
		})
	})
	slotCur, kidCur := slotCounts[0], kidCounts[0]
	for w := 1; w < workers; w++ {
		for p := 0; p < numHosts; p++ {
			slotCur[p] += slotCounts[w][p]
			kidCur[p] += kidCounts[w][p]
		}
	}

	// The offset index, and each count turned into its host's fill cursor:
	// the first slot and the first child id of its windows.
	pl := &childPlan{off: make([]int32, numHosts+1)}
	var kidTotal, most int32
	for p := 0; p < numHosts; p++ {
		pl.off[p+1] = pl.off[p] + slotCur[p]
		slotCur[p] = pl.off[p]
		most = max(most, kidCur[p])
		kidTotal, kidCur[p] = kidTotal+kidCur[p], kidTotal
	}
	pl.groups = make([]int32, pl.off[numHosts])
	pl.kids = make([][]edge, pl.off[numHosts])
	pl.edges = make([]edge, kidTotal)

	// Fill pass: groups ascending, so slots land sorted by group id; each
	// edge window is capacity-capped at its own length. A host's edges end
	// up back to back, ending at its cursor.
	for g := 0; g < numGroups; g++ {
		g32 := int32(g)
		trees[g].EachParent(func(p int, cs []int) {
			i, start := slotCur[p], kidCur[p]
			end := start + int32(len(cs))
			pl.groups[i] = g32
			w := pl.edges[start:end:end]
			for k, c := range cs {
				w[k].child = int32(c)
			}
			pl.kids[i] = w
			slotCur[p], kidCur[p] = i+1, end
		})
	}

	// Connection pass: each edge names its child's rank among the host's
	// distinct children, sorted in a window of one scratch per worker.
	scratch := make([]int32, int(most)*workers)
	parallelIndexed(numHosts, workers, func(w, p int) {
		var start int32
		if p > 0 {
			start = kidCur[p-1]
		}
		es := pl.edges[start:kidCur[p]]
		cs := scratch[int(most)*w : int(most)*w : int(most)*(w+1)]
		for _, e := range es {
			cs = append(cs, e.child)
		}
		slices.Sort(cs)
		cs = slices.Compact(cs)
		for i := range es {
			k, _ := slices.BinarySearch(cs, es[i].child)
			es[i].mux = int32(k)
		}
	})
	return pl
}
