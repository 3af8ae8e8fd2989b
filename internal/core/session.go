package core

import (
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/regulator"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// GroupSpec describes one multicast group of a session: who is in it and
// which member sources its flow. The paper's implicit model — every host
// joins every group — is the nil-Groups default of Config; scenarios with
// partial or overlapping membership pass explicit GroupSpecs.
type GroupSpec struct {
	// Source is the host originating the group's flow. Must be a member.
	Source int
	// Members lists the hosts subscribed to the group (including Source).
	// The group's delivery tree spans exactly this set; non-members never
	// carry or receive the group's packets.
	Members []int
}

// Config parameterises one multi-group EMcast run (one point of Fig. 6 /
// Tables I–III, or one scenario-layer session).
type Config struct {
	// NumHosts is the network population (the paper: "665 end hosts ...
	// who join in 3 groups"). Default 665.
	NumHosts int
	// Mix selects the per-group real-time flow pattern; with more groups
	// than the mix's three flows the pattern cycles (see
	// traffic.Mix.SourcesN).
	Mix traffic.Mix
	// Load is the x-axis of every figure: the aggregate normalised input
	// rate Σρᵢ/C at a host carrying every group, in (0, 1).
	Load float64
	// Scheme is the traffic-control scheme at every host.
	Scheme Scheme
	// Strategy names the overlay tree-construction strategy from the
	// overlay registry ("dsct", "nice", "spt", "greedy", ...); empty
	// means "dsct". The capacity-aware scheme keeps its own fanout-capped
	// flat construction, for which "dsct" picks the location-aware builder
	// and "nice" the location-blind one; it rejects every other name.
	Strategy string
	// Reopt configures the online tree re-optimization plane: periodic
	// DES events that rewire (or rebuild) each group's delivery tree from
	// measured per-member delay estimates, under hysteresis. The zero
	// value disables it, leaving the session byte-identical to a static
	// build. Requires a regulated scheme. See reopt.go.
	Reopt ReoptConfig
	// Duration is the simulated time; WDB is the max delay observed.
	// Default 5 s.
	Duration des.Duration
	// Seed drives the structural randomness: host attachment, membership,
	// and tree construction (and, unless TrafficSeed overrides it, the
	// workload).
	Seed uint64
	// TrafficSeed separately seeds the workload's randomness (VBR models,
	// measured envelopes). Unset means "use Seed"; an explicitly set
	// value — including 0 — is honoured as given. Sweep drivers derive a
	// distinct TrafficSeed per sweep point so the traffic streams of the
	// points are statistically independent while the network and trees —
	// which the paper holds fixed across a sweep — stay identical.
	TrafficSeed SeedOpt
	// CapacityFactor is C_out/C for the capacity-aware scheme (see
	// DESIGN.md). Default 2.0.
	CapacityFactor float64
	// EnvelopeHorizonSec is the measurement horizon for flow envelopes.
	// Default 30 s.
	EnvelopeHorizonSec float64
	// ClusterK is the DSCT/NICE cluster parameter. Default 3.
	ClusterK int
	// Discipline selects the general MUX service order. Default LIFO.
	Discipline mux.Discipline
	// StaggerAligned disables the round-robin phase offsets (ablation).
	StaggerAligned bool
	// Workload selects extremal (default) or VBR group flows.
	Workload Workload
	// Specs, when non-nil, overrides envelope measurement (used by
	// sweeps to measure once and share). Length must equal the group
	// count.
	Specs []FlowSpec

	// Topology generates the underlay router graph. Nil selects the
	// paper's fixed 19-router backbone.
	Topology topo.Generator
	// Groups, when non-nil, gives each group its explicit member set and
	// source. Nil selects the paper's model: every host joins all
	// NumGroups groups and group g's flow enters at host g % NumHosts.
	Groups []GroupSpec
	// NumGroups sets the group count when Groups is nil. 0 means one
	// group per mix flow (the paper's 3). Ignored when Groups is non-nil.
	NumGroups int
	// UplinkClasses draws heterogeneous per-host capacity multipliers
	// (see topo.UplinkClass). Empty keeps the paper's homogeneous hosts.
	UplinkClasses []topo.UplinkClass

	// Events, when non-empty, turns on the session control plane: the
	// listed membership changes are applied as DES events during the run —
	// joins graft new members onto the group tree, leaves prune them and
	// repair the orphaned subtrees (see control.go). Requires a regulated
	// scheme (the capacity-aware comparator's shared tree cannot express
	// per-group membership drift). An empty Events compiles to exactly the
	// static session of the paper.
	Events []MembershipEvent
	// Faults, when non-empty, turns on the fault-injection plane: the
	// listed correlated failures (domain outages, partition/heal, mass
	// membership transitions) execute as DES events during the run and
	// their recovery is measured per event (see faults.go). Requires a
	// regulated scheme, like Events. The schedule is validated strictly at
	// build time; an empty Faults compiles to exactly the fault-free
	// session.
	Faults []FaultEvent
	// WindowSec, when > 0, records a max-delay series in buckets of this
	// many seconds — the transient view of worst-case delay around churn
	// events. 0 disables windowed measurement.
	WindowSec float64

	// Shards, when > 1, runs the session as a sharded conservative-
	// parallel simulation: hosts partition into router-granular shards,
	// each with a private engine, advanced in lock-step epochs by a
	// des.Coordinator (see Session). 0 or 1 runs one shard, which is the
	// bit-identity baseline.
	Shards int
}

func (c *Config) fillDefaults() {
	if c.NumHosts == 0 {
		c.NumHosts = 665
	}
	if c.NumHosts < 2 {
		panic("core: need at least two hosts")
	}
	if c.Load <= 0 || c.Load >= 1 {
		panic(fmt.Sprintf("core: load %v outside (0,1)", c.Load))
	}
	if c.Duration == 0 {
		c.Duration = 5 * des.Second
	}
	if c.CapacityFactor == 0 {
		c.CapacityFactor = 2.0
	}
	if c.EnvelopeHorizonSec == 0 {
		c.EnvelopeHorizonSec = DefaultEnvelopeHorizonSec
	}
	if c.ClusterK == 0 {
		c.ClusterK = 3
	}
	if c.Discipline != mux.LIFO && c.Discipline != mux.FIFO {
		panic(fmt.Sprintf("core: unknown MUX discipline %d", int(c.Discipline)))
	}
	if c.Topology == nil {
		c.Topology = topo.Backbone19Generator{}
	}
	if !c.TrafficSeed.IsSet() {
		c.TrafficSeed = UseSeed(c.Seed)
	}
	if len(c.Events) > 0 && !c.Scheme.Regulated() {
		panic("core: membership churn requires a regulated scheme")
	}
	if len(c.Faults) > 0 && !c.Scheme.Regulated() {
		panic("core: fault injection requires a regulated scheme")
	}
	if c.Scheme == SchemeCapacityAware && c.Strategy != "" && c.Strategy != "dsct" && c.Strategy != "nice" {
		panic(fmt.Sprintf("core: the capacity-aware scheme builds its own flat tree (location-aware \"dsct\" or location-blind \"nice\"); strategy %q does not apply", c.Strategy))
	}
	c.Reopt.fillDefaults(c.Scheme)
	if c.WindowSec < 0 {
		panic("core: WindowSec must be non-negative")
	}
	if c.Shards < 0 {
		panic("core: Shards must be non-negative")
	}
}

// strategyName resolves the session's overlay strategy name: the explicit
// Strategy when set, else "dsct".
func (c *Config) strategyName() string {
	if c.Strategy != "" {
		return c.Strategy
	}
	return "dsct"
}

// groupCount resolves the session's number of groups. Call after
// fillDefaults.
func (c *Config) groupCount() int {
	if c.Groups != nil {
		return len(c.Groups)
	}
	if c.NumGroups > 0 {
		return c.NumGroups
	}
	return c.Mix.NumFlows()
}

// resolveGroups materialises the per-group member sets and sources: the
// explicit Groups when given (validated), otherwise the paper's implicit
// full-membership model.
func (c *Config) resolveGroups(numGroups int) []GroupSpec {
	if c.Groups != nil {
		everyone := make([]int, c.NumHosts)
		for i := range everyone {
			everyone[i] = i
		}
		groups := make([]GroupSpec, numGroups)
		for g, spec := range c.Groups {
			if len(spec.Members) == 0 {
				// An empty member set means "everyone" — so scenarios can
				// mix full and partial groups without spelling out 10⁵
				// members.
				spec.Members = everyone
			}
			found := false
			for _, m := range spec.Members {
				if m < 0 || m >= c.NumHosts {
					panic(fmt.Sprintf("core: group %d member %d outside [0,%d)", g, m, c.NumHosts))
				}
				if m == spec.Source {
					found = true
				}
			}
			if !found {
				panic(fmt.Sprintf("core: group %d source %d not in its member set", g, spec.Source))
			}
			groups[g] = spec
		}
		return groups
	}
	members := make([]int, c.NumHosts)
	for i := range members {
		members[i] = i
	}
	groups := make([]GroupSpec, numGroups)
	for g := range groups {
		groups[g] = GroupSpec{Source: g % c.NumHosts, Members: members}
	}
	return groups
}

// Result reports one run's measurements.
type Result struct {
	// WDB is the worst-case multicast delay in seconds: the largest
	// source-to-member delay over all packets, members, and groups.
	WDB float64
	// PerGroupWDB breaks WDB down by group.
	PerGroupWDB []float64
	// MeanDelay is the average delivery delay across all receptions.
	MeanDelay float64
	// Layers is the max layer count over the group trees (Tables I–III).
	Layers int
	// TreeLayers breaks Layers down by group. A tree a partition has cut
	// at the end of the run reports its attached part: the layers of the
	// members still connected to the source.
	TreeLayers []int
	// Delivered counts packet receptions across all members and groups.
	Delivered uint64
	// ThresholdUtil is the adaptive algorithm's switching utilisation.
	ThresholdUtil float64
	// ModeSwitches counts regulator-model switches across hosts
	// (meaningful for SchemeAdaptive).
	ModeSwitches int
	// ConnCapacity is the base per-connection capacity C implied by the
	// load (heterogeneous hosts scale it by their uplink class).
	ConnCapacity float64
	// Specs echoes the flow envelopes used, for reuse across a sweep.
	Specs []FlowSpec

	// Control-plane outcome (zero for static sessions): applied joins and
	// leaves, orphan subtrees re-parented during repair, and events that
	// were no-ops (join of a member, leave of a non-member or source).
	Joins, Leaves, Regrafts, RejectedEvents int
	// Re-optimization outcome (zero unless Config.Reopt is enabled):
	// accepted tree changes (rewires plus rebuilds), members re-parented
	// by those changes, and per-group passes that evaluated a candidate
	// but kept the tree (hysteresis held, or no candidate improved).
	Reopts, ReoptMoves, ReoptRejected int
	// Lost counts disruption casualties: packets that arrived at a host
	// outside its membership interval (in flight across a leave) plus
	// regulator backlog abandoned when a forwarder departed.
	Lost uint64
	// PerGroupLost breaks Lost down by group.
	PerGroupLost []uint64
	// WindowMax is the per-window max-delay series (bucket width
	// WindowSec); nil unless Config.WindowSec was set.
	WindowMax []float64
	// WindowSec echoes the configured bucket width.
	WindowSec float64

	// Faults reports each injected fault event's measured impact and
	// recovery, in schedule order; empty unless Config.Faults was set.
	Faults []FaultOutcome
	// FaultLost totals the loss attributed to fault events: regulator
	// backlog abandoned by fault teardowns (also counted in Lost, like
	// churn teardowns) plus partition-cut drops (CutLost).
	FaultLost uint64
	// CutLost counts packets dropped crossing an active partition cut —
	// underlay loss, disjoint from the membership accounting in Lost.
	CutLost uint64

	// Sharded-execution diagnostics. Shards is the engine count the run
	// actually used; the rest are zero unless Shards > 1.
	Shards int
	// Epochs is the number of conservative epochs the coordinator ran.
	Epochs uint64
	// CrossShardMsgs is the number of boundary packets relayed between
	// shards.
	CrossShardMsgs uint64
	// StallShare is the measured epoch load imbalance in [0, 1): the
	// fraction of per-epoch worker capacity spent waiting at barriers
	// (0 = perfectly balanced). Deterministic — it is a function of
	// per-shard executed-event counts, not wall time.
	StallShare float64
}

// ShardCeiling is the run's scaling ceiling: total events ÷ Σ over epochs
// of the busiest shard's events — the speed-up the shard count could buy
// with a core per shard and a free barrier (Amdahl from the census). It is
// Shards·(1 − StallShare), since the stall share's numerator and
// denominator are Σ(n·busiest − total) and Σ n·busiest; 1 for a one-shard
// run. Deterministic like the stall share.
func (r Result) ShardCeiling() float64 { return float64(r.Shards) * (1 - r.StallShare) }

// groupState is the mutable per-group runtime: the current member set,
// the delivery tree, and the disruption tally. The control plane mutates
// it mid-run, through the tree-edit layer (edits.go), which gives the
// group a tree of its own on its first write; until then the tree is the
// blueprint's. A session with no Events is bit-identical to the
// pre-control-plane architecture.
//
// member is one bit per host: a capacity-capped window of ⌈N/64⌉ words in
// the session's one membership slab (compile), so K groups cost K·N bits.
// Neighbouring groups share no word — windows are word-aligned — and a
// word is written only where nothing else runs: by its own group's compile
// worker, by the snapshot's group record, or by the control and fault
// planes at a coordinator barrier, with every shard quiesced. A byte per
// host could not tear a neighbour's entry; a bit can, through a racing
// read-modify-write of their shared word, which is why both halves must
// hold.
type groupState struct {
	spec   GroupSpec     // the compiled (initial) membership
	tree   *overlay.Tree // current delivery tree
	member bitset        // current membership by host id
	lost   uint64        // packets lost to membership churn (see Result.Lost)
	// strat and lim are the strategy that built the tree and its graft
	// constraints, kept so churn grafts/repairs and re-optimization use
	// strategy-specific placement. Nil for the capacity-aware scheme's
	// shared flat trees, which the control plane never mutates.
	strat overlay.Strategy
	lim   overlay.Limits
	// treeCfg is the overlay build configuration the tree was compiled
	// with, reused (with a derived seed) by full rebuilds.
	treeCfg overlay.Config
	// detached parks the subtree roots a partition severed off the tree,
	// ascending, until the heal re-attaches them (see faults.go). While it
	// is non-empty the tree does not span the member set and the reopt
	// plane holds off.
	detached []int
}

// bitset is a set of small non-negative integers, one bit each.
type bitset []uint64

// reset empties the set and makes it hold [0, n).
func (b *bitset) reset(n int) {
	*b = slices.Grow((*b)[:0], words(n))[:words(n)]
	clear(*b)
}

func (b bitset) set(i int)      { b[uint(i)/64] |= 1 << (uint(i) % 64) }
func (b bitset) unset(i int)    { b[uint(i)/64] &^= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[uint(i)/64]&(1<<(uint(i)%64)) != 0 }

// words is the length of a bitset holding [0, n).
func words(n int) int { return (n + 63) / 64 }

// shardPacket is the flat cross-shard payload: a packet bound for a host
// on another shard. It travels through the coordinator's pooled mailbox
// records — no per-packet closure, no boxing — so the boundary handoff
// allocates nothing in steady state.
type shardPacket struct {
	host int
	p    traffic.Packet
}

// shardRuntime is one shard's private execution state: an engine, a
// fabric bound to it, the host environment, and shard-local measurement
// (merged after the run — observation must never cross shards mid-run).
type shardRuntime struct {
	s      *Session
	eng    *des.Engine
	fabric *netsim.Fabric
	env    *hostEnv

	perGroup []stats.MaxTracker
	delays   stats.Welford
	deliver  uint64
	lost     []uint64         // per-group churn drops observed at owned hosts
	windows  *stats.WindowMax // nil unless cfg.WindowSec > 0
	faultCut []uint64         // per fault event: cut drops at owned senders
}

// Session is a fully wired multi-group EMcast simulation: an immutable
// compiled substrate (underlay, flow envelopes, per-group trees) under one
// or more shards. The host population partitions into router-granular
// shards (whole local domains stay together), each shard owns a private
// engine with its own fabric view, regulator banks, MUXes, and shard-local
// measurement, and a des.Coordinator advances the shards in lock-step
// epochs bounded by the per-pair cross-shard propagation delays. Packets
// whose destination lives on another shard hand off through the
// coordinator's per-pair mailboxes and are merged into the destination
// engine at epoch barriers under the (at, lamport, srcShard, seq) total
// order, so runs are bit-stable for a fixed shard count. Control-plane,
// fault, and re-optimization events — which mutate trees and host state
// spanning shards — apply at coordinator barriers with every engine
// quiesced at exactly the event time, so they win same-time ties.
//
// The shard count is data, not a type: one shard is a coordinator over one
// engine, whose epochs are unbounded, so the run is Engine.RunUntil between
// barriers. That case is what the paper goldens pin bit for bit, and it is
// the oracle every multi-shard differential compares against.
type Session struct {
	sub       *substrate
	*sharding // the host partition and lookahead matrix, its blueprint's
	sh        []*shardRuntime
	hosts     []host // global host array, each wired to its owning shard's env
	coord     *des.Coordinator[shardPacket]
	ctl       *controlPlane // nil for static sessions
	ro        *reoptPlane   // nil unless cfg.Reopt is enabled
	fp        *faultPlane   // nil unless cfg.Faults is set

	sources  []traffic.Source // built by Start (or a snapshot restore)
	started  bool
	snapSize int // size of the last snapshot taken, or restored from: capacity hint for the next
}

// resumeState marks a session build as a checkpoint-restore skeleton: the
// engine-independent structure compiles as usual, but hosts come up bare
// (children, MUXes, regulators, and modes arrive from the snapshot) and
// only barriers strictly after the checkpoint instant are registered —
// those at or before it already fired in the original run.
type resumeState struct {
	at des.Time // checkpoint instant
}

// NewSession builds the network, trees, and host machinery for cfg, on
// cfg.Shards shards (fewer when the underlay has fewer populated router
// domains).
func NewSession(cfg Config) *Session {
	return newSessionFrom(compileSubstrate(cfg), nil)
}

// newSessionFrom wires the shard engines over a compiled substrate; a
// non-nil rs builds the checkpoint-restore skeleton instead. The wiring
// order (hosts in global id order, controllers immediately after their
// host) fixes each engine's event sequence numbers — a shard's schedule is
// the projection of the one-shard schedule onto its hosts — and is pinned
// by the golden bit-identity tests.
func newSessionFrom(sub *substrate, rs *resumeState) *Session {
	cfg := sub.cfg
	s := &Session{sub: sub, sharding: sub.bp.shardingFor(cfg.Shards)}
	owner := s.owner
	nsh := len(s.la)

	engines := make([]*des.Engine, nsh)
	for i := range engines {
		engines[i] = des.New()
	}
	// Per-(src, dst) pair lookahead: distant shard pairs do not
	// over-synchronise each other. One shard has no pairs, so nothing ever
	// bounds its epochs.
	s.coord = des.NewCoordinatorMatrix[shardPacket](engines, s.la)
	s.coord.OnDeliver(func(dst int, m shardPacket) {
		s.sh[dst].fabric.Deliver(m.host, m.p)
	})

	var faults []FaultEvent
	if len(cfg.Faults) > 0 {
		faults = eventsWithin(cfg.Faults, cfg.Duration, func(ev FaultEvent) des.Time { return ev.At })
	}

	numGroups := sub.numGroups()
	bursts := RegulatorBursts(sub.specs, sub.conn)
	uniform := !slices.ContainsFunc(sub.specs, func(sp FlowSpec) bool {
		return sp.Sigma != sub.specs[0].Sigma || sp.Rho != sub.specs[0].Rho
	})
	// Every shard's fabric delivers through one table of the hosts, each
	// the receiver of its own packets; a host appears in it once built.
	receivers := make([]traffic.Sink, cfg.NumHosts)
	s.sh = make([]*shardRuntime, nsh)
	for si := 0; si < nsh; si++ {
		sh := &shardRuntime{
			s:        s,
			eng:      engines[si],
			perGroup: make([]stats.MaxTracker, numGroups),
			lost:     make([]uint64, numGroups),
		}
		if cfg.WindowSec > 0 {
			sh.windows = stats.NewWindowMax(cfg.WindowSec)
		}
		var fc netsim.FabricConfig
		if len(faults) > 0 {
			// The Drop hook reads the fault plane through s at send time (the
			// plane is built after the hosts); cut drops tally shard-locally
			// and merge in shard order after the run.
			sh.faultCut = make([]uint64, len(faults))
			fc.Drop = func(src, dst int) bool { return s.fp.cutDrop(sh.faultCut, src, dst) }
		}
		if nsh > 1 {
			fc.Local = func(h int) bool { return owner[h] == si }
			fc.Remote = func(dst int, at des.Time, p traffic.Packet) {
				s.coord.PostPayload(si, owner[dst], at, shardPacket{host: dst, p: p})
			}
		}
		fc.Receivers = receivers
		sh.fabric = netsim.NewFabric(sh.eng, sub.net, fc)
		sh.env = &hostEnv{
			rt:        sh,
			eng:       sh.eng,
			specs:     sub.specs,
			conn:      sub.conn,
			mults:     sub.mults,
			bursts:    bursts,
			uniform:   uniform,
			aligned:   cfg.StaggerAligned,
			scheme:    cfg.Scheme,
			threshold: sub.threshold,
			ctlEvery:  ctlInterval,
			line:      mux.NewLine(sh.eng, len(sub.specs), cfg.Discipline, sh.fabric),
		}
		if cfg.Scheme == SchemeCapacityAware {
			sh.env.capAware = true
			sh.env.capFactor = cfg.CapacityFactor
		}
		s.sh[si] = sh
	}

	// Hosts come up bare, in one array. A restore wires nothing here:
	// forwarders, children, MUXes and modes all come from the snapshot,
	// which has the trees they derive from. A live build wires each host
	// with connections from its child sets, in slabs sized from all of
	// them.
	var conns [][]int
	if rs == nil {
		conns = hostConns(sub.plan)
		s.sizeSlabs(sub.plan, conns)
	}
	s.hosts = make([]host, cfg.NumHosts)
	for id := range s.hosts {
		h := &s.hosts[id]
		*h = host{id: int32(id), env: s.sh[owner[id]].env}
		receivers[id] = h
		if rs == nil {
			h.wire(sub.plan.of(id), conns[id])
			if cfg.Scheme == SchemeAdaptive && h.fwd != nil {
				h.startController()
			}
		}
	}
	// Every follower the build made is on its clock: seat them (a restore
	// has made no clock yet).
	for _, sh := range s.sh {
		for _, c := range sh.eng.Owners(des.KindSRLOn) {
			sh.env.slabs.reg.Seat(c.(*regulator.Cycle))
		}
	}

	if len(faults) > 0 {
		s.fp = newFaultPlane(sub, s.hosts, faults)
	}
	var events []MembershipEvent
	if len(cfg.Events) > 0 {
		s.ctl = &controlPlane{edits: newEdits(sub, s.hosts)}
		if s.fp != nil {
			s.ctl.down = s.fp.down
		}
		events = eventsWithin(cfg.Events, cfg.Duration, func(ev MembershipEvent) des.Time { return ev.At })
	}
	var reopts []des.Time
	if cfg.Reopt.Enabled() {
		s.ro = newReoptPlane(sub, s.hosts)
		reopts = reoptTimes(cfg.Reopt.Every, cfg.Duration)
	}
	s.registerBarriers(faults, events, reopts, rs)
	return s
}

// sizeSlabs gives each shard's environment slabs sized for what wiring the
// child sets of plan make there: per connection a MUX and a
// connection-table entry; per (group, child) edge a queued packet in
// the child's MUX; per group a forwarding host carries, a regulator of the
// initial mode, its link record, a bank entry and a seat in its clock's
// waiting list; per host with connections a forwarder. What a graft wires
// later — a forwarder at a host that had no children, a connection, a
// regulator — is carved from refill chunks. Under (σ, ρ, λ) the build also
// makes a duty-cycle clock per group a shard forwards at each capacity its
// forwarders have: one per group when the hosts are homogeneous, at most
// one per uplink class otherwise.
func (s *Session) sizeSlabs(plan *childPlan, conns [][]int) {
	type count struct{ fwds, conns, edges, groups, clocks int }
	per := make([]count, len(s.sh))
	cfg := s.sub.cfg
	numGroups := s.sub.numGroups()
	clocks := initialMode(cfg.Scheme) == SchemeSRL
	var forwarded bitset // (shard, group) pairs with a forwarder
	if clocks {
		forwarded.reset(len(s.sh) * numGroups)
	}
	for id := range conns {
		si := s.owner[id]
		n := &per[si]
		if len(conns[id]) > 0 {
			gc := plan.of(id)
			n.fwds++
			n.conns += len(conns[id])
			n.groups += len(gc.groups)
			for i, cs := range gc.kids {
				n.edges += len(cs)
				if k := si*numGroups + int(gc.groups[i]); clocks && len(cs) > 0 && !forwarded.has(k) {
					forwarded.set(k)
					n.clocks += max(1, len(cfg.UplinkClasses))
				}
			}
		}
	}
	for si, sh := range s.sh {
		n, sl := per[si], &sh.env.slabs
		sh.eng.Grow(des.KindMuxDone, n.conns)
		sl.mux = mux.NewSlab(n.conns, n.edges)
		sl.fwds = snap.NewArena[forwarder](n.fwds)
		sl.muxChild = snap.NewArena[int32](n.conns)
		sl.muxes = snap.NewArena[*mux.Mux](n.conns)
		switch initialMode(cfg.Scheme) {
		case SchemeSigmaRho:
			sh.eng.Grow(des.KindSRRetry, n.groups)
			sl.reg = regulator.NewSlab(n.groups, 0, 0, sh.env.line.Pool())
			sl.srBanks = snap.NewArena[*regulator.SigmaRho](n.groups)
		case SchemeSRL:
			sh.eng.Grow(des.KindSRLDone, n.groups)
			sh.eng.Grow(des.KindSRLOn, n.clocks)
			sl.reg = regulator.NewSlab(0, n.clocks, n.groups, sh.env.line.Pool())
			sl.srlBanks = snap.NewArena[*regulator.SRL](n.groups)
			sh.env.sizeClocks(n.clocks)
		default:
			continue // capacity-aware: no regulators
		}
		sl.regLinks = snap.NewArena[regLink](n.groups)
	}
}

// registerBarriers is the one mechanism that applies control actions: one
// merged ascending barrier list for all three planes (each list already
// time-sorted). At a shared instant the faults apply first, then the
// membership events, then the re-optimization pass, which sees the churned
// tree.
func (s *Session) registerBarriers(faults []FaultEvent, events []MembershipEvent, reopts []des.Time, rs *resumeState) {
	var times []des.Time
	for _, ev := range faults {
		times = append(times, ev.At)
	}
	for _, ev := range events {
		times = append(times, ev.At)
	}
	times = append(times, reopts...)
	if len(times) == 0 {
		return
	}
	slices.Sort(times)
	times = slices.Compact(times)
	nextF, next, nextRo := 0, 0, 0
	if rs != nil {
		// Resume: barriers at or before the checkpoint already fired in
		// the original run — drop them and prime the cursors so the
		// remaining barriers index the full event lists correctly.
		for nextF < len(faults) && faults[nextF].At <= rs.at {
			nextF++
		}
		for next < len(events) && events[next].At <= rs.at {
			next++
		}
		for nextRo < len(reopts) && reopts[nextRo] <= rs.at {
			nextRo++
		}
		keep := times[:0]
		for _, at := range times {
			if at > rs.at {
				keep = append(keep, at)
			}
		}
		times = keep
	}
	s.coord.AtBarriers(times, func(at des.Time) {
		// Apply every event at this instant in the shared sorted order,
		// with all shards quiesced at exactly `at`.
		for nextF < len(faults) && faults[nextF].At == at {
			s.fp.apply(nextF)
			nextF++
		}
		for next < len(events) && events[next].At == at {
			s.ctl.apply(events[next])
			next++
		}
		if nextRo < len(reopts) && reopts[nextRo] == at {
			s.ro.reoptimize(at)
			nextRo++
		}
	})
}

// Shards reports how many shards the session runs on.
func (s *Session) Shards() int { return len(s.sh) }

// ShardAccount reports the coordinator's per-shard ledger (events
// executed and active epochs per shard, epochs with two or more active
// shards) since this session was built or restored. It sits outside Result, which the sharded ≡
// sequential and restored ≡ straight identities compare whole.
func (s *Session) ShardAccount() des.ShardAccount { return s.coord.Account() }

// Lookahead reports the minimum cross-shard lookahead, the narrowest a
// conservative epoch can be; 0 on one shard, which has no cross-shard pair.
func (s *Session) Lookahead() des.Duration {
	if len(s.sh) == 1 {
		return 0
	}
	return s.coord.Lookahead()
}

// receive records delivery of a group packet at a member, in the owning
// shard's accumulators, and hands it to the host's forwarding pipeline. A
// packet arriving at a host outside its membership interval — it was in
// flight when the host left the group — is dropped and counted as churn
// loss, never measured or forwarded: the membership invariant the
// control-plane tests pin down. Membership reads are safe: a group's
// member window (one bit per host in the session's membership slab) only
// changes at coordinator barriers, when no shard is executing.
func (sh *shardRuntime) receive(h *host, p traffic.Packet) {
	s, id, g := sh.s, int(h.id), p.Flow
	st := s.sub.groups[g]
	if !st.member.has(id) {
		sh.lost[g]++
		return
	}
	d := p.Delay(sh.eng.Now()).Seconds()
	sh.perGroup[g].Observe(d, p.ID)
	sh.delays.Add(d)
	sh.deliver++
	if sh.windows != nil {
		sh.windows.Observe(sh.eng.Now().Seconds(), d)
	}
	if s.ro != nil {
		// Safe across shards: host id is owned by exactly one shard, so
		// each (group, host) estimate cell has a single writer.
		s.ro.observe(g, id, d)
	}
	if s.fp != nil {
		// Same single-writer argument: only id's owning shard delivers to
		// it, so its firstAt cell has one writer.
		s.fp.onDeliver(g, id, sh.eng.Now())
	}
	h.observe(p)
	h.forward(g, p)
}

// rootSink is a host as the root of the flows its trees carry: where a
// source injects a packet of group p.Flow (a source's flow is its group).
// The root host "receives" at delay zero conceptually; measurement only
// counts downstream deliveries, so the source feeds forward() direct. A
// source's sink is its root host's record itself, so starting or restoring
// K sources binds nothing per group.
type rootSink host

// Put implements traffic.Sink.
func (r *rootSink) Put(p traffic.Packet) {
	h := (*host)(r)
	h.observe(p)
	h.forward(p.Flow, p)
}

// rootOf is the sink group g's source emits into: its tree root.
func (s *Session) rootOf(g int) *rootSink {
	return (*rootSink)(&s.hosts[s.sub.groups[g].tree.Source])
}

// buildSources builds the per-group traffic sources, in group order from
// streams derived from the traffic seed alone, so emissions are identical
// at every shard count.
func (s *Session) buildSources() []traffic.Source {
	cfg := s.sub.cfg
	return cfg.Workload.BuildSourcesN(cfg.Mix, s.sub.numGroups(), cfg.TrafficSeed.Or(cfg.Seed),
		DefaultEnvelopeMargin, DefaultBurstSec)
}

// rootEngine is the engine group g's source runs on: its tree root's shard.
func (s *Session) rootEngine(g int) *des.Engine {
	return s.sh[s.owner[s.sub.groups[g].tree.Source]].eng
}

// Start builds and launches the traffic sources. Idempotent; Run calls it,
// and checkpoint drivers call it once before stepping with RunTo.
func (s *Session) Start() {
	if s.started {
		return
	}
	s.started = true
	s.sources = s.buildSources()
	for g := len(s.sources) - 1; g >= 0; g-- { // highest flow first: each owner table and ready run is made once
		s.rootEngine(g).GrowReady(g + 1)
		s.sources[g].(snapSource).Resume(s.rootEngine(g), s.sub.cfg.Duration, s.rootOf(g))
	}
	for g, src := range s.sources { // binds again, in place, and schedules in flow order
		src.StartSink(s.rootEngine(g), s.sub.cfg.Duration, s.rootOf(g))
	}
}

// RunTo advances every shard to exactly time t: all events and barriers at
// or before t have fired and every engine is parked at t — a global
// quiesce point.
func (s *Session) RunTo(t des.Time) { s.coord.Run(t) }

// Finish runs out the remaining events through the drain tail and returns
// the merged measurements. Merge order is fixed (group-major, shard-
// minor), so results are deterministic for a given shard count.
func (s *Session) Finish() Result {
	cfg := s.sub.cfg
	numGroups := s.sub.numGroups()
	// Drain tail: generous for duty-cycle vacations at every hop.
	s.coord.Run(cfg.Duration + 20*des.Second)

	res := Result{
		PerGroupWDB:   make([]float64, numGroups),
		TreeLayers:    make([]int, numGroups),
		PerGroupLost:  make([]uint64, numGroups),
		ThresholdUtil: s.sub.threshold,
		ConnCapacity:  s.sub.conn,
		Specs:         s.sub.specs,
		WindowSec:     cfg.WindowSec,
		Shards:        len(s.sh),
	}
	if len(s.sh) > 1 {
		// One shard's lone epoch per barrier stretch says nothing about
		// synchronisation cost; the diagnostics stay zero there.
		res.Epochs = s.coord.Epochs()
		res.CrossShardMsgs = s.coord.Messages()
		res.StallShare = s.coord.StallShare()
	}
	var delays stats.Welford
	var windows *stats.WindowMax
	for _, sh := range s.sh {
		delays.Merge(sh.delays)
		res.Delivered += sh.deliver
		if sh.windows != nil {
			if windows == nil {
				windows = stats.NewWindowMax(cfg.WindowSec)
			}
			windows.Merge(sh.windows)
		}
	}
	res.MeanDelay = delays.Mean()
	for g := 0; g < numGroups; g++ {
		var mt stats.MaxTracker
		lost := s.sub.groups[g].lost // control-plane losses (quiesced writes)
		for _, sh := range s.sh {
			mt.Merge(sh.perGroup[g])
			lost += sh.lost[g]
		}
		res.PerGroupWDB[g] = mt.Max()
		if res.PerGroupWDB[g] > res.WDB {
			res.WDB = res.PerGroupWDB[g]
		}
		res.TreeLayers[g] = s.sub.groups[g].tree.Layers()
		if res.TreeLayers[g] > res.Layers {
			res.Layers = res.TreeLayers[g]
		}
		res.PerGroupLost[g] = lost
		res.Lost += lost
	}
	for _, h := range s.hosts {
		if h.fwd != nil {
			res.ModeSwitches += int(h.fwd.switches)
		}
	}
	if s.ctl != nil {
		res.Joins, res.Leaves = s.ctl.joins, s.ctl.leaves
		res.Regrafts, res.RejectedEvents = s.ctl.regrafts, s.ctl.rejected
	}
	if s.ro != nil {
		res.Reopts, res.ReoptMoves, res.ReoptRejected = s.ro.accepted, s.ro.moves, s.ro.rejected
	}
	if windows != nil {
		res.WindowMax = windows.Series()
	}
	if s.fp != nil {
		cut := make([]uint64, len(s.fp.events))
		for _, sh := range s.sh {
			for i, n := range sh.faultCut {
				cut[i] += n
			}
		}
		s.fp.finish(&res, cut)
	}
	return res
}

// Run drives the simulation for the configured duration plus a drain tail
// and returns the measurements.
func (s *Session) Run() Result {
	s.Start()
	return s.Finish()
}

// Groups exposes the compiled (initial) per-group member sets and
// sources; the control plane's later mutations do not show here.
func (s *Session) Groups() []GroupSpec {
	out := make([]GroupSpec, len(s.sub.groups))
	for g, st := range s.sub.groups {
		out[g] = st.spec
	}
	return out
}

// Network exposes the underlay (for inspection tools and tests).
func (s *Session) Network() *topo.Network { return s.sub.net }

// Run builds a session for cfg and runs it.
func Run(cfg Config) Result {
	return NewSession(cfg).Run()
}
