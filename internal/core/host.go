package core

import (
	"slices"

	"repro/internal/calculus"
	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/regulator"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func secs(s float64) des.Duration { return des.Seconds(s) }

// component is the one shape of thing checkpointing knows how to carry:
// the per-connection MUX, the two regulators and the duty-cycle clock all
// satisfy it. Each registers in its engine as the owner of its own events
// when its slab makes it, so the engine's owner table for the family's
// kinds holds the components by slot, the arg their events carry.
// Snapshot writes the mutable words, which the family's slab reads back
// as it makes the component (restoreComp).
type component interface {
	des.Handler
	Snapshot(w *snap.Writer)
}

// family selects one kind of component. What a family's sub-index means
// differs: a MUX serves a child connection, a regulator or a clock a group.
// The zero value is no family, so a table row that names none needs no
// marker. A checkpoint carries the families in this order, so a clock is
// restored before the regulators that follow it.
type family uint8

const (
	famNone  family = iota
	famMux          // sub = child host id
	famSR           // sub = group
	famCycle        // sub = group
	famSRL          // sub = group
	numFamilies
)

// famKind is a kind of each family's events: its owner table is the
// family's. kindFam is the family, if any, whose slot an event's arg is.
var (
	famKind = [numFamilies]uint16{famMux: des.KindMuxDone, famSR: des.KindSRRetry, famCycle: des.KindSRLOn, famSRL: des.KindSRLDone}
	kindFam = [des.NumKinds]family{des.KindMuxDone: famMux, des.KindSRRetry: famSR,
		des.KindSRLOn: famCycle, des.KindSRLOff: famCycle, des.KindSRLDone: famSRL}
)

// compIdent names a registered component: the host that owns it — for a
// clock, which no host owns, the host whose capacity it was first built
// for — and the child connection (MUX) or group (regulator, clock) it
// serves.
type compIdent struct{ host, sub int32 }

// ident names the component at slot of its family's owner table. A MUX or
// a regulator names its host and sub-index through its output link; a
// clock, which has none, through clocks.
func (e *hostEnv) ident(slot int, c component) compIdent {
	switch c := c.(type) {
	case *mux.Mux:
		l := c.Out().(*muxLink)
		return compIdent{int32(l.h.id), l.child}
	case *regulator.SigmaRho:
		l := c.Out().(*regLink)
		return compIdent{int32(l.h.id), l.g}
	case *regulator.SRL:
		l := c.Out().(*regLink)
		return compIdent{int32(l.h.id), l.g}
	}
	return e.clocks[slot]
}

// hostEnv is what a regulated host needs from its surrounding session.
type hostEnv struct {
	eng        *des.Engine
	specs      []FlowSpec
	conn       float64 // base per-connection capacity C (bits/second)
	mults      []float64
	bursts     []float64 // σᵢ, the (σ, ρ) regulators' bursts
	discipline mux.Discipline
	aligned    bool    // stagger ablation: align all duty-cycle phases
	threshold  float64 // adaptive switching utilisation (for late attach)
	send       func(from, to int, p traffic.Packet)
	// capAware selects the capacity-aware connection model: the host's
	// aggregate uplink of capFactor × its own C splits across its
	// distinct child connections. Regulated schemes instead give every
	// connection the host's full C (the paper's per-output-link model).
	capAware  bool
	capFactor float64
	// rt is the shard whose accumulators a delivery to one of this
	// engine's hosts updates (host.Put); nil in a hand-built environment
	// that never receives.
	rt *shardRuntime

	// slabs is the storage this engine's components and their hosts' tables
	// are carved from; the zero value makes each on its own.
	slabs compSlabs
	// clocks names the group of each duty-cycle clock in the engine's
	// clock table, by slot, and the host whose capacity it was first made
	// for (ident). Append-only, as the owner tables are — a component
	// detached mid-run keeps its slot, because an event already in the
	// queue may still name it.
	clocks []compIdent
	// cycles finds this engine's duty-cycle clock for a (group, host
	// capacity) pair — the pair fixes the stagger offset, W and V. Clocks are
	// made on first use and never retired.
	cycles map[cycleKey]*regulator.Cycle
	// stars holds the (σ, ρ, λ) regulators' bursts, σ*ᵢ of Theorem 1, by
	// connection capacity and group — the key of the clocks in cycles.
	// Filled a capacity at a time on first use (sigmaStars), and never
	// when uniform: flows of one envelope all attain the minimum, so their
	// σ* is bursts at every capacity.
	stars   map[float64][]float64
	uniform bool
}

type cycleKey struct {
	g    int32
	conn float64
}

// sigmaStars returns every group's σ*ᵢ at connection capacity c: Theorem 1's
// regulator bursts, ρᵢ(1−ρᵢ)·minⱼ σⱼ/(ρⱼ(1−ρⱼ)) with ρ normalised to c. They
// give every flow's duty cycle the same period, σ*ᵢ/(c·ρᵢ(1−ρᵢ)), which is
// what lets cycleSchedule's stagger tile the clocks and what DhatHetero
// assumes; with the flows' own σᵢ the periods of a mixed load differ. A
// homogeneous mix's σ* is its σ.
func (e *hostEnv) sigmaStars(c float64) []float64 {
	if e.uniform {
		return e.bursts
	}
	if row, ok := e.stars[c]; ok {
		return row
	}
	rhos := make([]float64, len(e.specs))
	for i, s := range e.specs {
		rhos[i] = s.Rho / c
	}
	row := calculus.SigmaStar(e.bursts, rhos)
	if e.stars == nil {
		e.stars = make(map[float64][]float64)
	}
	e.stars[c] = row
	return row
}

// hostConn returns host id's per-connection capacity: the base C scaled
// by the host's uplink class multiplier (1 for the paper's homogeneous
// population).
func (e *hostEnv) hostConn(id int) float64 {
	if e.mults == nil {
		return e.conn
	}
	return e.conn * e.mults[id]
}

// connectionCapacity returns the capacity of one output connection for
// host id with the given number of distinct child connections.
func (e *hostEnv) connectionCapacity(id, numConns int) float64 {
	c := e.hostConn(id)
	if !e.capAware {
		return c
	}
	if numConns < 1 {
		numConns = 1
	}
	return e.capFactor * c / float64(numConns)
}

// host models one regulated group end host: per-flow regulators feeding a
// replicator that fans out into one general MUX per child connection
// (Section III's model, one MUX per output link).
type host struct {
	id      int
	env     *hostEnv
	conn    float64 // this host's per-connection capacity
	scheme  Scheme  // the session's configured scheme
	mode    Scheme  // the concrete scheme in force at any instant
	modeSet bool

	// children holds this host's per-group child sets, flattened to the
	// groups the host actually forwards (see groupChildren) — absent
	// groups, including every group the host is not a member of, cost
	// nothing.
	children groupChildren
	// Connections de-duplicate children across groups, flattened to
	// sorted parallel arrays (same rationale as groupChildren): muxChild
	// holds the ascending child ids with live connections, muxes the
	// matching MUXes. The map this replaces was the last per-host
	// map-backed hot-path structure — 100k hosts of small maps cost the
	// GC a scan stop at every connection on every cycle.
	muxChild []int32
	muxes    []*mux.Mux

	// Regulator banks: built lazily per mode, parallel to children's slots
	// (bank[i] regulates group children.groups[i]), so a host pays for the
	// groups it forwards, not for K. A nil bank has never been built; an
	// entry is nil until its mode first needs the regulator.
	srBank     []*regulator.SigmaRho
	srlBank    []*regulator.SRL
	srlCycling bool

	// Adaptive-control state, set by prepareController: the host itself is
	// the owner of the controller's self-rearming sampling tick, registered
	// in its engine at slot = host id.
	rate         *stats.WindowRate
	ctlEvery     des.Duration
	ctlThreshold float64
	switches     int
}

// Adaptive controller sampling parameters (paper's Adaptive Control
// Algorithm defaults); named so the checkpoint restore rebuilds the
// controller with exactly the creation-site values.
const (
	ctlWindow   = des.Second
	ctlInterval = 250 * des.Millisecond
)

// newHost wires a host for its (per-group) child sets. Hosts with no
// children build no forwarding machinery.
func newHost(id int, env *hostEnv, children groupChildren, initial Scheme) *host {
	h := bareHost(id, env, initial)
	h.wire(children, connsOf(children))
	return &h
}

// bareHost is a host with no children and no machinery — how a session
// build and a restore both start one, in an array they made for all.
func bareHost(id int, env *hostEnv, scheme Scheme) host {
	return host{id: id, env: env, conn: env.hostConn(id), scheme: scheme}
}

// connsOf returns the distinct child connections of a child set, sorted —
// the wiring plan wire consumes. Pure: session builds precompute it for
// every host in parallel (see hostConns).
func connsOf(children groupChildren) []int {
	var conns []int
	children.each(func(_ int, cs []int) {
		for _, c := range cs {
			conns = insertSortedDistinct(conns, c)
		}
	})
	return conns
}

// wire gives a bare host its child sets and the machinery they need: a
// MUX per connection in conns, which must be sorted ascending and
// distinct, with room for a packet of each group routed through it, and
// the initial mode's regulator bank. MUXes are created in that sorted
// order: component registry slots must be deterministic for snapshots to
// be stable.
func (h *host) wire(children groupChildren, conns []int) {
	h.children = children
	connCap := h.env.connectionCapacity(h.id, len(conns))
	h.muxChild = h.env.slabs.muxChild.Take(len(conns))
	h.muxes = h.env.slabs.muxes.Take(len(conns))
	// muxChild counts the groups routed through each connection before it
	// takes the connection's child id.
	for _, cs := range children.kids {
		for _, c := range cs {
			i, _ := slices.BinarySearch(conns, c)
			h.muxChild[i]++
		}
	}
	for i, c := range conns {
		h.muxes[i] = h.makeMux(c, connCap, int(h.muxChild[i]))
		h.muxChild[i] = int32(c)
	}
	if len(conns) > 0 {
		h.setMode(initialMode(h.scheme))
	}
}

// findMux returns child connection c's slot index, or -1.
func (h *host) findMux(c int) int {
	lo, hi := 0, len(h.muxChild)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(h.muxChild[mid]) < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.muxChild) && int(h.muxChild[lo]) == c {
		return lo
	}
	return -1
}

// muxAt returns child connection c's MUX, or nil when none is wired.
func (h *host) muxAt(c int) *mux.Mux {
	if i := h.findMux(c); i >= 0 {
		return h.muxes[i]
	}
	return nil
}

// putMux wires m as child connection c's MUX (sorted insert).
func (h *host) putMux(c int, m *mux.Mux) {
	lo, hi := 0, len(h.muxChild)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(h.muxChild[mid]) < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.muxChild) && int(h.muxChild[lo]) == c {
		h.muxes[lo] = m
		return
	}
	h.muxChild = append(h.muxChild, 0)
	h.muxes = append(h.muxes, nil)
	copy(h.muxChild[lo+1:], h.muxChild[lo:])
	copy(h.muxes[lo+1:], h.muxes[lo:])
	h.muxChild[lo] = int32(c)
	h.muxes[lo] = m
}

// dropMux unwires child connection c's MUX (a no-op when absent).
// In-flight MUX traffic still drains through the engine.
func (h *host) dropMux(c int) {
	i := h.findMux(c)
	if i < 0 {
		return
	}
	copy(h.muxChild[i:], h.muxChild[i+1:])
	copy(h.muxes[i:], h.muxes[i+1:])
	h.muxChild = h.muxChild[:len(h.muxChild)-1]
	h.muxes[len(h.muxes)-1] = nil
	h.muxes = h.muxes[:len(h.muxes)-1]
}

func initialMode(s Scheme) Scheme {
	if s == SchemeAdaptive {
		return SchemeSigmaRho // the algorithm's normal-load default
	}
	return s
}

// forward pushes a group-g packet into the active regulator bank (or
// straight to the replicator for the capacity-aware scheme).
func (h *host) forward(g int, p traffic.Packet) {
	i := h.children.find(g)
	if i < 0 || len(h.children.kids[i]) == 0 {
		return
	}
	switch h.mode {
	case SchemeSigmaRho:
		h.srBank[i].Enqueue(p)
	case SchemeSRL:
		h.srlBank[i].Enqueue(p)
	default: // capacity-aware: no regulation
		h.replicate(g, p)
	}
}

// replicate copies the packet into the MUX of every child connection for
// its group.
func (h *host) replicate(g int, p traffic.Packet) {
	for _, c := range h.children.get(g) {
		h.muxAt(c).Enqueue(p)
	}
}

// cycle returns group g's duty-cycle clock at this host's capacity, made
// and started on first use. The clock carries the paper's round-robin
// stagger, anchored at simulation time zero, so a bank (re)started mid-run
// — an adaptive switch back to (σ, ρ, λ), or a host that begins forwarding
// because churn grafted children under it — drops into the phase the global
// schedule prescribes for the current instant, independent of when (or in
// what order) hosts pick up forwarding duties.
func (h *host) cycle(g int) *regulator.Cycle {
	if c := h.findCycle(g); c != nil {
		return c
	}
	c := h.makeCycle(g)
	c.Start()
	return c
}

// findCycle returns the clock cycle would, or nil if it is yet to be made.
func (h *host) findCycle(g int) *regulator.Cycle {
	return h.env.cycles[cycleKey{int32(g), h.conn}]
}

// startCycles puts the host's SRL bank on its groups' clocks.
func (h *host) startCycles() {
	for i, r := range h.srlBank {
		if r != nil {
			r.Follow(h.cycle(int(h.children.groups[i])))
		}
	}
	h.srlCycling = true
}

// stopCycles takes the bank off its clocks and reopens the vacated queues
// so residual packets drain.
func (h *host) stopCycles() {
	for _, r := range h.srlBank {
		if r != nil {
			r.StopCycle()
		}
	}
	h.srlCycling = false
	for _, r := range h.srlBank {
		if r != nil {
			r.SetOn(true)
		}
	}
}

// ensureSRBank fills the (σ, ρ) bank for every group this host currently
// forwards, creating the bank on first use. Under static membership this
// runs once with the build-time child sets; under churn it also fills
// entries for groups whose children arrived after the bank was built.
func (h *host) ensureSRBank() {
	if h.srBank == nil {
		h.srBank = h.env.slabs.srBanks.Take(len(h.children.groups))
	}
	for i, g := range h.children.groups {
		if len(h.children.kids[i]) > 0 && h.srBank[i] == nil {
			h.srBank[i] = h.makeSR(int(g))
		}
	}
}

// ensureSRLBank is ensureSRBank for the (σ, ρ, λ) bank. It puts no
// regulator on a clock; the caller does.
func (h *host) ensureSRLBank() {
	if h.srlBank == nil {
		h.srlBank = h.env.slabs.srlBanks.Take(len(h.children.groups))
	}
	for i, g := range h.children.groups {
		if len(h.children.kids[i]) > 0 && h.srlBank[i] == nil {
			h.srlBank[i] = h.makeSRL(int(g))
		}
	}
}

// --- Component creation and the checkpoint's view of it (snapshot.go) ---
//
// The four make functions are the constructors of components in a live
// run; restoreComp is their checkpoint-restore twin, handing the same slab
// the same arguments — so a restored component is made exactly as the
// original was, points its output at an identical link record, and
// registers in the next slot of its engine's owner table. Both
// paths carve from the engine's slabs, which a live build sizes from the
// compiled child sets and a restore from the components record's totals;
// what outruns them (a connection churn grafts later) is made on its own.

// muxLink is where child connection c's MUX puts a packet: onto the
// fabric, from its host to c.
type muxLink struct {
	h     *host
	child int32
}

// Put implements traffic.Sink.
func (l *muxLink) Put(p traffic.Packet) { l.h.env.send(l.h.id, int(l.child), p) }

// regLink is where group g's regulator puts a packet: into its host's
// replicator for g.
type regLink struct {
	h *host
	g int32
}

// Put implements traffic.Sink.
func (l *regLink) Put(p traffic.Packet) { l.h.replicate(int(l.g), p) }

// muxOut is the output of child connection c's MUX.
func (h *host) muxOut(c int) *muxLink {
	l := h.env.slabs.muxLinks.One()
	*l = muxLink{h, int32(c)}
	return l
}

// regOut is the output of group g's regulator.
func (h *host) regOut(g int) *regLink {
	l := h.env.slabs.regLinks.One()
	*l = regLink{h, int32(g)}
	return l
}

// makeMux creates and registers the connection MUX for child c, with room
// for routed queued packets, without wiring it into h.muxes.
func (h *host) makeMux(c int, capacity float64, routed int) *mux.Mux {
	env := h.env
	return env.slabs.mux.New(env.eng, len(env.specs), capacity, env.discipline, h.muxOut(c), routed)
}

// makeSR creates and registers group g's (σ, ρ) regulator.
func (h *host) makeSR(g int) *regulator.SigmaRho {
	env := h.env
	return env.slabs.reg.NewSigmaRho(env.eng, env.bursts[g], env.specs[g].Rho, h.regOut(g))
}

// makeSRL creates and registers group g's (σ, ρ, λ) regulator.
func (h *host) makeSRL(g int) *regulator.SRL {
	env := h.env
	return env.slabs.reg.NewSRL(env.eng, env.sigmaStars(h.conn)[g], env.specs[g].Rho, h.conn, h.regOut(g))
}

// cycleSchedule returns the (offset, W, V) of group g's duty-cycle clock at
// this host's capacity. The stagger offset is the sum of the working
// periods of all groups before g, accumulated over the full group index
// range, so a host that forwards only groups {2, 5} phases them exactly as
// a host forwarding every group would: the schedule is a per-group global,
// not a per-host accident of which trees put children here.
func (h *host) cycleSchedule(g int) (offset, w, v des.Duration) {
	env := h.env
	stars := env.sigmaStars(h.conn)
	if !env.aligned {
		for j := 0; j < g; j++ {
			wj, _ := regulator.DutyCycle(stars[j], env.specs[j].Rho, h.conn)
			offset += wj
		}
	}
	w, v = regulator.DutyCycle(stars[g], env.specs[g].Rho, h.conn)
	return offset, w, v
}

// makeCycle creates and registers — without starting it — group g's
// duty-cycle clock at this host's capacity.
func (h *host) makeCycle(g int) *regulator.Cycle {
	offset, w, v := h.cycleSchedule(g)
	return h.addCycle(h.env.slabs.reg.NewCycle(h.env.eng, offset, w, v), g)
}

// addCycle registers c as group g's clock at this host's capacity.
func (h *host) addCycle(c *regulator.Cycle, g int) *regulator.Cycle {
	env := h.env
	if env.cycles == nil {
		env.cycles = make(map[cycleKey]*regulator.Cycle)
	}
	env.cycles[cycleKey{int32(g), h.conn}] = c
	env.clocks = append(env.clocks, compIdent{int32(h.id), int32(g)})
	return c
}

// compSlabs is the storage one engine makes its components in — the
// components, the link records their outputs point at — and its hosts'
// connection tables and regulator banks. A live build sizes it from the
// compiled child sets (sizeSlabs); a restore sizes the tables from the
// restored trees and the components from the record's opening counts.
type compSlabs struct {
	mux      mux.Slab
	reg      regulator.Slab
	muxLinks snap.Arena[muxLink]
	regLinks snap.Arena[regLink]
	muxChild snap.Arena[int32]
	muxes    snap.Arena[*mux.Mux]
	srBanks  snap.Arena[*regulator.SigmaRho]
	srlBanks snap.Arena[*regulator.SRL]
}

// restoreComp re-creates family f's component for sub from the open
// record, in the engine's slabs, without putting it into service — one
// that was already torn down but is still named by a pending event stays
// uninstalled. capacity is the MUX's serialized capacity and routed the
// groups routed through its connection; the others use neither.
func (h *host) restoreComp(r *snap.Reader, f family, sub int, capacity float64, routed int) component {
	env := h.env
	sl := &env.slabs
	flows := len(env.specs)
	switch f {
	case famMux:
		return sl.mux.Restore(r, env.eng, flows, capacity, env.discipline, h.muxOut(sub), routed)
	case famSR:
		return sl.reg.RestoreSigmaRho(r, flows, env.eng, env.bursts[sub], env.specs[sub].Rho, h.regOut(sub))
	case famCycle:
		offset, w, v := h.cycleSchedule(sub)
		return h.addCycle(sl.reg.RestoreCycle(r, env.eng, offset, w, v), sub)
	default:
		return sl.reg.RestoreSRL(r, flows, env.eng, env.sigmaStars(h.conn)[sub], env.specs[sub].Rho, h.conn, h.regOut(sub))
	}
}

// isLive reports whether c is the component this host currently has in
// service for (f, sub), as opposed to a detached one draining its events.
// A clock is never retired.
func (h *host) isLive(f family, sub int, c component) bool {
	switch f {
	case famMux:
		return h.muxAt(sub) == c
	case famCycle:
		return true
	}
	i := h.children.find(sub)
	if i < 0 {
		return false
	}
	if f == famSR {
		return h.srBank != nil && h.srBank[i] == c
	}
	return h.srlBank != nil && h.srlBank[i] == c
}

// install puts a restored live component back into service; false when the
// host forwards nothing in the regulator's group, which no snapshot this
// package wrote says. Duty-cycle state comes from the restored words of
// the clock and its followers and from the re-inserted events — nothing here
// starts a clock, and restoreComp already put a restored one in the table.
func (h *host) install(f family, sub int, c component) bool {
	switch f {
	case famMux:
		h.putMux(sub, c.(*mux.Mux))
		return true
	case famCycle:
		return true
	}
	i := h.children.find(sub)
	if i < 0 {
		return false
	}
	if f == famSR {
		if h.srBank == nil {
			h.srBank = h.env.slabs.srBanks.Take(len(h.children.groups))
		}
		h.srBank[i] = c.(*regulator.SigmaRho)
	} else {
		if h.srlBank == nil {
			h.srlBank = h.env.slabs.srlBanks.Take(len(h.children.groups))
		}
		h.srlBank[i] = c.(*regulator.SRL)
	}
	return true
}

// setMode activates the regulator bank for the given scheme, building
// banks on first use. Packets already queued in the previous bank keep
// draining through it (make-before-break), so no traffic is lost on a
// switch.
func (h *host) setMode(m Scheme) {
	if h.modeSet && m == h.mode {
		return
	}
	switch m {
	case SchemeSigmaRho:
		h.ensureSRBank()
		if h.srlCycling {
			h.stopCycles()
		}
	case SchemeSRL:
		// Returning to SRL, the held-open gates become the clocks'.
		h.ensureSRLBank()
		h.startCycles()
	case SchemeCapacityAware:
		// No regulation machinery.
	default:
		panic("core: setMode with non-concrete scheme")
	}
	if h.modeSet {
		h.switches++
	}
	h.mode = m
	h.modeSet = true
}

// --- Dynamic forwarding state (driven by the session control plane) ---

// childInAnyGroup reports whether c is a child of this host in any group.
func (h *host) childInAnyGroup(c int) bool {
	for _, cs := range h.children.kids {
		for _, x := range cs {
			if x == c {
				return true
			}
		}
	}
	return false
}

// attachChild registers c as a child of this host in group g's tree,
// wiring the connection MUX and — on a host that was not forwarding at
// all, or was not forwarding this group — the regulator machinery, with
// the new duty cycle re-staggered onto the global schedule.
func (h *host) attachChild(g, c int) {
	if i, fresh := h.children.add(g, c); fresh {
		// Keep the banks parallel to the child slots.
		if h.srBank != nil {
			h.srBank = slices.Insert(h.srBank, i, nil)
		}
		if h.srlBank != nil {
			h.srlBank = slices.Insert(h.srlBank, i, nil)
		}
	}
	if h.findMux(c) < 0 {
		h.putMux(c, h.makeMux(c, h.env.connectionCapacity(h.id, len(h.muxes)+1), 0))
	}
	if !h.modeSet {
		// First forwarding duty of this host's lifetime: bring up the
		// scheme exactly as a build-time forwarder would, including the
		// adaptive controller if the session runs one.
		h.setMode(initialMode(h.scheme))
		if h.scheme == SchemeAdaptive && h.rate == nil {
			h.startController(ctlWindow, ctlInterval, h.env.threshold)
		}
		return
	}
	h.attachGroup(g)
}

// attachGroup ensures the active bank covers group g after its first
// child arrived mid-run (every other group with children already has its
// entry, so the ensure helpers create exactly g's regulator). A freshly
// created (σ, ρ, λ) regulator follows the clock its group's regulators
// have followed since time zero.
func (h *host) attachGroup(g int) {
	i := h.children.find(g)
	switch h.mode {
	case SchemeSigmaRho:
		if h.srBank != nil && h.srBank[i] == nil {
			h.ensureSRBank()
		}
	case SchemeSRL:
		if h.srlBank != nil && h.srlBank[i] == nil {
			h.ensureSRLBank()
			if h.srlCycling && h.srlBank[i] != nil {
				h.srlBank[i].Follow(h.cycle(g))
			}
		}
	}
}

// detachGroup tears down group g's forwarding state at this host: any
// regulator for g detaches (its backlog is abandoned, a mid-transmission
// packet completes), the child list empties, and connections left serving
// no group drop their MUX (in-flight MUX traffic still drains through the
// engine). Sibling groups' regulators and stagger phases are untouched.
// Returns the abandoned backlog size for disruption accounting.
func (h *host) detachGroup(g int) int {
	i := h.children.find(g)
	if i < 0 {
		return 0
	}
	lost := 0
	if h.srBank != nil {
		if r := h.srBank[i]; r != nil {
			lost += r.Detach()
		}
		h.srBank = slices.Delete(h.srBank, i, i+1)
	}
	if h.srlBank != nil {
		if r := h.srlBank[i]; r != nil {
			lost += r.Detach()
			if r.Transmitting() {
				// The non-preempted packet completes serialisation, but its
				// output replicates into the child set this detach is about
				// to clear — it never reaches anyone, so it counts as lost.
				lost++
			}
		}
		h.srlBank = slices.Delete(h.srlBank, i, i+1)
	}
	old := h.children.kids[i]
	h.children.drop(i)
	for _, c := range old {
		if !h.childInAnyGroup(c) {
			h.dropMux(c)
		}
	}
	return lost
}

// removeChild unregisters c from group g. When that was the host's last
// child in g the whole group detaches (regulator backlog abandoned — the
// packets were destined for the departed subtree); the returned count is
// that abandoned backlog.
func (h *host) removeChild(g, c int) int {
	if slot := h.children.find(g); slot >= 0 {
		cs := h.children.kids[slot]
		for i, x := range cs {
			if x == c {
				h.children.kids[slot] = append(cs[:i], cs[i+1:]...)
				break
			}
		}
		if len(h.children.kids[slot]) == 0 {
			return h.detachGroup(g)
		}
	}
	if !h.childInAnyGroup(c) {
		h.dropMux(c)
	}
	return 0
}

// observe feeds the adaptive controller's rate estimator.
func (h *host) observe(p traffic.Packet) {
	if h.rate != nil {
		h.rate.Observe(h.env.eng.Now(), p.Size)
	}
}

// controller runs the paper's Adaptive Control Algorithm at this host:
// every interval it computes the average input rate of the K̂ flows and
// selects the (σ, ρ) model below thresholdUtil, the (σ, ρ, λ) model at or
// above it. Utilisation is measured against this host's own capacity, so
// heterogeneous-uplink hosts switch on their local congestion, not the
// population average.
func (h *host) startController(window, interval des.Duration, thresholdUtil float64) {
	h.prepareController(window, interval, thresholdUtil)
	h.env.eng.ScheduleInKind(interval, des.KindCtlTick, uint32(h.id))
}

// prepareController builds the estimator, sets the sampling tick's period
// and threshold and registers the host as the tick's owner, without
// scheduling anything.
func (h *host) prepareController(window, interval des.Duration, thresholdUtil float64) {
	h.rate = stats.NewWindowRate(window)
	h.ctlEvery, h.ctlThreshold = interval, thresholdUtil
	h.env.eng.Own(des.KindCtlTick, uint32(h.id), h)
}

// Fire is the controller's sampling tick (des.KindCtlTick): body first,
// rearm after, period measured from the firing time.
func (h *host) Fire(uint16) {
	if h.rate.Rate(h.env.eng.Now())/h.conn >= h.ctlThreshold {
		h.setMode(SchemeSRL)
	} else {
		h.setMode(SchemeSigmaRho)
	}
	h.env.eng.ScheduleInKind(h.ctlEvery, des.KindCtlTick, uint32(h.id))
}

// Put implements traffic.Sink: a packet the fabric delivers to this host.
func (h *host) Put(p traffic.Packet) { h.env.rt.receive(h, p) }
