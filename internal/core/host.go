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

// ident names the component at slot of its family's owner table. A MUX
// names its host and child by its output link's ends, a regulator its host
// and group through its output link; a clock, which has none, through
// clocks.
func (e *hostEnv) ident(slot int, c component) compIdent {
	switch c := c.(type) {
	case *mux.Mux:
		from, to := c.Ends()
		return compIdent{int32(from), int32(to)}
	case *regulator.SigmaRho, *regulator.SRL:
		l := linkOf(c.(regulated))
		return compIdent{l.h.id, l.g}
	}
	return e.clocks[slot]
}

// hostEnv is what a regulated host needs from its surrounding session.
type hostEnv struct {
	eng     *des.Engine
	specs   []FlowSpec
	conn    float64 // base per-connection capacity C (bits/second)
	mults   []float64
	bursts  []float64 // σᵢ, the (σ, ρ) regulators' bursts
	aligned bool      // stagger ablation: align all duty-cycle phases
	scheme  Scheme    // the session's configured scheme
	// The adaptive controller's switching utilisation and sampling period,
	// the same at every host it runs on.
	threshold float64
	ctlEvery  des.Duration
	// line is what every MUX on this engine shares: the engine, the
	// session's discipline and flow count, the fabric a served packet
	// leaves on, from the MUX's host to its child, and the packet pool
	// every queue on the engine grows into — the regulator slab's too.
	line *mux.Line
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
	// are carved from; the zero value refills by the chunk (snap.Arena).
	slabs compSlabs
	// clocks names the group of each duty-cycle clock in the engine's
	// clock table, by slot, and the host whose capacity it was first made
	// for (ident). Append-only, as the clock table is: a clock is never
	// retired (cycles), so no clock slot is ever reused.
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

// host is one group end host, a record every host of a session has, in one
// array. What a host needs to forward — Section III's per-flow regulators
// feeding a replicator that fans out into one general MUX per child
// connection — is its forwarder, which only a host that has had children
// holds: most hosts of a large overlay are leaves of every tree they are
// in, and a leaf costs three words.
type host struct {
	id  int32
	env *hostEnv
	// fwd is nil until the host first forwards, and kept when its last
	// child leaves, with its mode, switch count and bank allocation: a
	// host has a forwarder exactly when its mode has been set.
	fwd *forwarder
}

// forwarder is a forwarding host's state.
type forwarder struct {
	conn       float64 // the host's per-connection capacity
	mode       Scheme  // the concrete scheme in force at any instant
	switches   int32
	srlCycling bool

	// children holds the host's per-group child sets, flattened to the
	// groups it actually forwards (see groupChildren) — absent groups,
	// including every group the host is not a member of, cost nothing —
	// each child an edge naming its connection's slot in muxes.
	children groupChildren
	// muxes is the connection table: one MUX per distinct child, at the
	// slot its edges name; a nil slot is free. A connection whose child was
	// the last to leave a group stays in service, named by no edge, only
	// while its MUX drains what it holds: a child that rejoins meanwhile
	// gets it back, and once idle it closes (closeConn).
	muxes []*mux.Mux

	// Regulator banks: built lazily per mode, parallel to children's slots
	// (bank[i] regulates group children.groups[i]), so a host pays for the
	// groups it forwards, not for K. A nil bank has never been built; an
	// entry is nil until its mode first needs the regulator.
	srBank  []*regulator.SigmaRho
	srlBank []*regulator.SRL

	// rate is the adaptive controller's input-rate estimator, set by
	// prepareController; the host itself owns the controller's
	// self-rearming sampling tick, registered in its engine at slot = host
	// id.
	rate *stats.WindowRate
}

// ctlWindow is the adaptive controller's rate-estimation window and
// ctlInterval its sampling period (the paper's Adaptive Control Algorithm
// defaults); a session puts the period in every hostEnv.
const (
	ctlWindow   = des.Second
	ctlInterval = 250 * des.Millisecond
)

// newForwarder gives h its forwarder, carved from its shard's slab.
func (h *host) newForwarder() *forwarder {
	f := h.env.slabs.fwds.One()
	f.conn = h.env.hostConn(int(h.id))
	h.fwd = f
	return f
}

// connPlan is a connection a build makes: its child and the groups routed.
type connPlan struct{ child, routed int32 }

// slots returns the MUX slots the child sets' edges name: one past the
// highest, which for compiled child sets is the number of connections.
func (gc *groupChildren) slots() int {
	n := 0
	for _, es := range gc.edges {
		for _, e := range es {
			n = max(n, int(e.mux)+1)
		}
	}
	return n
}

// conns lays the child sets' connections out by the slot their edges
// name, in one pass over the edges: each slot's child and the groups
// routed through it. It returns the prefix of scratch, which needs room
// for slots(), up to the highest slot named; a slot no edge names is
// {0, 0}.
func (gc *groupChildren) conns(scratch []connPlan) []connPlan {
	n := 0
	for _, es := range gc.edges {
		for _, e := range es {
			for ; n <= int(e.mux); n++ {
				scratch[n] = connPlan{}
			}
			scratch[e.mux] = connPlan{e.child, scratch[e.mux].routed + 1}
		}
	}
	return scratch[:n]
}

// wire gives a bare host its compiled child sets and the machinery they
// need: a forwarder, a MUX per connection, with room for a packet of each
// group routed through it, and the initial mode's regulator bank; conns is
// scratch with room for the host's connections. A host with no connection
// stays a leaf. MUXes are created in slot order, which compileChildren
// made ascending child order: component registry slots must be
// deterministic for snapshots to be stable.
func (h *host) wire(children groupChildren, conns []connPlan) {
	conns = children.conns(conns)
	n := len(conns)
	if n == 0 {
		return
	}
	f := h.newForwarder()
	f.children = children
	connCap := h.env.connectionCapacity(int(h.id), n)
	f.muxes = h.env.slabs.muxes.Take(n)
	for i, c := range conns {
		f.muxes[i] = h.makeMux(int(c.child), connCap, int(c.routed))
	}
	h.enterMode(initialMode(h.env.scheme))
}

// connTo returns the slot of the MUX in service on the connection to
// child c, or -1, and how many MUXes are in service.
func (f *forwarder) connTo(c int) (slot int32, live int) {
	slot = -1
	for i, m := range f.muxes {
		if m != nil {
			if _, to := m.Ends(); to == c {
				slot = int32(i)
			}
			live++
		}
	}
	return slot, live
}

func initialMode(s Scheme) Scheme {
	if s == SchemeAdaptive {
		return SchemeSigmaRho // the algorithm's normal-load default
	}
	return s
}

// forward pushes a group-g packet into the active regulator bank (or
// straight to the replicator for the capacity-aware scheme). A leaf
// returns at once.
func (h *host) forward(g int, p traffic.Packet) {
	f := h.fwd
	if f == nil {
		return
	}
	i := f.children.find(g)
	if i < 0 || len(f.children.edges[i]) == 0 {
		return
	}
	switch f.mode {
	case SchemeSigmaRho:
		f.srBank[i].Enqueue(p)
	case SchemeSRL:
		f.srlBank[i].Enqueue(p)
	default: // capacity-aware: no regulation
		f.replicate(i, p)
	}
}

// replicate copies the packet into the MUX of every child connection of
// the group at slot i.
func (f *forwarder) replicate(i int, p traffic.Packet) {
	for _, e := range f.children.edges[i] {
		f.muxes[e.mux].Enqueue(p)
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
	return h.env.cycles[cycleKey{int32(g), h.fwd.conn}]
}

// startCycles puts the host's SRL bank on its groups' clocks.
func (h *host) startCycles() {
	f := h.fwd
	for i, r := range f.srlBank {
		if r != nil {
			r.Follow(h.cycle(int(f.children.groups[i])))
		}
	}
	f.srlCycling = true
}

// stopCycles takes the bank off its clocks and reopens the vacated queues
// so residual packets drain.
func (f *forwarder) stopCycles() {
	for _, r := range f.srlBank {
		if r != nil {
			r.StopCycle()
		}
	}
	f.srlCycling = false
	for _, r := range f.srlBank {
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
	f := h.fwd
	if f.srBank == nil {
		f.srBank = h.env.slabs.srBanks.Take(len(f.children.groups))
	}
	for i, g := range f.children.groups {
		if len(f.children.edges[i]) > 0 && f.srBank[i] == nil {
			f.srBank[i] = h.makeSR(int(g), i)
		}
	}
}

// ensureSRLBank is ensureSRBank for the (σ, ρ, λ) bank. It puts no
// regulator on a clock; the caller does.
func (h *host) ensureSRLBank() {
	f := h.fwd
	if f.srlBank == nil {
		f.srlBank = h.env.slabs.srlBanks.Take(len(f.children.groups))
	}
	for i, g := range f.children.groups {
		if len(f.children.edges[i]) > 0 && f.srlBank[i] == nil {
			f.srlBank[i] = h.makeSRL(int(g), i)
		}
	}
}

// --- Component creation and the checkpoint's view of it (snapshot.go) ---
//
// The four make functions are the constructors of components in a live
// run; restoreComp is their checkpoint-restore twin, handing the same slab
// the same arguments — so a restored component is made exactly as the
// original was, points its output at an identical link (a MUX at its
// engine's Line and its two ends, a regulator at a link record), and
// registers in the next slot of its engine's owner table. Both
// paths carve from the engine's slabs, which a live build sizes from the
// compiled child sets and a restore from the components record's totals.
// A live run's MUX or regulator made mid-run first takes the record,
// owner-table slot, queue window and (a regulator's) link record of one of
// its family that the engine retired: a component an edit dropped retires
// once no pending event names it (mux.Mux.Retire, the regulators'
// Retire). Only what outruns both is carved from a refill chunk. A clock is
// never retired. Only a forwarder makes components.

// regLink is where group g's regulator puts a packet: into its host's
// replicator for g, at the group's slot, which the host keeps current as
// edits insert and delete the slots before it (relink).
type regLink struct {
	h    *host
	g    int32
	slot int32 // g's slot at h while the regulator is in service; -1 once detached
}

// Put implements traffic.Sink. A detached regulator finishing its packet
// in transmission looks up whatever children its group has by then.
func (l *regLink) Put(p traffic.Packet) {
	f, i := l.h.fwd, int(l.slot)
	if i < 0 {
		if i = f.children.find(int(l.g)); i < 0 {
			return
		}
	}
	f.replicate(i, p)
}

// regOut is the output of group g's regulator, in service at slot.
func (h *host) regOut(g, slot int) *regLink {
	l := h.env.slabs.regLinks.One()
	*l = regLink{h, int32(g), int32(slot)}
	return l
}

// regulated is a regulator of either kind, by its output.
type regulated interface{ Out() traffic.Sink }

// linkOf returns the output link of regulator r.
func linkOf(r regulated) *regLink { return r.Out().(*regLink) }

// relink points the links of the regulators in service at slot from and
// after at their slots, after an edit inserted or deleted one before them.
func (f *forwarder) relink(from int) {
	for j := from; j < len(f.children.groups); j++ {
		if f.srBank != nil && f.srBank[j] != nil {
			linkOf(f.srBank[j]).slot = int32(j)
		}
		if f.srlBank != nil && f.srlBank[j] != nil {
			linkOf(f.srlBank[j]).slot = int32(j)
		}
	}
}

// makeMux creates and registers the connection MUX for child c, with room
// for routed queued packets, without wiring it into the connection table.
func (h *host) makeMux(c int, capacity float64, routed int) *mux.Mux {
	return h.env.slabs.mux.New(h.env.line, capacity, int(h.id), c, routed)
}

// makeSR creates and registers group g's (σ, ρ) regulator, for slot i.
func (h *host) makeSR(g, i int) *regulator.SigmaRho {
	env := h.env
	sigma, rho := env.bursts[g], env.specs[g].Rho
	if r := regulator.ReuseSigmaRho(env.eng, sigma, rho); r != nil {
		*linkOf(r) = regLink{h, int32(g), int32(i)}
		return r
	}
	return env.slabs.reg.NewSigmaRho(env.eng, sigma, rho, h.regOut(g, i))
}

// makeSRL creates and registers group g's (σ, ρ, λ) regulator, for slot i.
func (h *host) makeSRL(g, i int) *regulator.SRL {
	env, c := h.env, h.fwd.conn
	sigma, rho := env.sigmaStars(c)[g], env.specs[g].Rho
	if r := regulator.ReuseSRL(env.eng, sigma, rho, c); r != nil {
		*linkOf(r) = regLink{h, int32(g), int32(i)}
		return r
	}
	return env.slabs.reg.NewSRL(env.eng, sigma, rho, c, h.regOut(g, i))
}

// cycleSchedule returns the (offset, W, V) of group g's duty-cycle clock at
// this host's capacity. The stagger offset is the sum of the working
// periods of all groups before g, accumulated over the full group index
// range, so a host that forwards only groups {2, 5} phases them exactly as
// a host forwarding every group would: the schedule is a per-group global,
// not a per-host accident of which trees put children here.
func (h *host) cycleSchedule(g int) (offset, w, v des.Duration) {
	env, c := h.env, h.fwd.conn
	stars := env.sigmaStars(c)
	if !env.aligned {
		for j := 0; j < g; j++ {
			wj, _ := regulator.DutyCycle(stars[j], env.specs[j].Rho, c)
			offset += wj
		}
	}
	w, v = regulator.DutyCycle(stars[g], env.specs[g].Rho, c)
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
	env.cycles[cycleKey{int32(g), h.fwd.conn}] = c
	env.clocks = append(env.clocks, compIdent{h.id, int32(g)})
	return c
}

// sizeClocks gives the engine's clock lookup and clock names room for n
// clocks, which a build counts from its forwarders and a restore reads off
// the components record. With none, addCycle makes them on first use.
func (e *hostEnv) sizeClocks(n int) {
	if n > 0 {
		e.cycles = make(map[cycleKey]*regulator.Cycle, n)
		e.clocks = make([]compIdent, 0, n)
	}
}

// compSlabs is the storage one engine makes its components in — the
// components, the link records the regulators' outputs point at — and its
// hosts' forwarders, connection tables and regulator banks. A live build
// sizes it from the compiled child sets (sizeSlabs); a restore sizes the
// forwarders from the hosts record, the tables from the restored trees and
// the components from the record's opening counts. A component an edit
// drops goes back to the engine when it retires, and the next one of its
// family made there takes its record (makeMux, makeSR, makeSRL); the
// tables, and the child sets an edit writes, grow through free lists
// (blocks). So churn in steady state carves none of them.
type compSlabs struct {
	mux       mux.Slab
	reg       regulator.Slab
	regLinks  snap.Arena[regLink]
	fwds      snap.Arena[forwarder]
	muxes     blocks[*mux.Mux]
	srBanks   blocks[*regulator.SigmaRho]
	srlBanks  blocks[*regulator.SRL]
	groups    blocks[int32]
	edgeLists blocks[[]edge]
	edges     blocks[edge]
}

// restoreComp re-creates family f's component for sub from the open
// record, in the engine's slabs, without putting it into service — one
// that was already torn down but is still named by a pending event stays
// uninstalled, and retires as the teardown had it (retireRestored). It
// registers in the next slot of its owner table, never a retired one's,
// so a restore's i-th component of a family holds slot i. routed is the
// groups routed through a MUX's connection; the other families do not use
// it. A MUX's capacity is derived, not read: a
// regulated host gives every connection its C, and a capacity-aware
// session is static (churn, faults and reopt need a regulated scheme), so
// its connections are the ones wire made, C·factor split over the host's
// connection table.
func (h *host) restoreComp(r *snap.Reader, f family, sub, routed int) component {
	env := h.env
	sl := &env.slabs
	flows := len(env.specs)
	switch f {
	case famMux:
		capacity := env.connectionCapacity(int(h.id), len(h.fwd.muxes))
		return sl.mux.Restore(r, env.line, capacity, int(h.id), sub, routed)
	case famSR:
		return sl.reg.RestoreSigmaRho(r, flows, env.eng, env.bursts[sub], env.specs[sub].Rho, h.regOut(sub, -1))
	case famCycle:
		offset, w, v := h.cycleSchedule(sub)
		return h.addCycle(sl.reg.RestoreCycle(r, env.eng, offset, w, v), sub)
	default:
		c := h.fwd.conn
		return sl.reg.RestoreSRL(r, flows, env.eng, env.sigmaStars(c)[sub], env.specs[sub].Rho, c, h.regOut(sub, -1))
	}
}

// retireRestored hands a component a restore made out of service — one a
// torn-down forwarder left draining, named by a pending event — back to
// the engine as the teardown did: at once if idle, else when its event
// fires.
func retireRestored(c component) {
	switch c := c.(type) {
	case *mux.Mux:
		c.Retire()
	case *regulator.SigmaRho:
		c.Detach()
		c.Retire()
	case *regulator.SRL:
		c.Detach()
		c.Retire()
	}
}

// install puts a restored live component back into service; false when
// the restored child sets contradict it, which no snapshot this package
// wrote does: a regulator for a group the host forwards nothing in or
// has one for, a second MUX for a connection. A MUX goes to slot at, the
// one its child's edges name, or -1 when none does (removeChild). Duty-cycle
// state comes from the restored words of the clock and its followers and
// from the re-inserted events — nothing here starts a clock, and
// restoreComp already put a restored one in the table.
func (h *host) install(f family, sub int, at int32, c component) bool {
	fw := h.fwd
	switch f {
	case famMux:
		if at < 0 {
			// Past every slot an edge names: those are still to fill.
			if i, _ := fw.connTo(sub); i >= 0 {
				return false
			}
			fw.muxes = h.env.slabs.muxes.insert(fw.muxes, len(fw.muxes), c.(*mux.Mux))
			return true
		}
		if fw.muxes[at] != nil {
			return false
		}
		fw.muxes[at] = c.(*mux.Mux)
		return true
	case famCycle:
		return true
	}
	i := fw.children.find(sub)
	if i < 0 {
		return false
	}
	if f == famSR {
		if fw.srBank == nil {
			fw.srBank = h.env.slabs.srBanks.Take(len(fw.children.groups))
		}
		if fw.srBank[i] != nil {
			return false
		}
		r := c.(*regulator.SigmaRho)
		fw.srBank[i] = r
		linkOf(r).slot = int32(i)
	} else {
		if fw.srlBank == nil {
			fw.srlBank = h.env.slabs.srlBanks.Take(len(fw.children.groups))
		}
		if fw.srlBank[i] != nil {
			return false
		}
		r := c.(*regulator.SRL)
		fw.srlBank[i] = r
		linkOf(r).slot = int32(i)
	}
	return true
}

// setMode switches a forwarding host to scheme m, building banks on first
// use and counting the switch. Packets already queued in the previous bank
// keep draining through it (make-before-break), so no traffic is lost on
// a switch.
func (h *host) setMode(m Scheme) {
	if m == h.fwd.mode {
		return
	}
	h.enterMode(m)
	h.fwd.switches++
}

// enterMode activates the regulator bank for m: setMode's switch, and a
// new forwarder's first mode, which is no switch.
func (h *host) enterMode(m Scheme) {
	f := h.fwd
	switch m {
	case SchemeSigmaRho:
		h.ensureSRBank()
		if f.srlCycling {
			f.stopCycles()
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
	f.mode = m
}

// --- Dynamic forwarding state (driven by the session control plane) ---

// attachChild registers c as a child of this host in group g's tree,
// wiring the connection MUX and — on a host that was not forwarding at
// all, or was not forwarding this group — the regulator machinery, with
// the new duty cycle re-staggered onto the global schedule. A connection
// already in service to c, if any, carries the new edge.
func (h *host) attachChild(g, c int) {
	f := h.fwd
	first := f == nil
	if first {
		f = h.newForwarder()
	}
	sl := &h.env.slabs
	m, live := f.connTo(c)
	if m >= 0 {
		// A connection closing as it drains stays open for the new edge.
		f.muxes[m].Keep()
	} else {
		// The table's first free slot takes the new connection.
		mx := h.makeMux(c, h.env.connectionCapacity(int(h.id), live+1), 0)
		if m = int32(slices.Index(f.muxes, nil)); m < 0 {
			m = int32(len(f.muxes))
			f.muxes = sl.muxes.insert(f.muxes, len(f.muxes), nil)
		}
		f.muxes[m] = mx
	}
	e := edge{int32(c), m}
	gc := &f.children
	if i, ok := slices.BinarySearch(gc.groups, int32(g)); ok {
		gc.edges[i] = sl.edges.insert(gc.edges[i], len(gc.edges[i]), e)
	} else {
		// A new slot; the banks stay parallel to the slots.
		gc.groups = sl.groups.insert(gc.groups, i, int32(g))
		gc.edges = sl.edgeLists.insert(gc.edges, i, sl.edges.insert(nil, 0, e))
		if f.srBank != nil {
			f.srBank = sl.srBanks.insert(f.srBank, i, nil)
		}
		if f.srlBank != nil {
			f.srlBank = sl.srlBanks.insert(f.srlBank, i, nil)
		}
		f.relink(i + 1)
	}
	if first {
		// First forwarding duty of this host's lifetime: bring up the
		// scheme exactly as a build-time forwarder would, including the
		// adaptive controller if the session runs one.
		h.enterMode(initialMode(h.env.scheme))
		if h.env.scheme == SchemeAdaptive {
			h.startController()
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
	f := h.fwd
	i := f.children.find(g)
	switch f.mode {
	case SchemeSigmaRho:
		if f.srBank != nil && f.srBank[i] == nil {
			h.ensureSRBank()
		}
	case SchemeSRL:
		if f.srlBank != nil && f.srlBank[i] == nil {
			h.ensureSRLBank()
			if f.srlCycling && f.srlBank[i] != nil {
				f.srlBank[i].Follow(h.cycle(g))
			}
		}
	}
}

// detachGroup tears down group g's forwarding state at this host: any
// regulator for g detaches (its backlog is abandoned, a mid-transmission
// packet completes), the group's slot goes, and connections left serving
// no group drop their MUX (in-flight MUX traffic still drains through the
// engine). Sibling groups' regulators and stagger phases are untouched.
// Returns the abandoned backlog size for disruption accounting.
func (h *host) detachGroup(g int) int {
	f := h.fwd
	if f == nil {
		return 0
	}
	i := f.children.find(g)
	if i < 0 {
		return 0
	}
	lost := 0
	if f.srBank != nil {
		if r := f.srBank[i]; r != nil {
			lost += r.Detach()
			linkOf(r).slot = -1
			r.Retire()
		}
		f.srBank = slices.Delete(f.srBank, i, i+1)
	}
	if f.srlBank != nil {
		if r := f.srlBank[i]; r != nil {
			lost += r.Detach()
			linkOf(r).slot = -1
			if r.Transmitting() {
				// The non-preempted packet completes serialisation, but its
				// output replicates into the child set this detach is about
				// to clear — it never reaches anyone, so it counts as lost.
				lost++
			}
			r.Retire()
		}
		f.srlBank = slices.Delete(f.srlBank, i, i+1)
	}
	gc := &f.children
	old := gc.edges[i]
	gc.groups = slices.Delete(gc.groups, i, i+1)
	gc.edges = slices.Delete(gc.edges, i, i+1)
	f.relink(i)
	for _, e := range old {
		if !gc.hasChild(int(e.child)) {
			f.dropConn(e.mux)
		}
	}
	h.env.slabs.edges.put(old)
	return lost
}

// dropConn takes the connection at slot i of the table out of service at
// once; its MUX retires when idle, draining what it holds first.
func (f *forwarder) dropConn(i int32) {
	m := f.muxes[i]
	f.muxes[i] = nil
	m.Retire()
}

// closeConn closes the connection at slot i of the table, which no edge
// names: at once when its MUX is idle, else once the MUX has drained what
// it holds (hostEnv.Drained). Until then it stays in service, so a child
// that rejoins gets it back (attachChild).
func (f *forwarder) closeConn(i int32) {
	if m := f.muxes[i]; m.Busy() {
		m.Retire()
		return
	}
	f.dropConn(i)
}

// Drained implements mux.Drainer: it takes a MUX that Retire left serving
// out of its host's connection table as it runs dry — a connection
// closeConn closed, which stayed in service while it drained. A MUX
// dropConn dropped is in none.
func (e *hostEnv) Drained(m *mux.Mux) {
	from, _ := m.Ends()
	f := e.rt.s.hosts[from].fwd
	if i := slices.Index(f.muxes, m); i >= 0 {
		f.muxes[i] = nil
	}
}

// removeChild unregisters c from group g at c's parent. When that was the
// host's last child in g the whole group detaches (regulator backlog
// abandoned — the packets were destined for the departed subtree) and c's
// connection, if c is a child in no other group, closes once idle
// (closeConn); otherwise it drops at once when c is a child in no group,
// its in-flight traffic still draining through the engine. The returned
// count is the abandoned backlog.
func (h *host) removeChild(g, c int) int {
	f := h.fwd
	if i := f.children.find(g); i >= 0 {
		es := slices.DeleteFunc(f.children.edges[i], func(e edge) bool { return int(e.child) == c })
		f.children.edges[i] = es
		if len(es) == 0 {
			lost := h.detachGroup(g)
			if m, _ := f.connTo(c); m >= 0 && !f.children.hasChild(c) {
				f.closeConn(m)
			}
			return lost
		}
	}
	if i, _ := f.connTo(c); i >= 0 && !f.children.hasChild(c) {
		f.dropConn(i)
	}
	return 0
}

// observe feeds the adaptive controller's rate estimator. A leaf returns
// at once.
func (h *host) observe(p traffic.Packet) {
	if f := h.fwd; f != nil && f.rate != nil {
		f.rate.Observe(h.env.eng.Now(), p.Size)
	}
}

// startController runs the paper's Adaptive Control Algorithm at this
// forwarding host: every env.ctlEvery it computes the average input rate
// of the K̂ flows and selects the (σ, ρ) model below env.threshold, the
// (σ, ρ, λ) model at or above it. Utilisation is measured against this
// host's own capacity, so heterogeneous-uplink hosts switch on their local
// congestion, not the population average.
func (h *host) startController() {
	h.prepareController()
	h.env.eng.ScheduleInKind(h.env.ctlEvery, des.KindCtlTick, uint32(h.id))
}

// prepareController builds the estimator and registers the host as the
// sampling tick's owner, without scheduling anything.
func (h *host) prepareController() {
	h.fwd.rate = stats.NewWindowRate(ctlWindow)
	h.env.eng.Own(des.KindCtlTick, uint32(h.id), h)
}

// Fire is the controller's sampling tick (des.KindCtlTick): body first,
// rearm after, period measured from the firing time.
func (h *host) Fire(uint16) {
	f, env := h.fwd, h.env
	if f.rate.Rate(env.eng.Now())/f.conn >= env.threshold {
		h.setMode(SchemeSRL)
	} else {
		h.setMode(SchemeSigmaRho)
	}
	env.eng.ScheduleInKind(env.ctlEvery, des.KindCtlTick, uint32(h.id))
}

// Put implements traffic.Sink: a packet the fabric delivers to this host.
func (h *host) Put(p traffic.Packet) { h.env.rt.receive(h, p) }
