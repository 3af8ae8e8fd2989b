// Package netsim provides the packet-level underlay transport for the
// EMcast experiments: the Fabric that carries overlay-hop traffic between
// end hosts across the backbone of internal/topo, on pure-delay pipes.
//
// The underlay is an end-to-end delay and nothing else: a host-to-host
// packet is delivered after the shortest-path propagation delay, with no
// router queueing. That is the paper's model — the backbone is provisioned
// far above the offered load, every contended resource (regulators, the
// per-connection MUX) sits at the group end hosts — and it is what makes a
// cross-shard handoff a (destination, arrival time, packet) triple.
package netsim

import (
	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// flightPool recycles the carrier nodes for packets that are "in flight"
// on a pure delay. Any number of packets propagate concurrently, so the
// pool owns the whole KindFlight family (des.Engine.OwnPool): an event's
// arg is the index of its node, and nodes cycle through a free list of
// indices. Steady-state sends therefore allocate nothing, and the pool
// takes no owner-table slot per node: growing it copies no table. The
// high-water mark of concurrently flying packets bounds the pool, which
// grows a block of nodes at a time, each an eighth as large as the pool
// already is, from flightBlock up to maxFlightBlock nodes; a block is cut
// into pages of flightPage nodes, so node i is pages[i/flightPage][i%
// flightPage] however the pool was cut into blocks. Nodes are handed out
// in index order, so a node's index is the count of nodes handed out
// before it. A snapshot reads the packet a pending event carries at its
// index.
type flightPool struct {
	pages   [][]flightNode
	free    uint32 // the first free node, or noFlight
	used    uint32 // nodes handed out
	deliver func(dst int, p traffic.Packet)
}

const (
	flightPage     = 64
	flightBlock    = 64
	maxFlightBlock = 1024
	noFlight       = ^uint32(0)
)

// flightNode is a packet in flight and its destination host.
type flightNode struct {
	p    traffic.Packet
	dst  int32
	next uint32 // while free: the next free node, or noFlight
}

func newFlightPool(eng *des.Engine, deliver func(dst int, p traffic.Packet)) *flightPool {
	fp := &flightPool{free: noFlight, deliver: deliver}
	eng.OwnPool(des.KindFlight, fp)
	return fp
}

func (fp *flightPool) node(i uint32) *flightNode { return &fp.pages[i/flightPage][i%flightPage] }

// FireArg delivers node i's packet, recycling the node first.
func (fp *flightPool) FireArg(_ uint16, i uint32) {
	n := fp.node(i)
	dst, p := int(n.dst), n.p
	n.next, fp.free = fp.free, i
	fp.deliver(dst, p)
}

// Holds reports whether node i has been handed out.
func (fp *flightPool) Holds(i uint32) bool { return i < fp.used }

func (fp *flightPool) alloc() uint32 {
	if i := fp.free; i != noFlight {
		fp.free = fp.node(i).next
		return i
	}
	if made := len(fp.pages) * flightPage; int(fp.used) == made {
		fp.reserve(min(max(made/8, flightBlock), maxFlightBlock))
	}
	fp.used++
	return fp.used - 1
}

// reserve makes the pool's next block, of at least n nodes, in whole
// pages. Only a pool whose pages are all handed out calls it.
func (fp *flightPool) reserve(n int) {
	pages := (n + flightPage - 1) / flightPage
	blk := make([]flightNode, pages*flightPage)
	for k := range pages {
		fp.pages = append(fp.pages, blk[k*flightPage:(k+1)*flightPage:(k+1)*flightPage])
	}
}

// put hands out a node carrying p to dst and returns its index.
func (fp *flightPool) put(dst int, p traffic.Packet) uint32 {
	i := fp.alloc()
	n := fp.node(i)
	n.p, n.dst = p, int32(dst)
	return i
}

// send schedules p's delivery to dst after d.
func (fp *flightPool) send(eng *des.Engine, d des.Duration, dst int, p traffic.Packet) {
	eng.ScheduleInKind(d, des.KindFlight, fp.put(dst, p))
}

// Fabric is the underlay transport connecting all end hosts.
type Fabric struct {
	eng       *des.Engine
	net       *topo.Network
	receivers []traffic.Sink
	// pipes carries every packet end to end; a checkpoint carries an
	// in-flight delivery as (dst, packet).
	pipes *flightPool
	hooks FabricConfig
	// Delivered counts packets handed to receivers.
	Delivered uint64
}

// FabricConfig tunes the underlay.
type FabricConfig struct {
	// Local and Remote, when set together, shard the fabric for
	// conservative-parallel execution: this instance owns the hosts Local
	// reports true for, and a packet addressed to any other host is handed
	// to Remote with its computed arrival time instead of being scheduled
	// here — the peer shard delivers it through its own Fabric.Deliver.
	Local  func(host int) bool
	Remote func(dst int, at des.Time, p traffic.Packet)
	// Drop, when set, is consulted for every host-to-host send with
	// src != dst; returning true discards the packet before it enters the
	// underlay — the fault plane's partition cut. The hook runs before the
	// sharded Remote handoff, so every execution mode makes the drop
	// decision at the same point: send time, at the sender. Packets already
	// in flight when a cut opens still deliver. The hook owns its own
	// accounting; the fabric counts nothing for dropped packets.
	Drop func(src, dst int) bool
	// Receivers, when set, is the per-host receiver table, indexed by host
	// id, that Deliver hands packets to and SetReceiver writes: the shards
	// of one session share one table of their hosts. Nil gives the fabric a
	// table of its own.
	Receivers []traffic.Sink
}

// NewFabric builds the transport over the given network.
func NewFabric(eng *des.Engine, net *topo.Network, cfg FabricConfig) *Fabric {
	if (cfg.Remote == nil) != (cfg.Local == nil) {
		panic("netsim: sharded fabric needs both Local and Remote")
	}
	f := &Fabric{
		eng:       eng,
		net:       net,
		receivers: cfg.Receivers,
		hooks:     cfg,
	}
	if f.receivers == nil {
		f.receivers = make([]traffic.Sink, len(net.Hosts))
	}
	f.pipes = newFlightPool(eng, f.Deliver)
	return f
}

// SetReceiver registers the delivery callback for a host.
func (f *Fabric) SetReceiver(host int, fn func(traffic.Packet)) {
	f.receivers[host] = nil
	if fn != nil {
		f.receivers[host] = traffic.SinkFunc(fn)
	}
}

// Send carries p from host src to host dst and invokes dst's receiver.
// On a sharded fabric, packets to hosts owned by other shards are handed
// to the Remote hook with their arrival time instead. It prices the link
// on every call; a sender with a fixed link prices it once (Latency) and
// sends with Carry.
func (f *Fabric) Send(src, dst int, p traffic.Packet) {
	f.Carry(src, dst, f.Latency(src, dst), p)
}

// Latency returns the propagation delay of the link src→dst: the
// network's, which is fixed for the life of the fabric.
func (f *Fabric) Latency(src, dst int) des.Duration { return f.net.Latency(src, dst) }

// Carry is Send on a link its caller priced: lat must be Latency(src, dst).
// A session's MUX prices its connection once and sends every packet it
// serves through here, so the forwarding path reads no topology.
func (f *Fabric) Carry(src, dst int, lat des.Duration, p traffic.Packet) {
	if src == dst {
		f.Deliver(dst, p)
		return
	}
	if f.hooks.Drop != nil && f.hooks.Drop(src, dst) {
		return
	}
	if f.hooks.Remote != nil && !f.hooks.Local(dst) {
		f.hooks.Remote(dst, f.eng.Now()+lat, p)
		return
	}
	f.pipes.send(f.eng, lat, dst, p)
}

// PendingFlight reads the in-flight delivery a pending KindFlight event
// (by its arg) refers to, for serialization.
func (f *Fabric) PendingFlight(arg uint32) (dst int, p traffic.Packet) {
	n := f.pipes.node(arg)
	return int(n.dst), n.p
}

// ReserveFlights makes room for n in-flight deliveries in one block, so
// restoring them allocates nothing. Call it before the fabric has carried
// or restored any.
func (f *Fabric) ReserveFlights(n int) {
	if n > 0 {
		f.pipes.reserve(n)
	}
}

// RestoreFlight re-inserts a serialized in-flight delivery under its
// original (at, prio) stamps; the fresh node's slot is the event's new arg.
// An instant before the engine's clock is an error.
func (f *Fabric) RestoreFlight(at, prio des.Time, dst int, p traffic.Packet) error {
	_, err := f.eng.Reinsert(at, prio, des.KindFlight, f.pipes.put(dst, p))
	return err
}

// Deliver hands p to host's receiver: where every flight lands, and the
// entry point a peer shard's coordinator uses for cross-shard arrivals at
// their scheduled time.
func (f *Fabric) Deliver(host int, p traffic.Packet) {
	f.Delivered++
	if r := f.receivers[host]; r != nil {
		r.Put(p)
	}
}
