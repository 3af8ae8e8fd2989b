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

// transit wraps a packet in flight with its destination host.
type transit struct {
	p   traffic.Packet
	dst int
}

// flightPool recycles the carrier nodes for packets that are "in flight"
// on a pure delay. Any number of packets propagate concurrently, so one
// owner is not enough — instead each node registers in the engine as the
// owner of its own KindFlight delivery, and nodes cycle through a free
// list. Steady-state sends therefore allocate nothing: the high-water mark
// of concurrently flying packets bounds the pool, which grows a block of
// nodes at a time, each an eighth as large as the pool already is, from
// flightBlock up to maxFlightBlock nodes, and grows the engine's flight
// table for the block in one step. A node takes its slot in that table
// when it is first handed out, so a node's slot is the count of nodes
// handed out before it, however the pool is cut into blocks. A node's slot
// is what its event names, so a snapshot reads the in-flight transit a
// pending event refers to from there.
type flightPool struct {
	eng     *des.Engine
	free    *flightNode
	deliver func(transit)
	block   []flightNode // unused nodes of the last block made
	made    int          // nodes in every block made
}

const (
	flightBlock    = 64
	maxFlightBlock = 1024
)

type flightNode struct {
	tr   transit
	slot uint32
	next *flightNode
	pool *flightPool
}

// Fire delivers the node's transit, recycling the node first.
func (n *flightNode) Fire(uint16) {
	fp, tr := n.pool, n.tr
	n.tr = transit{} // drop the packet reference while pooled
	n.next = fp.free
	fp.free = n
	fp.deliver(tr)
}

func (fp *flightPool) alloc() *flightNode {
	n := fp.free
	if n != nil {
		fp.free = n.next
		return n
	}
	if len(fp.block) == 0 {
		fp.reserve(min(max(fp.made/8, flightBlock), maxFlightBlock))
	}
	n, fp.block = &fp.block[0], fp.block[1:]
	n.pool = fp
	n.slot = fp.eng.Register(des.KindFlight, n)
	return n
}

// reserve makes the pool's next block, of n nodes, and the room for them
// in the engine's flight table. Nodes left in the block before it are
// dropped, so only a pool with none left calls it.
func (fp *flightPool) reserve(n int) {
	fp.block = make([]flightNode, n)
	fp.made += n
	fp.eng.Grow(des.KindFlight, n)
}

// send schedules tr for delivery after d.
func (fp *flightPool) send(d des.Duration, tr transit) {
	n := fp.alloc()
	n.tr = tr
	fp.eng.ScheduleInKind(d, des.KindFlight, n.slot)
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
	f.pipes = &flightPool{eng: eng, deliver: func(tr transit) { f.Deliver(tr.dst, tr.p) }}
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
	f.pipes.send(lat, transit{p: p, dst: dst})
}

// PendingFlight reads the in-flight delivery a pending KindFlight event
// (by its arg) refers to, for serialization.
func (f *Fabric) PendingFlight(arg uint32) (dst int, p traffic.Packet) {
	tr := f.eng.Owners(des.KindFlight)[arg].(*flightNode).tr
	return tr.dst, tr.p
}

// ReserveFlights makes room for n in-flight deliveries in one block, the
// flight table's included, so restoring them allocates nothing. Call it
// before the fabric has carried or restored any.
func (f *Fabric) ReserveFlights(n int) {
	if n > 0 {
		f.pipes.reserve(n)
	}
}

// RestoreFlight re-inserts a serialized in-flight delivery under its
// original (at, prio) stamps; the fresh node's slot is the event's new arg.
// An instant before the engine's clock is an error.
func (f *Fabric) RestoreFlight(at, prio des.Time, dst int, p traffic.Packet) error {
	n := f.pipes.alloc()
	n.tr = transit{p: p, dst: dst}
	_, err := f.eng.Reinsert(at, prio, des.KindFlight, n.slot)
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
