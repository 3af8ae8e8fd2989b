package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/snap"
)

// corruptFixture is the small session whose snapshot the hostile-bytes
// tests corrupt: shardBaseConfig cut to 60 hosts in 3 full groups, 1 s,
// checkpointed at 0.9 s — late, so that running an accepted corruption to
// its end is cheap — with packets queued, in flight and (at 4 shards)
// parked in the coordinator's pending buffers.
func corruptFixture(t testing.TB, shards int) (Config, []byte) {
	t.Helper()
	cfg := shardBaseConfig(5)
	cfg.NumHosts, cfg.NumGroups, cfg.Duration, cfg.Shards = 60, 3, des.Second, shards
	cfg.Groups = cfg.Groups[:3]
	cfg.Groups[2].Members = nil
	return checkpointed(t, cfg, 9*des.Second/10)
}

// growingFixture is corruptFixture at one shard with a leave from group 2
// before the checkpoint: a session whose control plane has written that
// group's tree, so its record carries the tree and a restore decodes it
// (overlay.RestoreTree), where corruptFixture's records carry none.
func growingFixture(t testing.TB) (Config, []byte) {
	t.Helper()
	cfg, _ := corruptFixture(t, 1)
	cfg.Events = []MembershipEvent{{At: 89 * des.Second / 100, Group: 2, Host: 1}}
	return checkpointed(t, cfg, 9*des.Second/10)
}

// sigmaRhoFixture is corruptFixture at one shard under (σ, ρ)
// regulators, checkpointed at 1/3 s, where three of them wait for tokens
// (at 0.9 s none does).
func sigmaRhoFixture(t testing.TB) (Config, []byte) {
	t.Helper()
	cfg, _ := corruptFixture(t, 1)
	cfg.Scheme = SchemeSigmaRho
	return checkpointed(t, cfg, des.Second/3)
}

// adaptiveFixture is corruptFixture at one shard under the adaptive
// scheme: every forwarder runs a controller, whose window of rate samples
// its host record carries.
func adaptiveFixture(t testing.TB) (Config, []byte) {
	t.Helper()
	cfg, _ := corruptFixture(t, 1)
	cfg.Scheme = SchemeAdaptive
	s := NewSession(cfg)
	s.Start()
	s.RunTo(9 * des.Second / 10)
	windows := 0
	for _, h := range s.hosts {
		if h.fwd != nil && h.fwd.rate != nil && rateSamples(h.fwd.rate) > 0 {
			windows++
		}
	}
	if windows == 0 {
		t.Fatal("no controller holds a sample in its window at the checkpoint")
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, blob
}

// checkpointed runs cfg to at and returns its snapshot there.
func checkpointed(t testing.TB, cfg Config, at des.Time) (Config, []byte) {
	t.Helper()
	s := NewSession(cfg)
	s.Start()
	s.RunTo(at)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, blob
}

// restoreNoPanic runs Restore and turns a panic on the calling goroutine
// into a test failure naming the corruption. (A panic on any other
// goroutine kills the test binary, which is a failure too.)
func restoreNoPanic(t testing.TB, cfg Config, blob []byte, what string) (s *Session, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: Restore panicked: %v", what, p)
		}
	}()
	return Restore(cfg, blob)
}

// finishNoPanic runs a session Restore accepted to its end: bytes the
// decoder let through must not blow up later either.
func finishNoPanic(t testing.TB, s *Session, what string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: Restore accepted the blob, then Finish panicked: %v", what, p)
		}
	}()
	s.Finish()
}

// TestRestoreCorruptedNeverPanics flips bit 6 of bytes past the header,
// one at a time, and requires Restore to return — an error or a session —
// every time, and every session it returns to run to its end: of every
// byte of corruptFixture's (σ, ρ, λ) blob (subtest flips), of every 17th
// of sigmaRhoFixture's, whose (σ, ρ) regulators hold token levels and wait
// for tokens (sigma-rho/flips), of every 43rd of adaptiveFixture's,
// whose host records hold controller windows (adaptive/flips), and of
// every 11th of growingFixture's, the one whose group record carries a
// tree for overlay.RestoreTree to decode (growing/flips; strides prime to
// every record layout's, which keep the three sweeps near a second
// between them). At the parent of the commit that added it, 1,432 of the
// 28k (σ, ρ, λ) blobs panicked inside Restore and one crashed the process
// from a compileChildren worker; at the parent of the commit that added
// the Finish leg, 36 of the 7,199 accepted ones carried a packet size with
// a flipped exponent bit and overflowed a serialisation time in Finish.
func TestRestoreCorruptedNeverPanics(t *testing.T) {
	// -race: every seventh flip still lands in every record.
	short := 1
	if testing.Short() {
		short = 7
	}
	cfg, blob := corruptFixture(t, 1)
	flipSweep(t, cfg, blob, short)
	for _, fx := range []struct {
		name   string
		make   func(testing.TB) (Config, []byte)
		stride int
		tree   bool // the blob carries a tree: some flip must land in it
	}{
		{"sigma-rho", sigmaRhoFixture, 17, false},
		{"adaptive", adaptiveFixture, 43, false},
		{"growing", growingFixture, 11, true},
	} {
		t.Run(fx.name, func(t *testing.T) {
			cfg, blob := fx.make(t)
			stride := fx.stride * short
			if fx.tree {
				// The stanza overlay.RestoreTree decodes runs from past the
				// group record's flag to its loss counter.
				o := groupStanza(t, blob, true)
				lo, hi := o.rec+1, o.detached-8
				if first := snap.HeaderBytes + (lo-snap.HeaderBytes+stride-1)/stride*stride; first >= hi {
					t.Fatalf("no flip at stride %d lands in the tree stanza [%d, %d)", stride, lo, hi)
				}
			}
			flipSweep(t, cfg, blob, stride)
		})
	}
}

// flipSweep flips bit 6 of every stride-th byte of blob past the header
// and holds Restore to an error or a session that runs to its end, and the
// fixture to reaching both.
func flipSweep(t *testing.T, cfg Config, blob []byte, stride int) {
	// The flips are independent; four slices of the blob run side by side.
	const slices = 4
	var rejected, finished [slices]int
	t.Run("flips", func(t *testing.T) {
		for k := 0; k < slices; k++ {
			t.Run(fmt.Sprintf("slice%d", k), func(t *testing.T) {
				t.Parallel()
				for off := snap.HeaderBytes + k*stride; off < len(blob); off += slices * stride {
					bad := append([]byte(nil), blob...)
					bad[off] ^= 1 << 6
					what := fmt.Sprintf("bit 6 of byte %d", off)
					s, err := restoreNoPanic(t, cfg, bad, what)
					if err != nil {
						rejected[k]++
						continue
					}
					finishNoPanic(t, s, what)
					finished[k]++
				}
			})
		}
	})
	for k := 1; k < slices; k++ {
		rejected[0] += rejected[k]
		finished[0] += finished[k]
	}
	if rejected[0] == 0 || finished[0] == 0 {
		t.Fatalf("%d blobs rejected, %d accepted and finished — the fixture is not reaching both legs", rejected[0], finished[0])
	}
	t.Logf("%d rejected, %d accepted and run to the end", rejected[0], finished[0])
}

// snapRecords indexes a blob's records: type tag and payload offset, in
// stream order.
type snapRecord struct {
	tag uint16
	off int // of the payload
}

func snapRecords(t testing.TB, blob []byte) []snapRecord {
	t.Helper()
	var recs []snapRecord
	for pos := len(snap.Magic) + 4; pos < len(blob); {
		tag := binary.LittleEndian.Uint16(blob[pos:])
		n := int(binary.LittleEndian.Uint32(blob[pos+2:]))
		recs = append(recs, snapRecord{tag, pos + 6})
		pos += 6 + n
	}
	return recs
}

func firstRecord(t testing.TB, blob []byte, tag uint16) int {
	t.Helper()
	for _, rec := range snapRecords(t, blob) {
		if rec.tag == tag {
			return rec.off
		}
	}
	t.Fatalf("blob has no record %d", tag)
	return 0
}

// Bytes of one serialized packet and of one event header (at, prio, kind,
// arg) — the layouts of traffic.Packet.Snapshot and codec.writeEvents.
const (
	packetBytes   = 8 + 8 + 8 + 8
	eventHdrBytes = 8 + 8 + 2 + 4
)

// firstEvent returns the offset of the first event header of one of kinds
// in the blob's first events record.
func firstEvent(t testing.TB, blob []byte, kinds ...uint16) int {
	t.Helper()
	off := firstRecord(t, blob, recEngine)
	n := int(binary.LittleEndian.Uint32(blob[off:]))
	off += 4
	for i := 0; i < n; i++ {
		kind := binary.LittleEndian.Uint16(blob[off+16:])
		if slices.Contains(kinds, kind) {
			return off
		}
		off += eventHdrBytes
		if kind == des.KindFlight {
			off += 4 + packetBytes // the delivery's destination and packet
		}
	}
	t.Fatalf("fixture has no pending event of kinds %v", kinds)
	return 0
}

// groupOffsets locates the parts of a group record: the record's payload,
// its tree's parent count and first child list of two children or more
// (-1 when it carries no tree or the tree no such list), and its detached
// root count.
type groupOffsets struct{ rec, parents, kids, detached int }

// groupStanza walks the blob's first group record, or with written set the
// first that carries a tree — the layouts of codec.writeGroup and
// overlay.Tree.Snapshot: whether a tree follows and, if one does, its
// source, member count, members, parent count and per parent its host,
// child count and children; then the lost counter and the detached roots.
func groupStanza(t testing.TB, blob []byte, written bool) groupOffsets {
	t.Helper()
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(blob[off:])) }
	for _, rec := range snapRecords(t, blob) {
		if rec.tag != recGroup || written && blob[rec.off] == 0 {
			continue
		}
		o := groupOffsets{rec: rec.off, parents: -1, kids: -1}
		off := rec.off + 1
		if blob[rec.off] == 1 {
			off += 8
			off += 4 + 8*u32(off)
			o.parents = off
			off += 4
			for n := u32(o.parents); n > 0; n-- {
				k := u32(off + 8)
				off += 8 + 4
				if o.kids < 0 && k >= 2 {
					o.kids = off
				}
				off += 8 * k
			}
		}
		o.detached = off + 8
		return o
	}
	t.Fatalf("fixture has no group record with written %v", written)
	return groupOffsets{}
}

// withSwappedChildren returns blob with the first two children of the
// first written tree's first parent of two children or more swapped: a
// tree RestoreTree decodes without complaint, but not the one the session
// wrote.
func withSwappedChildren(t testing.TB, blob []byte) []byte {
	t.Helper()
	out := append([]byte(nil), blob...)
	kids := groupStanza(t, out, true).kids
	if kids < 0 {
		t.Fatal("fixture's written tree has no parent of two children")
	}
	a, b := out[kids:kids+8], out[kids+8:kids+16]
	var tmp [8]byte
	copy(tmp[:], a)
	copy(a, b)
	copy(b, tmp[:])
	return out
}

// withDetachedRoot returns blob with host 1 parked as a detached subtree
// root of its first group, the record's length grown to match.
func withDetachedRoot(t testing.TB, blob []byte) []byte {
	t.Helper()
	o := groupStanza(t, blob, false)
	off := o.detached
	if binary.LittleEndian.Uint32(blob[off:]) != 0 {
		t.Fatal("fixture's first group already parks a detached root")
	}
	out := append(append(append([]byte(nil), blob[:off+4]...), 1, 0, 0, 0), blob[off+4:]...)
	binary.LittleEndian.PutUint32(out[off:], 1)
	binary.LittleEndian.PutUint32(out[o.rec-4:], binary.LittleEndian.Uint32(out[o.rec-4:])+4)
	return out
}

// withOwnTree returns blob with its first group record claiming a tree of
// its own: the flag set and group 0's blueprint tree written after it, the
// record's length grown to match — bytes a session with a control plane
// decodes, and one without cannot have written.
func withOwnTree(t testing.TB, cfg Config, blob []byte) []byte {
	t.Helper()
	w := snap.NewWriterSize(1, 0)
	w.Begin(1)
	NewSession(cfg).sub.bp.trees[0].Snapshot(w, nil)
	w.End()
	tree, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tree = tree[snap.HeaderBytes+snap.FrameBytes:]
	o := groupStanza(t, blob, false)
	if o.parents >= 0 {
		t.Fatal("fixture's first group already carries a tree")
	}
	out := slices.Concat(blob[:o.rec], []byte{1}, tree, blob[o.rec+1:])
	binary.LittleEndian.PutUint32(out[o.rec-4:], binary.LittleEndian.Uint32(out[o.rec-4:])+uint32(len(tree)))
	return out
}

// hostRecordBytes is one host record of the fixture's blob: mode,
// forwarding, switches, cycling and three flags, the last of them false —
// a (σ, ρ, λ) host runs no controller (codec.writeHosts).
const hostRecordBytes = 1 + 1 + 4 + 1 + 1 + 1 + 1

// hostRecord returns the offset of the blob's first host record that says
// the host forwards (or, with forwarding false, that it never did).
func hostRecord(t testing.TB, blob []byte, forwarding bool) int {
	t.Helper()
	off := firstRecord(t, blob, recHosts)
	for i := 0; i < int(binary.LittleEndian.Uint32(blob[off:])); i++ {
		rec := off + 4 + i*hostRecordBytes
		if (blob[rec+1] == 1) == forwarding {
			return rec
		}
	}
	t.Fatalf("fixture has no host record with forwarding %v", forwarding)
	return 0
}

// hostCorruptions rewrite one host record of the fixture's blob: a
// forwarder's mode byte set to one a (σ, ρ, λ) session never enters, a
// never-forwarding host's record with a switch counted, and a forwarder's
// record zeroed, so that only its children and its components say it
// forwards.
var hostCorruptions = []struct {
	name    string
	corrupt func(t testing.TB, b []byte)
	want    string
}{
	{"host mode byte 0", func(t testing.TB, b []byte) { b[hostRecord(t, b, true)] = 0 }, "never enters"},
	{"host mode byte 3", func(t testing.TB, b []byte) { b[hostRecord(t, b, true)] = 3 }, "never enters"},
	{"host mode byte 9", func(t testing.TB, b []byte) { b[hostRecord(t, b, true)] = 9 }, "never enters"},
	{"unset host with state", func(t testing.TB, b []byte) { b[hostRecord(t, b, false)+2] = 1 }, "never forwarded"},
	{"unset host with children", func(t testing.TB, b []byte) {
		clear(b[hostRecord(t, b, true):][:hostRecordBytes])
	}, "never forwarded"},
}

// TestRestoreRejectsOutOfRange: each id or value the decoder used to trust
// is an error when out of range, not a panic and not an accepted session.
func TestRestoreRejectsOutOfRange(t *testing.T) {
	cfg1, blob1 := corruptFixture(t, 1)
	cfg4, blob4 := corruptFixture(t, 4)
	put32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	put64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	type corruption struct {
		name    string
		cfg     Config
		blob    []byte
		corrupt func(t *testing.T, b []byte)
		want    string
	}
	cfgG, blobG := growingFixture(t)
	cfgS, blobS := sigmaRhoFixture(t)
	cases := []corruption{
		{"growing tree parent", cfgG, blobG, func(t *testing.T, b []byte) {
			put64(b, groupStanza(t, b, true).parents+4, 64) // the written tree's first parent
		}, "tree parent 64 outside"},
		{"static own tree", cfg1, withOwnTree(t, cfg1, blob1), func(*testing.T, []byte) {}, "group 0 carries a tree of its own"},
		{"static detached root", cfg1, withDetachedRoot(t, blob1), func(*testing.T, []byte) {}, "detached subtree roots"},
		{"mux on another host", cfg1, blob1, func(t *testing.T, b []byte) {
			// The first stanza's host, moved one along: the host it came from
			// forwards to a child it has no MUX for.
			off := firstRecord(t, b, recComponents) + 4*compTotalsWords + 4
			put32(b, off, (binary.LittleEndian.Uint32(b[off:])+1)%60)
		}, "no MUX"},
		{"idle MUX with queue", cfg1, withStalledMux(t, blob1), func(*testing.T, []byte) {}, "idle MUX"},
		{"second MUX completion", cfg1, withDuplicateEvent(t, blob1, des.KindMuxDone), func(*testing.T, []byte) {}, "no packet in transmission"},
		{"second token wait", cfgS, withDuplicateEvent(t, blobS, des.KindSRRetry), func(*testing.T, []byte) {}, "already waits"},
		{"event before the checkpoint", cfg1, blob1, func(t *testing.T, b []byte) {
			put64(b, firstRecord(t, b, recEngine)+4, uint64(des.Second/4))
		}, "precedes the checkpoint"},
		{"flight dst", cfg1, blob1, func(t *testing.T, b []byte) {
			put32(b, firstEvent(t, b, des.KindFlight)+eventHdrBytes, 60)
		}, "flight destination 60"},
		{"packet flow", cfg1, blob1, func(t *testing.T, b []byte) {
			put64(b, firstEvent(t, b, des.KindFlight)+eventHdrBytes+4+8, 3)
		}, "packet flow 3"},
		{"event slot on a hole", cfg4, blob4, func(t *testing.T, b []byte) {
			// A shard's sources' table holds the flows rooted there, at their
			// flow: one whose sources start past flow 0 has a hole at slot 0.
			for _, rec := range snapRecords(t, b) {
				if rec.tag != recEngine {
					continue
				}
				var src []int
				zero := false
				off := rec.off + 4
				for n := binary.LittleEndian.Uint32(b[rec.off:]); n > 0; n-- {
					switch kind := binary.LittleEndian.Uint16(b[off+16:]); kind {
					case des.KindSrcCycle, des.KindSrcTick:
						src = append(src, off)
						zero = zero || binary.LittleEndian.Uint32(b[off+18:]) == 0
					case des.KindFlight:
						off += 4 + packetBytes
					}
					off += eventHdrBytes
				}
				if len(src) > 0 && !zero {
					put32(b, src[0]+18, 0)
					return
				}
			}
			t.Fatal("fixture has no shard whose sources start past flow 0")
		}, "names slot 0"},
		{"follower rank", cfg1, blob1, func(t *testing.T, b []byte) {
			put64(b, stanzas(t, b).ranks[0], 1<<62)
		}, "rank"},
		{"clock next rank", cfg1, blob1, func(t *testing.T, b []byte) {
			put64(b, stanzas(t, b).nextRanks[0], 0)
		}, "rank"},
		{"record host", cfg4, blob4, func(t *testing.T, b []byte) {
			// per-source seqs, four diagnostics, then per destination shard a
			// count and its records: at, lamport, seq, src, host, packet.
			off := firstRecord(t, b, recCoord)
			shards := int(binary.LittleEndian.Uint32(b[off:]))
			off += 4 + 8*shards + 4*8
			for dst := 0; dst < shards; dst++ {
				if n := binary.LittleEndian.Uint32(b[off:]); n > 0 {
					put32(b, off+4+8+8+8+4, 1<<20)
					return
				}
				off += 4
			}
			t.Fatal("fixture has no pending cross-shard record")
		}, "cross-shard record host"},
	}
	for _, ev := range unownedEvents {
		cases = append(cases, corruption{ev.name, cfg1, withEvent(t, blob1, ev.of, ev.kind, ev.arg), func(*testing.T, []byte) {}, ev.want})
	}
	for _, hc := range hostCorruptions {
		cases = append(cases, corruption{hc.name, cfg1, blob1, func(t *testing.T, b []byte) { hc.corrupt(t, b) }, hc.want})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), tc.blob...)
			tc.corrupt(t, bad)
			_, err := restoreNoPanic(t, tc.cfg, bad, tc.name)
			if err == nil || !strings.Contains(err.Error(), "snapshot") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a snapshot error mentioning %q", err, tc.want)
			}
		})
	}
}

// unownedEvents are pending events of the corruption fixture rewritten so
// that no owner in the restored engine can fire them: a kind with no owner
// table, a slot past its owner table, and a controller tick for a host the
// restore gave no controller — no host of a (σ, ρ, λ) session runs one.
// (The sources' table has a slot per group, three.)
var unownedEvents = []struct {
	name string
	of   []uint16 // the first pending event of one of these kinds
	kind uint16   // is rewritten to this kind
	arg  uint32   // and this arg
	want string
}{
	{"event kind with no owner", []uint16{des.KindMuxDone}, 1, 0, "kind 1 has no owner"},
	{"event slot past its table", []uint16{des.KindSrcCycle, des.KindSrcTick}, des.KindSrcTick, 7, "slot 7"},
	{"event its owner cannot fire", []uint16{des.KindMuxDone}, des.KindCtlTick, 5, "ctl-tick event names slot 5"},
}

// withEvent returns a copy of blob with its first pending event of one of
// kinds rewritten to (kind, arg).
func withEvent(t testing.TB, blob []byte, kinds []uint16, kind uint16, arg uint32) []byte {
	t.Helper()
	bad := append([]byte(nil), blob...)
	off := firstEvent(t, bad, kinds...)
	binary.LittleEndian.PutUint16(bad[off+16:], kind)
	binary.LittleEndian.PutUint32(bad[off+18:], arg)
	return bad
}

// stanzaOffsets locates words in a components record, in stream order: the
// MUXes' and the regulators' queue counts, the clocks' next ranks and the
// ranks of the (σ, ρ, λ) regulators that follow a clock.
type stanzaOffsets struct{ muxQueues, regQueues, nextRanks, ranks []int }

// stanzas walks the first components record of a one-shard blob — the
// layouts of writeFamily, mux.Mux.Snapshot and the regulators' and clocks'
// Snapshot.
func stanzas(t testing.TB, blob []byte) (o stanzaOffsets) {
	t.Helper()
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(blob[off:])) }
	queue := func(off int) int { return off + 4 + packetBytes*u32(off) } // count, packets
	rec := firstRecord(t, blob, recComponents)
	off := rec + 4*compTotalsWords
	for f := famMux; f < numFamilies; f++ {
		for n := u32(rec + 4*int(f-famMux)); n > 0; n-- {
			off += 4 + 4 + 4 + 1 // slot, host, sub, live
			switch f {
			case famMux:
				o.muxQueues = append(o.muxQueues, off)
				off = queue(off)
				if blob[off] == 1 { // busy: the packet in transmission follows
					off += packetBytes
				}
				off++
			case famSR:
				o.regQueues = append(o.regQueues, off)
				off = queue(off) + 8 + 8 // tokens, last update
			case famCycle:
				o.nextRanks = append(o.nextRanks, off+1)
				off += 1 + 8 // gate, next rank
			case famSRL:
				o.regQueues = append(o.regQueues, off+1)
				rank := queue(off+1) + 1 + 1 + 1 // following; queue, on, transmitting, waiting
				if blob[off] == 1 {
					o.ranks = append(o.ranks, rank)
				}
				off = rank + 8
			}
		}
	}
	return o
}

// with64 returns a copy of blob with the word at off set to v.
func with64(blob []byte, off int, v uint64) []byte {
	out := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// withQueuedMuxPacket returns blob with a copy of the first busy MUX's
// packet in transmission queued behind it: a MUX record whose queue is not
// empty, which the fixture's LIFO MUXes rarely hold at a checkpoint.
func withQueuedMuxPacket(t testing.TB, blob []byte) []byte {
	t.Helper()
	for _, q := range stanzas(t, blob).muxQueues {
		n := int(binary.LittleEndian.Uint32(blob[q:]))
		busy := q + 4 + packetBytes*n
		if blob[busy] != 1 {
			continue
		}
		cur := blob[busy+1:][:packetBytes]
		out := append(append(append([]byte(nil), blob[:busy]...), cur...), blob[busy:]...)
		binary.LittleEndian.PutUint32(out[q:], uint32(n+1))
		rec := firstRecord(t, out, recComponents)
		binary.LittleEndian.PutUint32(out[rec-4:], binary.LittleEndian.Uint32(out[rec-4:])+packetBytes)
		muxPackets := rec + 4*int(numFamilies-famMux)
		binary.LittleEndian.PutUint32(out[muxPackets:], binary.LittleEndian.Uint32(out[muxPackets:])+1)
		return out
	}
	t.Fatal("fixture has no busy MUX")
	return nil
}

// withStalledMux returns blob with the first busy MUX's packet in
// transmission moved into its queue and the server marked idle, in a record
// of the same length: a MUX that no completion will ever serve again.
func withStalledMux(t testing.TB, blob []byte) []byte {
	t.Helper()
	for _, q := range stanzas(t, blob).muxQueues {
		n := int(binary.LittleEndian.Uint32(blob[q:]))
		busy := q + 4 + packetBytes*n
		if blob[busy] != 1 {
			continue
		}
		out := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(out[q:], uint32(n+1))
		copy(out[busy:], blob[busy+1:][:packetBytes])
		out[busy+packetBytes] = 0
		muxPackets := firstRecord(t, out, recComponents) + 4*int(numFamilies-famMux)
		binary.LittleEndian.PutUint32(out[muxPackets:], binary.LittleEndian.Uint32(out[muxPackets:])+1)
		return out
	}
	t.Fatal("fixture has no busy MUX")
	return nil
}

// withDuplicateEvent returns blob with its first pending event of kind
// written twice in a row, the events record's count and length grown to
// match: a second completion for one MUX, a second token wait for one
// (σ, ρ) regulator.
func withDuplicateEvent(t testing.TB, blob []byte, kind uint16) []byte {
	t.Helper()
	off := firstEvent(t, blob, kind)
	out := append(append(append([]byte(nil), blob[:off]...), blob[off:][:eventHdrBytes]...), blob[off:]...)
	rec := firstRecord(t, out, recEngine)
	binary.LittleEndian.PutUint32(out[rec-4:], binary.LittleEndian.Uint32(out[rec-4:])+eventHdrBytes)
	binary.LittleEndian.PutUint32(out[rec:], binary.LittleEndian.Uint32(out[rec:])+1)
	return out
}

// withTinyRegulatorPacket returns blob with the first queued regulator
// packet shrunk to 1e-300 bits: ⌈σ/L⌉ overflows any int, and the queue it
// reaches next must still make a first buffer of at most 64 packets.
func withTinyRegulatorPacket(t testing.TB, blob []byte) []byte {
	t.Helper()
	for _, q := range stanzas(t, blob).regQueues {
		if binary.LittleEndian.Uint32(blob[q:]) > 0 {
			out := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint64(out[q+4+16:], math.Float64bits(1e-300))
			return out
		}
	}
	t.Fatal("fixture has no queued regulator packet")
	return nil
}

// FuzzRestore: Restore on arbitrary bytes returns without panicking and
// without allocating more than a constant factor of what restoring the
// pristine blob allocates plus the input's size — a corrupt length prefix
// must not drive allocation — and a session it returns runs to its end.
// The fixture is growingFixture's, whose blob carries a tree the restore
// decodes. The seeds (the fixture blob, three of its corruptions, the blob
// with a MUX queue, with an idle MUX holding a queue, with a MUX's
// completion written twice, with a 1e-300-bit regulator packet, with a
// clock claiming next rank 2⁶³ — which must seat no more followers than
// the record has — with a follower ranked past its clock, with each of the
// unowned events, with each host-record corruption, with two children of
// its written tree swapped and with a detached subtree root parked) run in
// the ordinary `go test`.
func FuzzRestore(f *testing.F) {
	cfg, blob := growingFixture(f)
	f.Add(blob)
	for _, off := range []int{len(blob) / 4, len(blob) / 2, len(blob) - 40} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 1 << 6
		f.Add(bad)
	}
	f.Add(withQueuedMuxPacket(f, blob))
	f.Add(withStalledMux(f, blob))
	f.Add(withDuplicateEvent(f, blob, des.KindMuxDone))
	f.Add(withTinyRegulatorPacket(f, blob))
	offs := stanzas(f, blob)
	f.Add(with64(blob, offs.nextRanks[0], 1<<63))
	f.Add(with64(blob, offs.ranks[0], 1<<62))
	for _, ev := range unownedEvents {
		f.Add(withEvent(f, blob, ev.of, ev.kind, ev.arg))
	}
	for _, hc := range hostCorruptions {
		bad := append([]byte(nil), blob...)
		hc.corrupt(f, bad)
		f.Add(bad)
	}
	f.Add(withSwappedChildren(f, blob))
	f.Add(withDetachedRoot(f, blob))
	allocated := func(tb testing.TB, data []byte) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := restoreNoPanic(tb, cfg, data, "fuzz input")
		runtime.ReadMemStats(&after)
		if err == nil {
			finishNoPanic(tb, s, "fuzz input")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(f, blob) // warm the blueprint cache: the baseline is a warm restore
	baseline := allocated(f, blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, limit := allocated(t, data), 4*baseline+256*uint64(len(data)); got > limit {
			t.Fatalf("Restore of %d bytes allocated %d bytes, limit %d (pristine restore: %d)", len(data), got, limit, baseline)
		}
	})
}
