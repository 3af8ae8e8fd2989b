package traffic

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/snap"
	"repro/internal/xrand"
)

// Paper workloads (Section VI): "64Kbps audio streams and 1.5Mbps MPEG-1
// video streams", both explicitly variable-bit-rate. The models below
// reproduce the mean rates with realistic burst structure.
const (
	// AudioRate is the paper's audio stream average rate.
	AudioRate = 64_000 // bits/second
	// VideoRate is the paper's MPEG-1 video stream average rate.
	VideoRate = 1_500_000 // bits/second
)

// Audio is a VBR voice model: exponentially distributed talkspurts and
// silence gaps (Brady's on/off model). During a talkspurt the codec emits
// fixed packets at the peak rate; silences emit nothing. The peak rate is
// chosen so the long-run average equals Rate.
type Audio struct {
	Flow        int
	Rate        float64      // long-run average, bits/second
	PacketSize  float64      // bits (default 1280 = 160-byte frames)
	MeanTalk    des.Duration // mean talkspurt length
	MeanSilence des.Duration // mean silence length

	// Runtime state. rng/nextID/talkEnd are the mutable words a checkpoint
	// captures; the rest is bound by Resume.
	rng      xrand.Rand
	nextID   uint64
	talkEnd  des.Time
	eng      *des.Engine
	until    des.Time
	out      Sink
	interval des.Duration // between a talkspurt's packets
}

// init makes a a talkspurt audio source of flow scaled to the given
// average rate (Mix.SourcesN makes every one). The default on/off scales (250 ms talk, 150 ms silence) sit at
// packet-burst granularity: the resulting (σ, ρ) envelope is a few tens of
// kilobits, matching the sub-second worst-case delays of the paper's
// Fig. 4(a) (classic Brady telephony scales of ~1 s talkspurts would give
// envelopes hundreds of kilobits deep and swamp the load dependence the
// experiment sweeps).
func (a *Audio) init(flow int, rate float64, seed uint64) *Audio {
	if rate <= 0 {
		panic("traffic: audio rate must be positive")
	}
	*a = Audio{
		Flow:        flow,
		Rate:        rate,
		PacketSize:  1280,
		MeanTalk:    des.Millis(250),
		MeanSilence: des.Millis(60),
		rng:         *xrand.New(seed),
	}
	return a
}

// Name implements Source.
func (a *Audio) Name() string { return fmt.Sprintf("audio-%.0fbps", a.Rate) }

// AvgRate implements Source.
func (a *Audio) AvgRate() float64 { return a.Rate }

// PeakRate returns the on-state emission rate.
func (a *Audio) PeakRate() float64 {
	onFrac := a.MeanTalk.Seconds() / (a.MeanTalk.Seconds() + a.MeanSilence.Seconds())
	return a.Rate / onFrac
}

// Start implements Source. Emission begins with a talkspurt so
// measurement starts promptly — the initial event is a wake, exactly like
// the end of a silence gap.
func (a *Audio) Start(eng *des.Engine, until des.Time, emit func(Packet)) {
	a.StartSink(eng, until, SinkFunc(emit))
}

// StartSink implements Source.
func (a *Audio) StartSink(eng *des.Engine, until des.Time, out Sink) {
	a.Resume(eng, until, out)
	eng.ScheduleInKind(0, des.KindAudioWake, uint32(a.Flow))
}

// Resume binds the source to the engine, horizon and sink without
// scheduling anything, and registers it as the owner of its talk and wake
// events at slot Flow: Start calls it and schedules the first wake; a
// checkpoint restore calls it after Restore, and the engine re-inserts the
// serialized events.
func (a *Audio) Resume(eng *des.Engine, until des.Time, out Sink) {
	a.eng, a.until, a.out = eng, until, out
	a.interval = des.Seconds(a.PacketSize / a.PeakRate())
	eng.Own(des.KindAudioTalk, uint32(a.Flow), a)
}

// Fire is the source's event: des.KindAudioWake ends a silence and draws
// the talkspurt's length, des.KindAudioTalk is a packet tick within it.
// Past the talkspurt's end the silence gap is drawn — same rng order as
// emitting would have — and the source sleeps until the next wake.
func (a *Audio) Fire(kind uint16) {
	now := a.eng.Now()
	if now >= a.until {
		return
	}
	if kind == des.KindAudioWake {
		a.talkEnd = now + des.Seconds(a.rng.Exp(a.MeanTalk.Seconds()))
	}
	if now >= a.talkEnd {
		gap := des.Seconds(a.rng.Exp(a.MeanSilence.Seconds()))
		a.eng.ScheduleInKind(gap, des.KindAudioWake, uint32(a.Flow))
		return
	}
	a.out.Put(Packet{ID: a.nextID, Flow: a.Flow, Size: a.PacketSize, CreatedAt: now})
	a.nextID++
	a.eng.ScheduleInKind(a.interval, des.KindAudioTalk, uint32(a.Flow))
}

// SnapTag names the source type in a checkpoint.
func (a *Audio) SnapTag() uint8 { return TagAudio }

// Snapshot appends the source's mutable runtime words to the open record.
func (a *Audio) Snapshot(w *snap.Writer) {
	w.U64(a.nextID)
	w.I64(int64(a.talkEnd))
	w.U64(a.rng.State())
}

// Restore overwrites the source's mutable runtime words from the open record.
func (a *Audio) Restore(r *snap.Reader) {
	a.nextID = r.U64()
	a.talkEnd = des.Time(r.I64())
	a.rng.SetState(r.U64())
}

// Video is an MPEG-1-style VBR model: frames at a fixed rate, sizes
// following the 12-frame IBBPBBPBBPBB group-of-pictures pattern with
// I:P:B size ratio 5:2:1 and per-frame lognormal jitter, packetised into
// MTU-sized packets. The scale is normalised so the long-run average rate
// equals Rate.
type Video struct {
	Flow       int
	Rate       float64 // long-run average, bits/second
	FPS        float64
	PacketSize float64 // bits per packet (MTU)
	JitterSig  float64 // lognormal sigma for frame-size jitter
	// SceneMean is the mean spacing of scene changes; at each scene
	// change the next I-frame is SceneBoost× its normal size, modelling
	// the intra-coded refresh real MPEG-1 emits on a cut. SceneBoost <= 1
	// disables scene changes.
	SceneMean  des.Duration
	SceneBoost float64

	// Runtime state. rng/nextID/frame/scenePending are the mutable words a
	// checkpoint captures; the rest is bound by Resume.
	rng          xrand.Rand
	nextID       uint64
	frame        int
	scenePending bool
	eng          *des.Engine
	until        des.Time
	out          Sink
	frameGap     des.Duration
}

// gopPattern holds relative frame weights for IBBPBBPBBPBB.
var gopPattern = [12]float64{5, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1}

// gopWeight is the sum of gopPattern.
const gopWeight = 5 + 2*3 + 1*8

// init makes v an MPEG-1-style video source of flow at the given average
// rate, 25 frames/second, 10000-bit packets, and moderate frame jitter
// (Mix.SourcesN makes every one).
func (v *Video) init(flow int, rate float64, seed uint64) *Video {
	if rate <= 0 {
		panic("traffic: video rate must be positive")
	}
	*v = Video{
		Flow:       flow,
		Rate:       rate,
		FPS:        25,
		PacketSize: 10_000,
		JitterSig:  0.2,
		SceneMean:  des.Seconds(4),
		SceneBoost: 2.5,
		rng:        *xrand.New(seed),
	}
	return v
}

// Name implements Source.
func (v *Video) Name() string { return fmt.Sprintf("video-%.0fbps", v.Rate) }

// AvgRate implements Source.
func (v *Video) AvgRate() float64 { return v.Rate }

// frameSize draws the size in bits of the next frame.
func (v *Video) frameSize() float64 {
	meanFrame := v.Rate / v.FPS
	unit := meanFrame * 12 / gopWeight
	idx := v.frame % 12
	base := unit * gopPattern[idx]
	v.frame++
	if v.SceneBoost > 1 {
		// Bernoulli scene-change arrival at rate 1/SceneMean.
		if v.rng.Bool(1 / (v.FPS * v.SceneMean.Seconds())) {
			v.scenePending = true
		}
		if v.scenePending && idx == 0 {
			v.scenePending = false
			base *= v.SceneBoost
		}
	}
	// Lognormal jitter with unit mean: exp(N(−σ²/2, σ)).
	jitter := v.rng.LogNormal(-v.JitterSig*v.JitterSig/2, v.JitterSig)
	return base * jitter
}

// Start implements Source.
func (v *Video) Start(eng *des.Engine, until des.Time, emit func(Packet)) {
	v.StartSink(eng, until, SinkFunc(emit))
}

// StartSink implements Source.
func (v *Video) StartSink(eng *des.Engine, until des.Time, out Sink) {
	v.Resume(eng, until, out)
	eng.ScheduleInKind(0, des.KindVideoTick, uint32(v.Flow))
}

// Resume binds the source to the engine, horizon and sink without
// scheduling anything, and registers it as the owner of its frame ticks at
// slot Flow (Start schedules the first tick; after a checkpoint restore
// the engine re-inserts the serialized one).
func (v *Video) Resume(eng *des.Engine, until des.Time, out Sink) {
	v.eng, v.until, v.out = eng, until, out
	v.frameGap = des.Seconds(1 / v.FPS)
	eng.Own(des.KindVideoTick, uint32(v.Flow), v)
}

// Fire is the frame tick (des.KindVideoTick): the frame is packetised and
// all its packets leave together, modelling the encoder handing a complete
// frame to the stack.
func (v *Video) Fire(uint16) {
	now := v.eng.Now()
	if now >= v.until {
		return
	}
	for size := v.frameSize(); size > 0; size -= v.PacketSize {
		v.out.Put(Packet{ID: v.nextID, Flow: v.Flow, Size: min(size, v.PacketSize), CreatedAt: now})
		v.nextID++
	}
	v.eng.ScheduleInKind(v.frameGap, des.KindVideoTick, uint32(v.Flow))
}

// SnapTag names the source type in a checkpoint.
func (v *Video) SnapTag() uint8 { return TagVideo }

// Snapshot appends the source's mutable runtime words to the open record.
func (v *Video) Snapshot(w *snap.Writer) {
	w.U64(v.nextID)
	w.I64(int64(v.frame))
	w.Bool(v.scenePending)
	w.U64(v.rng.State())
}

// Restore overwrites the source's mutable runtime words from the open
// record. The frame counter indexes the GOP pattern, so a negative one
// fails the reader.
func (v *Video) Restore(r *snap.Reader) {
	v.nextID = r.U64()
	v.frame = int(r.I64())
	v.scenePending = r.Bool()
	v.rng.SetState(r.U64())
	if v.frame < 0 {
		r.Fail(fmt.Errorf("traffic: snapshot video frame counter %d is negative", v.frame))
	}
}

// Mix describes the three traffic patterns of the evaluation: 3 audio
// streams, 3 video streams, or 1 video + 2 audio.
type Mix int

// The paper's three workload mixes.
const (
	MixAudio  Mix = iota // three 64 kbps audio streams
	MixVideo             // three 1.5 Mbps video streams
	MixHetero            // one video + two audio streams
)

// NumFlows returns the mix's native flow count (the paper's K=3).
func (m Mix) NumFlows() int { return 3 }

// VideoFlow reports whether flow i of an n-flow instantiation of the mix
// is a video flow: the mix's three-flow pattern repeats cyclically, so
// MixHetero at n=6 is video,audio,audio,video,audio,audio.
func (m Mix) VideoFlow(i int) bool {
	switch m {
	case MixAudio:
		return false
	case MixVideo:
		return true
	case MixHetero:
		return i%3 == 0
	default:
		panic("traffic: unknown mix")
	}
}

// SourcesN instantiates n flows by cycling the mix's three-flow pattern —
// how a K-group scenario drives K > 3 groups with the paper's media
// models. Same-type flows share one stream seed, i.e. the groups carry
// identical copies of one stream — exactly the paper's Simulation II setup
// ("each of the three groups is fed with the same 64Kbps audio stream").
// Identical copies burst in lockstep, which is what makes the un-staggered
// (σ, ρ) multiplexer realise its worst case and the staggered (σ, ρ, λ)
// regulator pay off. The flows of each type are one slab.
func (m Mix) SourcesN(n int, seed uint64) []Source {
	if n < 1 {
		panic("traffic: SourcesN needs at least one flow")
	}
	base := xrand.New(seed)
	audioSeed, videoSeed := base.Uint64(), base.Uint64()
	videos := 0
	for i := 0; i < n; i++ {
		if m.VideoFlow(i) {
			videos++
		}
	}
	vs, as := make([]Video, videos), make([]Audio, n-videos)
	out := make([]Source, n)
	for i := 0; i < n; i++ {
		if m.VideoFlow(i) {
			out[i], vs = vs[0].init(i, VideoRate, videoSeed), vs[1:]
		} else {
			out[i], as = as[0].init(i, AudioRate, audioSeed), as[1:]
		}
	}
	return out
}

// TotalRateN returns the aggregate average rate of an n-flow
// instantiation of the mix.
func (m Mix) TotalRateN(n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		if m.VideoFlow(i) {
			total += VideoRate
		} else {
			total += AudioRate
		}
	}
	return total
}

// Homogeneous reports whether all flows in the mix share one rate.
func (m Mix) Homogeneous() bool { return m != MixHetero }
