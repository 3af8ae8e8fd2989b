package scenario

// The churn model: scenarios describe membership dynamics declaratively
// (Poisson join arrivals at a rate scaled by group size, exponential
// session lifetimes) and the model materialises into a concrete schedule of
// core.MembershipEvents — a pure function of (scenario, seed, duration),
// drawn on dedicated xrand streams so enabling churn never perturbs the
// membership, tree, or traffic streams of the static scenario it extends.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/xrand"
)

// Churn configures session-level membership churn for a multi-group
// scenario with partial membership. The model is M/G/∞-style: each group
// sees a Poisson process of join arrivals at a rate proportional to its
// size, each arrival picks a host uniformly among current non-members,
// stays for an exponentially distributed lifetime, and leaves. Initial
// members (including every group source) never churn out.
type Churn struct {
	// Kind: "" (off) or "poisson".
	Kind string `json:"kind,omitempty"`
	// TurnoverPerSec sizes the arrival rate relative to the group:
	// rate_g = TurnoverPerSec × |initial members of g| — so "0.02" means
	// roughly 2% of the group's population joins (and later leaves) per
	// simulated second, independent of how skewed the group sizes are.
	TurnoverPerSec float64 `json:"turnover_per_sec,omitempty"`
	// MeanLifetimeSec is the mean session lifetime. Default 2.
	MeanLifetimeSec float64 `json:"mean_lifetime_sec,omitempty"`
	// StartSec holds churn off during warm-up. Default 0.
	StartSec float64 `json:"start_sec,omitempty"`
}

// Enabled reports whether the scenario has churn configured.
func (c Churn) Enabled() bool { return c.Kind != "" }

// validate checks the churn spec.
func (c Churn) validate(name string) error {
	switch c.Kind {
	case "":
		return nil
	case "poisson":
	default:
		return fmt.Errorf("scenario %s: unknown churn kind %q", name, c.Kind)
	}
	if c.TurnoverPerSec <= 0 {
		return fmt.Errorf("scenario %s: churn needs turnover_per_sec > 0", name)
	}
	if c.MeanLifetimeSec < 0 || c.StartSec < 0 {
		return fmt.Errorf("scenario %s: negative churn parameter", name)
	}
	return nil
}

// drawLifetime samples one session lifetime in seconds.
func (c Churn) drawLifetime(rng *xrand.Rand) float64 {
	mean := c.MeanLifetimeSec
	if mean == 0 {
		mean = 2
	}
	return rng.Exp(mean)
}

// rate is a group's join-arrival rate in arrivals/second; members is the
// group's initial member count.
func (c Churn) rate(members int) float64 { return c.TurnoverPerSec * float64(members) }

// expectedSteps sizes ChurnEvents' scratch before its first draw: a join
// and its leave for each expected arrival, m = span·Σ r over the groups'
// rates, plus four standard deviations of the Poisson count.
func (c Churn) expectedSteps(groups []core.GroupSpec, span float64) int {
	if span <= 0 {
		return 0
	}
	var rate float64
	for g := range groups {
		rate += max(0, c.rate(len(groups[g].Members)))
	}
	m := rate * span
	return int(2 * (m + 4*math.Sqrt(m) + 1))
}

// churnStream salts the per-group churn streams away from the membership
// streams derived from the same (seed, group) pair.
const churnStream = 0xc4ceb9fe1a85ec53

// ChurnEvents materialises the scenario's churn model into a concrete
// membership event schedule over the given run duration: a pure function
// of (scenario, seed, duration), independent of load, combo, worker
// count, and execution order. groups is the materialised membership
// (s.Groups(seed)); passing nil materialises it here. A scenario without
// churn — or with full membership, which leaves no host to join — yields
// nil.
//
// Each group's events are drawn into one chronological run of compact
// steps, in one scratch sized from the rates and the duration before the
// first draw: a join picks the idx-th non-member, ascending, from a
// Fenwick tree over the hosts (one int32 buffer, reused by every group),
// and the churned-in members' departures wait in a list kept latest first,
// also reused. The runs are then merged by (At, group).
func (s Scenario) ChurnEvents(seed uint64, duration des.Duration, groups []core.GroupSpec) []core.MembershipEvent {
	if !s.Churn.Enabled() {
		return nil
	}
	if groups == nil {
		groups = s.Groups(seed)
	}
	if groups == nil {
		return nil
	}
	n := s.Hosts()
	durSec := duration.Seconds()
	steps := make([]churnStep, 0, s.Churn.expectedSteps(groups, durSec-s.Churn.StartSec))
	runs := make([]int, 1, len(groups)+1) // runs[g]: where group g's run starts
	free := make(nonMembers, n+1)
	var pending []departure // latest first
	for g := range groups {
		rate := s.Churn.rate(len(groups[g].Members))
		if rate <= 0 {
			runs = append(runs, len(steps))
			continue
		}
		rng := xrand.New(xrand.DeriveSeed(seed, g) ^ churnStream)
		free.reset(groups[g].Members)
		count := len(groups[g].Members)
		pop := func(until float64) {
			for len(pending) > 0 && pending[len(pending)-1].at <= until {
				d := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				steps = append(steps, churnStep{at: des.Seconds(d.at), host: d.host})
				free.add(int(d.host), 1)
				count--
			}
		}
		t := s.Churn.StartSec
		for {
			t += rng.Exp(1 / rate)
			if t >= durSec {
				break
			}
			pop(t)
			if count == n {
				continue // everyone is a member; the arrival is lost
			}
			// Uniform pick among current non-members.
			host := free.find(rng.Intn(n - count))
			steps = append(steps, churnStep{at: des.Seconds(t), host: int32(host), join: true})
			free.add(host, -1)
			count++
			leaveAt := t + s.Churn.drawLifetime(rng)
			if leaveAt < durSec {
				// Behind every departure due no later: equal times leave
				// in the order they were drawn.
				i := sort.Search(len(pending), func(i int) bool { return pending[i].at <= leaveAt })
				pending = slices.Insert(pending, i, departure{at: leaveAt, host: int32(host)})
			}
		}
		pop(durSec)
		runs = append(runs, len(steps))
	}
	return mergeRuns(steps, runs)
}

// departure is a churned-in member's scheduled leave.
type departure struct {
	at   float64
	host int32
}

// churnStep is one event of a group's run, half a core.MembershipEvent:
// the group is the run's.
type churnStep struct {
	at   des.Time
	host int32
	join bool
}

// nonMembers is a Fenwick tree over the hosts of one group: host h is
// position h+1, and entry i sums the non-member marks of positions
// (i − i&−i, i]. Counts fit in an int32 (the host count does), which
// halves the buffer.
type nonMembers []int32

// reset marks every host a non-member except members, in O(hosts).
func (f nonMembers) reset(members []int) {
	for i := range f {
		f[i] = 1
	}
	f[0] = 0
	for _, m := range members {
		f[m+1] = 0
	}
	for i := 1; i < len(f); i++ {
		if j := i + i&-i; j < len(f) {
			f[j] += f[i]
		}
	}
}

// add changes host h's non-member mark by d.
func (f nonMembers) add(h int, d int32) {
	for i := h + 1; i < len(f); i += i & -i {
		f[i] += d
	}
}

// find returns the idx-th non-member (from 0) in ascending host order.
func (f nonMembers) find(idx int) int {
	pos, rest := 0, int32(idx)+1
	for step := 1 << (bits.Len(uint(len(f)-1)) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(f) && f[next] < rest {
			pos, rest = next, rest-f[next]
		}
	}
	return pos
}

// mergeRuns merges the groups' chronological runs — group g's is
// steps[runs[g]:runs[g+1]] — into one schedule ordered by (At, group):
// what a stable sort by At of the runs laid end to end gives. A min-heap
// holds each group with steps left at its next step.
func mergeRuns(steps []churnStep, runs []int) []core.MembershipEvent {
	if len(steps) == 0 {
		return nil
	}
	type head struct {
		at       des.Time
		group    int
		next, to int // the group's steps left: steps[next:to]
	}
	before := func(a, b head) bool { return a.at < b.at || a.at == b.at && a.group < b.group }
	heads := make([]head, 0, len(runs)-1)
	for g := range len(runs) - 1 {
		if runs[g] < runs[g+1] {
			heads = append(heads, head{steps[runs[g]].at, g, runs[g], runs[g+1]})
		}
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heads) {
				return
			}
			if r := c + 1; r < len(heads) && before(heads[r], heads[c]) {
				c = r
			}
			if !before(heads[c], heads[i]) {
				return
			}
			heads[i], heads[c] = heads[c], heads[i]
			i = c
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	events := make([]core.MembershipEvent, 0, len(steps))
	for len(heads) > 0 {
		h := &heads[0]
		st := steps[h.next]
		events = append(events, core.MembershipEvent{At: st.at, Group: h.group, Host: int(st.host), Join: st.join})
		if h.next++; h.next < h.to {
			h.at = steps[h.next].at
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return events
}
