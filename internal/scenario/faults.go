package scenario

// The fault model: scenarios describe correlated failures declaratively
// (router-domain outages, substrate partitions with heals, mass-leave and
// epoch-transition membership shocks) and the model materialises into a
// concrete schedule of core.FaultEvents — a pure function of (scenario,
// seed), drawn on a dedicated xrand stream so enabling faults never
// perturbs the membership, churn, tree, or traffic streams of the
// scenario it extends. Duration only filters the compiled schedule; it
// never shifts a draw.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/xrand"
)

// FaultSpec is one declarative fault event. Kinds:
//
//   - "domain_outage": every host of one router domain goes down at
//     AtSec; DurationSec > 0 restores them (and their recorded group
//     memberships) at AtSec+DurationSec, 0 leaves them down for the run.
//     The domain is Router, or a seeded draw among non-empty domains.
//   - "partition": the substrate cuts along a router bipartition at
//     AtSec — Routers lists one side, or Seeded draws the bipartition.
//     Crossing traffic is dropped and counted until the matching "heal".
//   - "heal": closes the open partition and batch-repairs every severed
//     subtree. Must strictly follow its partition in time.
//   - "mass_leave": a seeded Fraction of Group's initial members leave at
//     one instant.
//   - "epoch_transition": a staged cutover for Group — a new cohort
//     (Fraction of the group size, drawn from non-members) joins at
//     AtSec, and the same-sized old cohort leaves at AtSec+DurationSec,
//     so the memberships overlap during the epoch window.
type FaultSpec struct {
	// Kind selects the fault (see above).
	Kind string `json:"kind"`
	// AtSec is the strike time in simulated seconds (> 0).
	AtSec float64 `json:"at_sec"`
	// DurationSec spans outage→restore and epoch join→leave. Required
	// for epoch_transition; 0 makes a domain_outage permanent.
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Seeded draws the outage domain or the partition bipartition from
	// the scenario's fault stream instead of naming it.
	Seeded bool `json:"seeded,omitempty"`
	// Router names the outage domain when not Seeded.
	Router int `json:"router,omitempty"`
	// Routers lists one partition side when not Seeded.
	Routers []int `json:"routers,omitempty"`
	// Group targets the mass kinds.
	Group int `json:"group,omitempty"`
	// Fraction sizes the mass kinds' cohort relative to the group's
	// initial membership, in (0, 1].
	Fraction float64 `json:"fraction,omitempty"`
}

// faultStream salts the scenario fault stream away from the membership,
// churn, and topology streams derived from the same seed.
const faultStream = 0x2545f4914f6cdd1d

// HasFaults reports whether the scenario injects faults.
func (s Scenario) HasFaults() bool { return len(s.Faults) > 0 }

// validateFaultSpecs checks the fault list statically (no topology or
// membership in hand): kinds resolve, fields match their kind, and the
// partition/heal pairing is well formed in time order.
func validateFaultSpecs(name string, specs []FaultSpec, groupCount int) error {
	sorted := append([]FaultSpec(nil), specs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].AtSec < sorted[j].AtSec })
	openPartition := -1.0
	for _, f := range sorted {
		if f.AtSec <= 0 {
			return fmt.Errorf("scenario %s: fault %q must strike after time zero", name, f.Kind)
		}
		if f.DurationSec < 0 {
			return fmt.Errorf("scenario %s: fault %q has a negative duration", name, f.Kind)
		}
		massKind := f.Kind == "mass_leave" || f.Kind == "epoch_transition"
		if massKind {
			if f.Fraction <= 0 || f.Fraction > 1 {
				return fmt.Errorf("scenario %s: fault %q needs fraction in (0,1]", name, f.Kind)
			}
			if f.Group < 0 || f.Group >= groupCount {
				return fmt.Errorf("scenario %s: fault %q group %d outside [0,%d)", name, f.Kind, f.Group, groupCount)
			}
		} else if f.Fraction != 0 || f.Group != 0 {
			return fmt.Errorf("scenario %s: fault %q does not take fraction/group", name, f.Kind)
		}
		switch f.Kind {
		case "domain_outage":
			if f.Seeded && f.Router != 0 {
				return fmt.Errorf("scenario %s: seeded domain_outage also names router %d", name, f.Router)
			}
			if f.Router < 0 {
				return fmt.Errorf("scenario %s: domain_outage router %d negative", name, f.Router)
			}
			if len(f.Routers) > 0 {
				return fmt.Errorf("scenario %s: domain_outage takes router, not routers", name)
			}
		case "partition":
			if f.Seeded == (len(f.Routers) > 0) {
				return fmt.Errorf("scenario %s: partition needs exactly one of seeded, routers", name)
			}
			if f.Router != 0 || f.DurationSec != 0 {
				return fmt.Errorf("scenario %s: partition takes routers and a separate heal, not router/duration_sec", name)
			}
			if openPartition >= 0 {
				return fmt.Errorf("scenario %s: partition at %gs overlaps the one at %gs", name, f.AtSec, openPartition)
			}
			openPartition = f.AtSec
		case "heal":
			if f.Seeded || f.Router != 0 || len(f.Routers) > 0 || f.DurationSec != 0 {
				return fmt.Errorf("scenario %s: heal takes only at_sec", name)
			}
			if openPartition < 0 {
				return fmt.Errorf("scenario %s: heal at %gs without an open partition", name, f.AtSec)
			}
			if f.AtSec <= openPartition {
				return fmt.Errorf("scenario %s: heal at %gs must strictly follow its partition at %gs", name, f.AtSec, openPartition)
			}
			openPartition = -1
		case "mass_leave":
			if f.Seeded || f.Router != 0 || len(f.Routers) > 0 {
				return fmt.Errorf("scenario %s: mass_leave takes group and fraction", name)
			}
			if f.DurationSec != 0 {
				return fmt.Errorf("scenario %s: mass_leave is instantaneous; duration_sec does not apply", name)
			}
		case "epoch_transition":
			if f.Seeded || f.Router != 0 || len(f.Routers) > 0 {
				return fmt.Errorf("scenario %s: epoch_transition takes group, fraction, duration_sec", name)
			}
			if f.DurationSec <= 0 {
				return fmt.Errorf("scenario %s: epoch_transition needs duration_sec > 0 (the membership overlap window)", name)
			}
		default:
			return fmt.Errorf("scenario %s: unknown fault kind %q", name, f.Kind)
		}
	}
	return nil
}

// sampleCohort draws k distinct hosts from the candidates (uniformly,
// without replacement) and returns them sorted ascending. It consumes
// exactly len(candidates) draws via Perm regardless of k, keeping the
// stream layout independent of the fraction.
func sampleCohort(rng *xrand.Rand, candidates []int, k int) []int {
	if k > len(candidates) {
		k = len(candidates)
	}
	perm := rng.Perm(len(candidates))
	cohort := make([]int, k)
	for i := 0; i < k; i++ {
		cohort[i] = candidates[perm[i]]
	}
	sort.Ints(cohort)
	return cohort
}

// FaultEvents materialises the scenario's fault specs into a compiled,
// validated core schedule: a pure function of (scenario, seed),
// independent of load, combo, and execution mode; events striking after
// the traffic duration are dropped after every draw is made, so a shorter
// run sees a strict prefix of the longer run's schedule. groups is the
// materialised membership (s.Groups(seed)); passing nil materialises it
// here. The hosts are attached to the topology exactly as the session
// attaches them (topo.Domains, which skips the routes), so router domains
// and bipartitions resolve to the same host sets the run will use.
func (s Scenario) FaultEvents(seed uint64, duration des.Duration, groups []core.GroupSpec) ([]core.FaultEvent, error) {
	if len(s.Faults) == 0 {
		return nil, nil
	}
	if err := validateFaultSpecs(s.Name, s.Faults, s.GroupCount()); err != nil {
		return nil, err
	}
	gen, err := s.Topology.Generator()
	if err != nil {
		return nil, err
	}
	domains := topo.Domains(gen.Build(seed), topo.NetworkConfig{
		NumHosts:      s.Hosts(),
		Seed:          seed,
		UplinkClasses: s.UplinkClasses(),
	})
	numRouters := len(domains)
	var populated []int // non-empty domains, ascending — the seeded outage pool
	for r, hosts := range domains {
		if len(hosts) > 0 {
			populated = append(populated, r)
		}
	}
	if groups == nil {
		groups = s.Groups(seed)
	}

	specs := append([]FaultSpec(nil), s.Faults...)
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].AtSec < specs[j].AtSec })
	rng := xrand.New(seed ^ faultStream)
	var events []core.FaultEvent
	nextID := 0
	type outageSpan struct {
		router   int
		from, to float64
	} // to < 0 = permanent
	var outages []outageSpan
	openPartitionID := -1
	for _, f := range specs {
		switch f.Kind {
		case "domain_outage":
			r := f.Router
			if f.Seeded {
				r = populated[rng.Intn(len(populated))]
			}
			if r >= numRouters {
				return nil, fmt.Errorf("scenario %s: domain_outage router %d outside [0,%d)", s.Name, r, numRouters)
			}
			hosts := append([]int(nil), domains[r]...)
			if len(hosts) == 0 {
				return nil, fmt.Errorf("scenario %s: domain_outage router %d has no hosts", s.Name, r)
			}
			sort.Ints(hosts)
			to := -1.0
			if f.DurationSec > 0 {
				to = f.AtSec + f.DurationSec
			}
			for _, o := range outages {
				if o.router == r && f.AtSec < o.to {
					return nil, fmt.Errorf("scenario %s: domain_outage at %gs overlaps the router-%d outage at %gs",
						s.Name, f.AtSec, r, o.from)
				}
				if o.router == r && o.to < 0 {
					return nil, fmt.Errorf("scenario %s: domain_outage at %gs hits router %d, permanently down since %gs",
						s.Name, f.AtSec, r, o.from)
				}
			}
			outages = append(outages, outageSpan{router: r, from: f.AtSec, to: to})
			id := nextID
			nextID++
			events = append(events, core.FaultEvent{
				At: des.Seconds(f.AtSec), Kind: core.FaultOutage, ID: id, Group: -1, Hosts: hosts})
			if to > 0 {
				events = append(events, core.FaultEvent{
					At: des.Seconds(to), Kind: core.FaultRestore, ID: id, Group: -1, Hosts: hosts})
			}
		case "partition":
			side := make([]bool, numRouters)
			if f.Seeded {
				a := 0
				for r := range side {
					if rng.Intn(2) == 1 {
						side[r] = true
						a++
					}
				}
				// A degenerate draw (all routers on one side) would be no
				// partition at all; move router 0 across.
				if a == 0 {
					side[0] = true
				} else if a == numRouters {
					side[0] = false
				}
			} else {
				for _, r := range f.Routers {
					if r < 0 || r >= numRouters {
						return nil, fmt.Errorf("scenario %s: partition router %d outside [0,%d)", s.Name, r, numRouters)
					}
					if side[r] {
						return nil, fmt.Errorf("scenario %s: partition lists router %d twice", s.Name, r)
					}
					side[r] = true
				}
				if len(f.Routers) == numRouters {
					return nil, fmt.Errorf("scenario %s: partition side holds every router", s.Name)
				}
			}
			openPartitionID = nextID
			nextID++
			events = append(events, core.FaultEvent{
				At: des.Seconds(f.AtSec), Kind: core.FaultPartition, ID: openPartitionID, Group: -1, Side: side})
		case "heal":
			events = append(events, core.FaultEvent{
				At: des.Seconds(f.AtSec), Kind: core.FaultHeal, ID: openPartitionID, Group: -1})
			openPartitionID = -1
		case "mass_leave":
			old, _ := cohortPools(groups[f.Group], s.Hosts())
			k := int(math.Ceil(f.Fraction * float64(len(groups[f.Group].Members))))
			victims := sampleCohort(rng, old, k)
			if len(victims) == 0 {
				return nil, fmt.Errorf("scenario %s: mass_leave on group %d has no removable member", s.Name, f.Group)
			}
			events = append(events, core.FaultEvent{
				At: des.Seconds(f.AtSec), Kind: core.FaultMassLeave, Group: f.Group, Hosts: victims})
		case "epoch_transition":
			old, free := cohortPools(groups[f.Group], s.Hosts())
			k := int(math.Ceil(f.Fraction * float64(len(groups[f.Group].Members))))
			joiners := sampleCohort(rng, free, k)
			leavers := sampleCohort(rng, old, k)
			if len(joiners) == 0 || len(leavers) == 0 {
				return nil, fmt.Errorf("scenario %s: epoch_transition on group %d has no cohort to rotate", s.Name, f.Group)
			}
			events = append(events, core.FaultEvent{
				At: des.Seconds(f.AtSec), Kind: core.FaultMassJoin, Group: f.Group, Hosts: joiners})
			events = append(events, core.FaultEvent{
				At: des.Seconds(f.AtSec + f.DurationSec), Kind: core.FaultMassLeave, Group: f.Group, Hosts: leavers})
		}
	}
	// Duration filters after every draw: a dropped heal leaves its
	// partition cut for the rest of the run, a dropped restore leaves the
	// domain down — both are valid schedules for the core validator.
	n := 0
	for _, ev := range events {
		if ev.At <= duration {
			events[n] = ev
			n++
		}
	}
	events = events[:n]
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// cohortPools splits the population for one group into the initial
// members minus the source (the leave pool) and the non-members (the join
// pool), both ascending.
func cohortPools(g core.GroupSpec, numHosts int) (old, free []int) {
	member := make([]bool, numHosts)
	for _, m := range g.Members {
		member[m] = true
		if m != g.Source {
			old = append(old, m)
		}
	}
	for h := 0; h < numHosts; h++ {
		if !member[h] {
			free = append(free, h)
		}
	}
	return old, free
}
