package core

// ComponentCount reports how many components — MUXes, regulators, clocks —
// the session's registries hold, for the external tests that budget a
// restore per component.
func ComponentCount(s *Session) int {
	n := 0
	for _, sh := range s.sh {
		n += len(sh.env.mux.comps) + len(sh.env.sr.comps) + len(sh.env.cyc.comps) + len(sh.env.srl.comps)
	}
	return n
}

// SnapshotHint reports the capacity the session's next Snapshot starts its
// stream at.
func SnapshotHint(s *Session) int { return s.snapSize }

// PendingEvents reports how many events the session's engines hold.
func PendingEvents(s *Session) int {
	n := 0
	for _, sh := range s.sh {
		n += sh.eng.Pending()
	}
	return n
}
