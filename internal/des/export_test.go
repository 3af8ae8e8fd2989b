package des

// At reports when the event will fire, or 0 if the handle is stale or
// canceled.
func (h Event) At() Time {
	if h.Pending() {
		return h.ev.at
	}
	return 0
}
