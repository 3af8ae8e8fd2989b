package des

// At reports when the event will fire, or 0 if the handle is stale or
// canceled.
func (h Event) At() Time {
	if h.Pending() {
		return h.ev.at
	}
	return 0
}

// AtBarriers registers a fixed list of barrier instants: OnBarriers over a
// cursor into times, which must be ascending and distinct.
func (c *Coordinator[P]) AtBarriers(times []Time, fn func(Time)) {
	i := 0
	c.OnBarriers(func() (Time, bool) {
		if i == len(times) {
			return 0, false
		}
		return times[i], true
	}, func(at Time) {
		i++
		fn(at)
	})
}
