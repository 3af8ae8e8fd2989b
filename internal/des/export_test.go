package des

// At reports when the event will fire, or 0 if the handle is stale or
// canceled.
func (h Event) At() Time {
	if h.Pending() {
		return h.ev.at
	}
	return 0
}

// Pending reports how many live (scheduled, not canceled) events are
// waiting in the queue.
func (e *Engine) Pending() int { return e.pending }
