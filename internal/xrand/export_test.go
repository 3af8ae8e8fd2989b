package xrand

// Split derives a new, statistically independent generator from r, advancing
// r's state.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}
