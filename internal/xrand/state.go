package xrand

// Checkpoint support: a generator's stream position is its state word,
// so capturing and re-installing it resumes the stream exactly. These
// are value accessors, not codec methods — xrand sits below the snapshot
// layer and keeping it dependency-free keeps it reusable.

// State returns the generator's current stream position.
func (r *Rand) State() uint64 { return r.state }

// SetState positions the generator so its next output is what a
// generator whose State reported s would produce next.
func (r *Rand) SetState(s uint64) { r.state = s }
