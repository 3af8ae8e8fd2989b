package snap

// Arena hands out consecutive windows of one backing array: the storage a
// decoder makes once, for a total it read off the wire (Reader.Count), and
// then carves per element — one allocation where a decode loop would make
// thousands. Every window is capacity-capped at its own length, so an
// append to it reallocates off the arena and never runs into its
// neighbour. The total is a sizing hint, not a promise: when the arena
// runs out, Take allocates the window on its own, so a stream that
// understates its totals costs allocations, never correctness. The zero
// Arena is an empty one.
type Arena[T any] struct{ free []T }

// NewArena returns an arena of n zeroed elements.
func NewArena[T any](n int) Arena[T] { return Arena[T]{free: make([]T, n)} }

// Take returns n zeroed elements, never a nil slice.
func (a *Arena[T]) Take(n int) []T {
	if n > len(a.free) || a.free == nil {
		return make([]T, n)
	}
	w := a.free[:n:n]
	a.free = a.free[n:]
	return w
}

// One returns a pointer to one zeroed element.
func (a *Arena[T]) One() *T { return &a.Take(1)[0] }
