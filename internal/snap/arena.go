package snap

import "unsafe"

// Arena hands out consecutive windows of one backing array: the storage a
// decoder makes once, for a total it read off the wire (Reader.Count), and
// then carves per element — one allocation where a decode loop would make
// thousands. Every window is capacity-capped at its own length, so an
// append to it reallocates off the arena and never runs into its
// neighbour. The total is a sizing hint, not a promise: when the arena
// runs out, Take refills it with one chunk of chunkBytes and carves on
// from there, so a stream that understates its totals costs an allocation
// per chunk, never correctness. A request larger than a quarter of a chunk
// is made on its own, which bounds a refill's abandoned tail to a quarter
// of the chunk and keeps one request from pinning a chunk of its own. The
// zero Arena is an empty one: its first Take makes its first chunk, so an
// arena nobody draws from costs nothing.
type Arena[T any] struct{ free []T }

// chunkBytes is the size of the chunk an exhausted Arena refills with.
const chunkBytes = 8 << 10

// NewArena returns an arena of n zeroed elements.
func NewArena[T any](n int) Arena[T] { return Arena[T]{free: make([]T, n)} }

// Take returns n zeroed elements, never a nil slice.
func (a *Arena[T]) Take(n int) []T {
	if n > len(a.free) {
		c := chunkLen[T]()
		if 4*n > c {
			return make([]T, n)
		}
		a.free = make([]T, c)
	}
	if n == 0 {
		return []T{}
	}
	w := a.free[:n:n]
	a.free = a.free[n:]
	return w
}

// One returns a pointer to one zeroed element.
func (a *Arena[T]) One() *T { return &a.Take(1)[0] }

// chunkLen is the elements of T in one refill chunk: chunkBytes' worth.
func chunkLen[T any]() int {
	var zero T
	return chunkBytes / max(int(unsafe.Sizeof(zero)), 1)
}
