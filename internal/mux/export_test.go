package mux

// String names the discipline in test output; no non-test code prints one.
func (d Discipline) String() string {
	switch d {
	case LIFO:
		return "lifo"
	case FIFO:
		return "fifo"
	default:
		return "unknown"
	}
}
