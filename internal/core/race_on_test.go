//go:build race

package core_test

// raceDetector reports whether the test binary was built with -race, under
// which the allocator's counts are not the plain build's.
const raceDetector = true
