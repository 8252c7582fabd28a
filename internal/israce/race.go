//go:build race

// Package israce reports whether the race detector is compiled in, so
// allocation-count tests can skip themselves: the detector's
// instrumentation allocates on its own.
package israce

// Enabled is true when the binary was built with -race.
const Enabled = true
