//go:build !race

package israce

// Enabled is true when the binary was built with -race.
const Enabled = false
