//go:build race

package topology_test

// The race detector makes sync.Pool drop items at random, so a pooled
// rebuild may allocate under it.
func init() { raceEnabled = true }
