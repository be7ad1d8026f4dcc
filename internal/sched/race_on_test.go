//go:build race

package sched

// raceEnabled reports whether this test binary was built with the race
// detector. Under race, sync.Pool.Put randomly drops objects on the
// floor (to shake out pool races), so pool-backed steady-state paths
// cannot pin zero allocations there.
const raceEnabled = true
