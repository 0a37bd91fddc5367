//go:build race

package sim

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of the shells put back, so allocation budgets cannot hold exactly.
const raceEnabled = true
