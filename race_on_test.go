//go:build race

package evprop

// raceEnabled reports whether the race detector instruments this build. Under
// it sync.Pool drops a share of what is put back, so allocation budgets that
// rely on pooled states do not hold.
const raceEnabled = true
