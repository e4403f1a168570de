//go:build race

package experiments

// raceEnabled reports whether the race detector instruments this build; it
// slows host-timed CPU baselines several-fold.
const raceEnabled = true
