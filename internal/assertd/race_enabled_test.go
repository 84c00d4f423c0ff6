//go:build race

package assertd

// raceEnabled reports a -race build. Allocation pins do not hold there: the
// race detector allocates for its own bookkeeping, and sync.Pool drops a
// share of what is put back on purpose.
const raceEnabled = true
