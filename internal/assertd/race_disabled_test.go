//go:build !race

package assertd

const raceEnabled = false
