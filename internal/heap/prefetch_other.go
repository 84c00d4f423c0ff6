//go:build !amd64

package heap

// prefetch is a no-op where the heap has no prefetch instruction wired in:
// PrefetchQueue then only reads lines, so it costs a little and gains
// nothing, and every result stays the same.
func prefetch(*uint64) {}
