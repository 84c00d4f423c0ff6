package heap

import "math/bits"

// Software prefetching for a FIFO of objects traced in a known order: the
// assertion engine's ownee queue (DESIGN.md, "Ownership pre-phase"). Each
// queued object heads an independent subtree, so the misses of the subtrees
// a few positions ahead can be in flight while the current one is traced,
// instead of being taken one dependent load at a time.
const (
	// prefetchDist is the distance, in queue positions, between two
	// successive stages of PrefetchQueue.
	prefetchDist = 4
	// prefetchCap bounds the prefetches one stage issues.
	prefetchCap = 8
	// lineWords is the number of heap words in a cache line.
	lineWords = 8
)

// PrefetchQueue issues the software prefetches for position i of q, a queue
// whose objects will be traced in order; call it once per position, just
// before q[i] is traced. It runs three stages, d = prefetchDist positions
// apart:
//
//   - prefetch the header line of q[i+3d];
//   - read the ref slots of q[i+2d] that share its header's line, which the
//     first stage brought in d positions ago, and prefetch their targets;
//   - do the same two levels down for q[i+d]: read its slots, then the
//     slots in each target's header line, and prefetch the grandchildren.
//
// Each stage prefetches at most prefetchCap objects and reads only header
// lines an earlier stage prefetched, so a late line costs one stall and never
// a chain of them. It changes nothing in the heap, reads nothing outside q
// and the lines named above, and ignores positions past the end of q.
func (s *Space) PrefetchQueue(q []Addr, i int) {
	if j := i + 3*prefetchDist; uint(j) < uint(len(q)) {
		s.prefetchObject(q[j])
	}
	var buf [prefetchCap]Addr
	if j := i + 2*prefetchDist; uint(j) < uint(len(q)) {
		for _, t := range s.lineRefs(q[j], buf[:0]) {
			s.prefetchObject(t)
		}
	}
	if j := i + prefetchDist; uint(j) < uint(len(q)) {
		var kids [prefetchCap]Addr
		grand := buf[:0]
		for _, k := range s.lineRefs(q[j], kids[:0]) {
			grand = s.lineRefs(k, grand)
		}
		for _, g := range grand {
			s.prefetchObject(g)
		}
	}
}

// prefetchObject issues a prefetch of the header of the object at a; an
// address outside the heap is ignored.
func (s *Space) prefetchObject(a Addr) {
	if w := a.word(); int(w) < len(s.words) {
		prefetch(&s.words[w])
	}
}

// lineRefs appends to dst, until dst is full, the non-nil targets of the
// object at a's ref slots that lie in its header's cache line, in slot
// order. It reads only that line, and only the object's own slots in it. A
// header it cannot interpret (an address outside the heap, an unknown type)
// yields nothing: prefetching is a hint and must never fail.
func (s *Space) lineRefs(a Addr, dst []Addr) []Addr {
	w := a.word()
	if int(w) >= len(s.words) {
		return dst
	}
	span := (w | (lineWords - 1)) - w // slots in the header's line
	h := s.words[w]
	t := headerType(h)
	var refs uint64
	switch {
	case t == TRefArray:
		n := uint32(min(uint64(span), h>>lengthShift))
		refs = 1<<n - 1
	case int(t) < len(s.reg.layouts):
		refs = s.reg.layouts[t].refs & (1<<span - 1)
	}
	for ; refs != 0 && len(dst) < cap(dst); refs &= refs - 1 {
		if r := Addr(s.words[w+1+uint32(bits.TrailingZeros64(refs))]); r != Nil {
			dst = append(dst, r)
		}
	}
	return dst
}

// PrefetchRefs issues a prefetch of the header of each target of the object
// at a's ref slots that lie in its header's cache line, at most prefetchCap
// of them. The collector's marker calls it on every object it pushes, whose
// header it has just loaded, so the line it reads is already in cache.
func (s *Space) PrefetchRefs(a Addr) {
	var buf [prefetchCap]Addr
	for _, t := range s.lineRefs(a, buf[:0]) {
		s.prefetchObject(t)
	}
}
