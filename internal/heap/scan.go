package heap

import "math/bits"

// MarkChildren is the collector's scan kernel: ForEachRef and the marker's
// edge rule in one loop, with no call per reference. It reads the ref slots
// of the object at a from slot from on, in ascending slot order, from the
// layout table: a bitmap word for objects, the length for reference arrays,
// and for a wide type's slots past the bitmap its Fields. A non-nil target
// whose header carries a flag in stop ends the scan: MarkChildren leaves it
// as it is and returns dst with its slot and address, and the caller resumes
// at the next slot. Any other target that is unmarked it marks and appends
// to dst, and when prefetch is set it prefetches the headers of the target's
// children (PrefetchRefs). After the last slot it returns dst, -1 and Nil.
func (s *Space) MarkChildren(a Addr, from int, stop Flag, prefetch bool, dst []Addr) ([]Addr, int, Addr) {
	w := a.word()
	h := s.words[w]
	t := headerType(h)
	var refs uint64
	if t == TRefArray {
		n := headerLen(h)
		if n > layoutSlots {
			return s.markLong(w, n, ^uint64(0), t, from, stop, prefetch, dst)
		}
		refs = 1<<n - 1
	} else {
		l := s.reg.layoutOf(t)
		if l.wide() {
			return s.markLong(w, int(l.words)-1, l.refs, t, from, stop, prefetch, dst)
		}
		refs = l.refs
	}
	return s.markSlots(w+1, 0, refs&(^uint64(0)<<from), stop, prefetch, dst)
}

// markLong is MarkChildren over more than 64 slots: n slots at word w+1,
// whose first 64 refs maps, 64 at a time.
func (s *Space) markLong(w uint32, n int, refs uint64, t TypeID, from int, stop Flag, prefetch bool, dst []Addr) ([]Addr, int, Addr) {
	for lo := from &^ (layoutSlots - 1); lo < n; lo += layoutSlots {
		m := refs
		if lo > 0 && t != TRefArray {
			m = 0
			for i, f := range s.reg.types[t].Fields[lo:min(lo+layoutSlots, n)] {
				if f.Ref {
					m |= 1 << i
				}
			}
		}
		if lo < from {
			m &= ^uint64(0) << (from - lo)
		}
		if n-lo < layoutSlots {
			m &= 1<<(n-lo) - 1
		}
		var slot int
		var r Addr
		if dst, slot, r = s.markSlots(w+1+uint32(lo), lo, m, stop, prefetch, dst); slot >= 0 {
			return dst, slot, r
		}
	}
	return dst, -1, Nil
}

// markSlots runs the edge rule over the slots at word w on whose bits are
// set in m; slot numbers are counted from lo.
func (s *Space) markSlots(w uint32, lo int, m uint64, stop Flag, prefetch bool, dst []Addr) ([]Addr, int, Addr) {
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		r := Addr(s.words[w+uint32(i)])
		if r == Nil {
			continue
		}
		rh := &s.words[r.word()]
		if Flag(*rh)&stop != 0 {
			return dst, lo + i, r
		}
		if *rh&uint64(FlagMark) == 0 {
			*rh |= uint64(FlagMark)
			dst = append(dst, r)
			if prefetch {
				s.PrefetchRefs(r)
			}
		}
	}
	return dst, -1, Nil
}

// MarkDepthFirst is MarkChildren in a depth-first loop that keeps the
// worklist in registers: while stack[base:] holds at least one and fewer
// than limit entries, and fewer than max scans have run, it pops the newest
// entry and marks and pushes its unmarked children, with no stop flags,
// prefetching as MarkChildren does when prefetch is set. It returns the
// worklist, the number of objects it marked and the number of scans it ran.
// It repeats markSlots' edge rule rather than calling it because the
// registers are the point: with the worklist behind a pointer, the
// sequential Base mark of a 200k-node list and of allocation-ordered trees
// ran measurably slower (EXPERIMENTS.md "Mark lanes").
func (s *Space) MarkDepthFirst(stack []Addr, base, limit, max int, prefetch bool) ([]Addr, int, int) {
	words, layouts := s.words, s.reg.layouts
	marked, scans := 0, 0
	for ; scans < max && len(stack) > base && len(stack)-base < limit; scans++ {
		n := len(stack) - 1
		a := stack[n]
		stack = stack[:n]
		w := a.word()
		h := words[w]
		var refs uint64
		switch t := headerType(h); {
		case t == TRefArray && headerLen(h) <= layoutSlots:
			refs = 1<<headerLen(h) - 1
		case t != TRefArray && int(t) < len(layouts) && !layouts[t].wide():
			refs = layouts[t].refs
		default:
			stack, _, _ = s.MarkChildren(a, 0, 0, prefetch, stack)
			marked += len(stack) - n
			continue
		}
		for ; refs != 0; refs &= refs - 1 {
			r := Addr(words[w+1+uint32(bits.TrailingZeros64(refs))])
			if r == Nil {
				continue
			}
			if rh := &words[r.word()]; *rh&uint64(FlagMark) == 0 {
				*rh |= uint64(FlagMark)
				stack = append(stack, r)
				marked++
				if prefetch {
					s.PrefetchRefs(r)
				}
			}
		}
	}
	return stack, marked, scans
}
