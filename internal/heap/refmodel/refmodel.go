// Package refmodel is the reference meaning of one garbage collection and of
// the GC assertions checked during it, written as plain Go over a snapshot of
// the heap graph: no header bits, no worklists, no phases. Every test oracle
// of the collector and the assertion engine is built on it; no program code
// imports it.
//
// A Graph is a set of objects, each with the contents of its reference
// slots (Nil for an empty one), and the contents of the root slots. Roots are
// counted with multiplicity: a root slot is one encounter of its target. Read
// from a Space (FromSpace), a snapshot walks the registry's Fields and the
// reference arrays' lengths, never Space.ForEachRef, which is the code under
// test.
//
// The specification, numbered after the heap invariants of DESIGN.md
// ("Reference model"):
//
//  9. Reachability. An object is reachable iff a chain of references leads
//     to it from a root slot (Reachable). A collection keeps every reachable
//     object, and no reachable object it keeps refers to a freed cell.
//  10. assert-dead(x) (§2.3.1) is violated iff x is reachable (DeadViolated).
//  11. assert-unshared(x) (§2.5.1) is violated iff x is reachable and the
//     trace meets it more than once: the root slots holding x and the
//     reference slots of reachable objects holding x number more than one
//     (Encounters, UnsharedViolated).
//  12. assert-instances(t, n) (§2.4.1) is violated iff more than n objects
//     of type t survive the collection. The engine's count is the survivors
//     of the collection (Collect); without ownership they are the reachable
//     objects.
//  13. assert-ownedby(o, x) (§2.5.2) is violated iff x is reachable and no
//     path from o's reference slots reaches x, where paths stop at o and at
//     every other owner (OwnedByViolated).
//
// Ownership is also checked against the mechanism, step for step: Collect
// predicts the two-phase trace of §2.5.2 with its survivors, its
// assert-ownedby and improper-ownership sets and its count of ownee checks.
// Improper ownership depends on the order the owners are scanned in, so it
// has no order-free predicate; and the mechanism keeps what it predicts, holes
// included (ROADMAP item 1), so invariant 9 is checked against Reachable, not
// against Collect.
package refmodel

import "gcassert/internal/heap"

// Set is a set of objects.
type Set = map[heap.Addr]bool

// Graph is a snapshot of the heap graph. Refs has a key for every object,
// with the contents of its reference slots in slot order.
type Graph struct {
	Roots []heap.Addr
	Refs  map[heap.Addr][]heap.Addr
}

// FromSpace reads every allocated object of s and its reference slots:
// an object's fields marked Ref in its type's Fields, every element of a
// reference array, nothing of a word array.
func FromSpace(s *heap.Space, roots []heap.Addr) *Graph {
	g := &Graph{Roots: roots, Refs: map[heap.Addr][]heap.Addr{}}
	reg := s.Registry()
	s.ForEachObject(func(a heap.Addr) bool {
		refs := []heap.Addr{}
		switch info := reg.Info(s.TypeOf(a)); info.Kind {
		case heap.KindObject:
			for i, f := range info.Fields {
				if f.Ref {
					refs = append(refs, s.GetRef(a, i))
				}
			}
		case heap.KindRefArray:
			for i := 0; i < s.ArrayLen(a); i++ {
				refs = append(refs, s.RefAt(a, i))
			}
		}
		g.Refs[a] = refs
		return true
	})
	return g
}

// HasEdge reports whether a reference slot of from holds to.
func (g *Graph) HasEdge(from, to heap.Addr) bool {
	for _, t := range g.Refs[from] {
		if t == to {
			return true
		}
	}
	return false
}

// Reachable returns the objects reachable from the roots (invariant 9).
func (g *Graph) Reachable() Set {
	seen := Set{}
	work := append([]heap.Addr(nil), g.Roots...)
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		if a == heap.Nil || seen[a] {
			continue
		}
		seen[a] = true
		work = append(work, g.Refs[a]...)
	}
	return seen
}

// Encounters counts the root slots holding x plus the reference slots of
// reachable objects holding x: how often a trace meets x.
func (g *Graph) Encounters(x heap.Addr, reachable Set) int {
	n := 0
	for _, r := range g.Roots {
		if r == x {
			n++
		}
	}
	for a := range reachable {
		for _, t := range g.Refs[a] {
			if t == x {
				n++
			}
		}
	}
	return n
}

// DeadViolated is invariant 10's verdict on assert-dead(x).
func (g *Graph) DeadViolated(x heap.Addr) bool { return g.Reachable()[x] }

// UnsharedViolated is invariant 11's verdict on assert-unshared(x).
func (g *Graph) UnsharedViolated(x heap.Addr) bool {
	live := g.Reachable()
	return live[x] && g.Encounters(x, live) > 1
}

// OwnedByViolated is invariant 13's verdict on assert-ownedby(owner, x);
// owners holds every object with an ownership record.
func (g *Graph) OwnedByViolated(owner, x heap.Addr, owners Set) bool {
	if !g.Reachable()[x] {
		return false
	}
	seen := Set{}
	work := append([]heap.Addr(nil), g.Refs[owner]...)
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		switch {
		case a == x:
			return false
		case a == heap.Nil || a == owner || owners[a] || seen[a]:
		default:
			seen[a] = true
			work = append(work, g.Refs[a]...)
		}
	}
	return true
}

// Ownership is the engine's ownership registry.
type Ownership struct {
	// Order lists the owners that have a record, in record order: the order
	// the pre-phase scans them.
	Order []heap.Addr
	// OwnerOf maps each registered ownee to its asserted owner.
	OwnerOf map[heap.Addr]heap.Addr
}

// Outcome is what one collection does.
type Outcome struct {
	Survivors Set // the marked objects, which the sweep keeps
	OwnedBy   Set // assert-ownedby violations
	Improper  Set // improper-ownership reports
	Checked   uint64
}

// Collect predicts one collection under the given registry. First the
// pre-phase of §2.5.2: a scan from each owner in record order that never
// marks the owner from its own scan, stops at other owners and at anything
// an earlier scan marked, and scans through ownees, counting every edge to
// an ownee as a check and reporting an ownee of another owner as improper.
// Then the root scan over what is left, where an ownee no owner scan met is
// an assert-ownedby violation. With an empty registry the survivors are the
// reachable objects.
func (g *Graph) Collect(own Ownership) Outcome {
	out := Outcome{Survivors: Set{}, OwnedBy: Set{}, Improper: Set{}}
	isOwner := Set{}
	for _, o := range own.Order {
		isOwner[o] = true
	}
	owned := Set{} // ownees some owner scan met
	for _, o := range own.Order {
		work := []heap.Addr{o}
		for len(work) > 0 {
			a := work[0]
			work = work[1:]
			for _, t := range g.Refs[a] {
				switch asserted, ownee := own.OwnerOf[t]; {
				case t == heap.Nil || t == o:
				case ownee:
					out.Checked++
					if asserted != o {
						out.Improper[t] = true
					}
					owned[t] = true
					if !out.Survivors[t] {
						out.Survivors[t] = true
						work = append(work, t)
					}
				case isOwner[t]:
					out.Survivors[t] = true
				case !out.Survivors[t]:
					out.Survivors[t] = true
					work = append(work, t)
				}
			}
		}
	}
	var work []heap.Addr
	meet := func(t heap.Addr) {
		if t == heap.Nil {
			return
		}
		if _, ownee := own.OwnerOf[t]; ownee && !owned[t] {
			out.OwnedBy[t] = true
			owned[t] = true
		}
		if !out.Survivors[t] {
			out.Survivors[t] = true
			work = append(work, t)
		}
	}
	for _, r := range g.Roots {
		meet(r)
	}
	for len(work) > 0 {
		a := work[0]
		work = work[1:]
		for _, t := range g.Refs[a] {
			meet(t)
		}
	}
	return out
}
