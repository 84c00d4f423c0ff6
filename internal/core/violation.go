// Package core implements the GC assertion engine, the paper's primary
// contribution: programmer-written heap assertions (assert-dead,
// start-region/assert-alldead, assert-instances, assert-unshared,
// assert-ownedby) that are registered cheaply at run time and checked by the
// garbage collector during its normal tracing pass, with violations reported
// together with the complete path through the heap from a root to the
// offending object (Figure 1 of the paper).
package core

import (
	"fmt"
	"strings"

	"gcassert/internal/heap"
)

// Kind identifies an assertion kind.
type Kind uint8

// Assertion kinds.
const (
	// KindDead is assert-dead(p): p must be unreachable at the next GC.
	KindDead Kind = iota
	// KindInstances is assert-instances(T, I): at most I instances of T may
	// be live at GC time.
	KindInstances
	// KindUnshared is assert-unshared(p): p has at most one incoming pointer.
	KindUnshared
	// KindOwnedBy is assert-ownedby(p, q): q must not outlive reachability
	// from its owner p.
	KindOwnedBy
	// KindImproperOwnership flags improper use of assert-ownedby: an ownee
	// reachable from an owner other than its own (overlapping owner regions).
	KindImproperOwnership

	numKinds = 5
)

// NumKinds is the number of assertion kinds.
const NumKinds = numKinds

func (k Kind) String() string {
	switch k {
	case KindDead:
		return "assert-dead"
	case KindInstances:
		return "assert-instances"
	case KindUnshared:
		return "assert-unshared"
	case KindOwnedBy:
		return "assert-ownedby"
	case KindImproperOwnership:
		return "improper-ownership"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// headline returns the Figure 1-style warning line for the kind.
func (k Kind) headline() string {
	switch k {
	case KindDead:
		return "an object that was asserted dead is reachable"
	case KindInstances:
		return "instance limit exceeded"
	case KindUnshared:
		return "an object that was asserted unshared has multiple incoming pointers"
	case KindOwnedBy:
		return "an object is reachable but not through its asserted owner"
	case KindImproperOwnership:
		return "improper use of assert-ownedby: overlapping owner regions"
	default:
		return "assertion violated"
	}
}

// PathStep is one object on a root-to-object path. Field names the reference
// slot in this object that leads to the next step ("" for the last step).
type PathStep struct {
	// Addr is the object's address.
	Addr heap.Addr
	// TypeName is the object's type.
	TypeName string
	// Field is the field (or "[i]" element) leading to the next step.
	Field string
}

// Violation describes one triggered assertion.
type Violation struct {
	// Kind is the violated assertion's kind.
	Kind Kind
	// GC is the sequence number of the collection that detected it.
	GC uint64
	// Object is the offending object (Nil for assert-instances).
	Object heap.Addr
	// TypeName is the offending object's (or tracked type's) name.
	TypeName string
	// Site is the offending object's recorded allocation site ("" when
	// provenance is disabled or the allocation was not sampled). A path says
	// where the object is reachable from; the site says who created it —
	// together they are the two halves of a heap diagnosis.
	Site string
	// Root describes the root at which the reported path starts.
	Root string
	// Path is the full path through the heap from the root to the object,
	// including the object itself as the final step. For assert-unshared the
	// path is the second path discovered, as in the paper (§2.7). Empty for
	// assert-instances, where the problem paths may already have been traced.
	Path []PathStep
	// Message carries kind-specific detail.
	Message string
}

// String formats the violation in the style of the paper's Figure 1.
func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Warning: %s.\n", v.Kind.headline())
	fmt.Fprintf(&b, "Type: %s\n", v.TypeName)
	if v.Site != "" {
		fmt.Fprintf(&b, "Allocated at: %s\n", v.Site)
	}
	if v.Message != "" {
		fmt.Fprintf(&b, "Detail: %s\n", v.Message)
	}
	if len(v.Path) > 0 {
		b.WriteString("Path to object:\n")
		if v.Root != "" {
			fmt.Fprintf(&b, "  root %s\n", v.Root)
		}
		for i, s := range v.Path {
			if i == 0 {
				fmt.Fprintf(&b, "  %s", s.TypeName)
			} else {
				fmt.Fprintf(&b, "\n  -> %s", s.TypeName)
			}
			if s.Field != "" {
				fmt.Fprintf(&b, " .%s", s.Field)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// BuildPath converts a chain of ancestor addresses plus the offending object
// into annotated PathSteps, resolving for each hop the field that holds the
// next address. Violations are rare, so this does a per-hop reference scan.
// Exported because path reconstruction is shared machinery: heap probes and
// the leak-suspect reports render their sampled paths in exactly the
// violation-report form.
func BuildPath(space *heap.Space, ancestors []heap.Addr, obj heap.Addr) []PathStep {
	chain := make([]heap.Addr, 0, len(ancestors)+1)
	chain = append(chain, ancestors...)
	chain = append(chain, obj)
	steps := make([]PathStep, len(chain))
	for i, a := range chain {
		steps[i] = PathStep{Addr: a, TypeName: space.TypeName(a)}
		if i+1 < len(chain) {
			steps[i].Field = FieldLeadingTo(space, a, chain[i+1])
		}
	}
	return steps
}

// FieldLeadingTo returns the name of the first reference slot in a that
// holds target, or "" if none does (possible if the mutator raced; we never
// mutate during STW collection, so in practice it is always found).
func FieldLeadingTo(space *heap.Space, a, target heap.Addr) string {
	name := ""
	space.ForEachRef(a, func(slot int, t heap.Addr) {
		if name == "" && t == target {
			ti := space.Registry().Info(space.TypeOf(a))
			name = ti.FieldName(slot)
		}
	})
	return name
}
