package gcassert

import (
	"fmt"
	"io"
	"sort"

	"gcassert/internal/collector"
)

// WriteDOT renders the reachable object graph in Graphviz DOT format, for
// visual leak hunting alongside the textual path reports. Nodes are labeled
// with their type; roots are drawn as boxes; edges are labeled with field
// names. maxObjects bounds the output (0 = 4096); when the graph is larger,
// a trailing comment records how many objects were omitted. The walk still
// visits every reachable object, to count them.
func (r *Runtime) WriteDOT(w io.Writer, maxObjects int) error {
	if maxObjects <= 0 {
		maxObjects = 4096
	}
	space := r.Space()
	reg := r.Registry()

	if _, err := fmt.Fprintln(w, "digraph heap {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=ellipse, fontsize=10];")

	// BFS from the roots over every reachable object, so the note can count
	// what is omitted; the first maxObjects discovered are shown. order[i]
	// is the i-th discovered object, seen[a] its position.
	type edge struct {
		src, dst Ref
		label    string
	}
	seen := map[Ref]int{}
	var order []Ref
	var edges []edge
	discover := func(a Ref) {
		if _, ok := seen[a]; !ok {
			seen[a] = len(order)
			order = append(order, a)
		}
	}
	rootID := 0
	r.RootScanner().Roots(func(root collector.Root) {
		a := *root.Slot
		if a == Nil {
			return
		}
		name := fmt.Sprintf("root%d", rootID)
		rootID++
		fmt.Fprintf(w, "  %s [shape=box, label=%q];\n", name, root.Desc)
		fmt.Fprintf(w, "  %s -> o%d;\n", name, uint32(a))
		discover(a)
	})
	for i := 0; i < len(order); i++ {
		a := order[i]
		space.ForEachRef(a, func(slot int, t Ref) {
			if i < maxObjects {
				edges = append(edges, edge{src: a, dst: t, label: reg.Info(space.TypeOf(a)).FieldName(slot)})
			}
			discover(t)
		})
	}
	shown := order
	if len(shown) > maxObjects {
		shown = append([]Ref(nil), order[:maxObjects]...)
	}
	// Emit nodes in address order for deterministic output.
	sort.Slice(shown, func(i, j int) bool { return shown[i] < shown[j] })
	for _, a := range shown {
		fmt.Fprintf(w, "  o%d [label=%q];\n", uint32(a), space.TypeName(a))
	}
	for _, e := range edges {
		if seen[e.dst] >= maxObjects {
			continue
		}
		fmt.Fprintf(w, "  o%d -> o%d [label=%q];\n", uint32(e.src), uint32(e.dst), e.label)
	}
	if omitted := len(order) - len(shown); omitted > 0 {
		fmt.Fprintf(w, "  // truncated: %d additional objects not shown\n", omitted)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WriteDominatorDOT renders the dominator tree of the current heap in DOT
// format: each edge points from an object to the objects it immediately
// dominates, and labels carry retained sizes, so the picture shows *what is
// holding the bytes* rather than every pointer. Output is bounded to the
// maxObjects largest subtrees by retained size (0 = 256); dominated nodes
// whose retainer was cut are omitted and counted in a trailing comment.
func (r *Runtime) WriteDominatorDOT(w io.Writer, maxObjects int) error {
	if maxObjects <= 0 {
		maxObjects = 256
	}
	dom := r.Dominators()
	g := dom.Graph()
	space := r.Space()

	// Keep the maxObjects nodes with the largest retained sizes; the
	// super-root is always kept so the forest stays connected at the top.
	type cand struct {
		node     int32
		retained uint64
	}
	cands := make([]cand, 0, g.NumNodes())
	for v := int32(1); v < int32(g.NumNodes()); v++ {
		if dom.Idom[v] >= 0 {
			cands = append(cands, cand{v, dom.Retained[v]})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].retained > cands[j].retained })
	keep := map[int32]bool{0: true}
	for i, c := range cands {
		if i >= maxObjects {
			break
		}
		keep[c.node] = true
	}

	if _, err := fmt.Fprintln(w, "digraph dominators {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=ellipse, fontsize=10];")
	fmt.Fprintf(w, "  n0 [shape=box, label=\"roots\\nretained %d words\"];\n", dom.Retained[0])
	// Emit in node order for deterministic output.
	for v := int32(1); v < int32(g.NumNodes()); v++ {
		if !keep[v] {
			continue
		}
		label := fmt.Sprintf("%s\\nretained %d words", space.TypeName(g.Addrs[v]), dom.Retained[v])
		if desc, ok := g.RootDesc[v]; ok {
			label += "\\n(" + desc + ")"
		}
		fmt.Fprintf(w, "  n%d [label=%q];\n", v, label)
	}
	omitted := 0
	for v := int32(1); v < int32(g.NumNodes()); v++ {
		if dom.Idom[v] < 0 {
			continue
		}
		if !keep[v] {
			omitted++
			continue
		}
		// Walk up to the nearest kept dominator so cut chains stay attached.
		p := dom.Idom[v]
		for p > 0 && !keep[p] {
			p = dom.Idom[p]
		}
		fmt.Fprintf(w, "  n%d -> n%d;\n", p, v)
	}
	if omitted > 0 {
		fmt.Fprintf(w, "  // omitted: %d objects with smaller retained sizes\n", omitted)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
