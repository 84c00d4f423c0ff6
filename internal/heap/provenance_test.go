package heap

import "testing"

// provSpace builds a small space with provenance at the given sampling rate
// and one two-field object type.
func provSpace(t *testing.T, sample int) (*Space, TypeID) {
	t.Helper()
	reg := NewRegistry()
	typ := reg.Define("Node", Field{Name: "next", Ref: true}, Field{Name: "v"})
	s := NewSpace(reg, 1<<20)
	s.EnableProvenance(sample)
	return s, typ
}

func TestProvenanceRegisterDedupes(t *testing.T) {
	s, _ := provSpace(t, 1)
	p := s.Provenance()
	a := p.Register("main.go:10 new Node")
	b := p.Register("main.go:20 new Node")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("distinct descs must get distinct non-zero IDs: %d, %d", a, b)
	}
	if again := p.Register("main.go:10 new Node"); again != a {
		t.Fatalf("re-registering a desc returned %d, want %d", again, a)
	}
	if p.Register("") != 0 {
		t.Fatal("empty desc must map to the unknown site")
	}
	if got := p.Name(a); got != "main.go:10 new Node" {
		t.Fatalf("Name(%d) = %q", a, got)
	}
	if p.NumSites() != 2 {
		t.Fatalf("NumSites = %d, want 2", p.NumSites())
	}
}

func TestProvenanceExhaustiveRecordAndSweep(t *testing.T) {
	s, typ := provSpace(t, 1)
	p := s.Provenance()
	site := p.Register("alloc here")

	a1, _ := s.Allocate(typ, 0)
	s.RecordSite(a1, site)
	a2, _ := s.Allocate(typ, 0)
	s.RecordSite(a2, site)
	if s.SiteOf(a1) != site || s.SiteDesc(a2) != "alloc here" {
		t.Fatalf("site lookup failed: %d / %q", s.SiteOf(a1), s.SiteDesc(a2))
	}

	// Sweep with only a1 marked: a2's entry must be forgotten so a recycled
	// cell cannot inherit it.
	s.SetMark(a1)
	s.Sweep()
	if s.SiteOf(a1) != site {
		t.Fatal("survivor lost its site across sweep")
	}
	if s.SiteOf(a2) != 0 {
		t.Fatal("freed object's site entry must be forgotten")
	}
	st := p.Stats()
	if st.Recorded != 2 || st.TableEntries != 1 {
		t.Fatalf("stats = %+v, want Recorded=2 TableEntries=1", st)
	}

	// The freed cell is recycled; the new tenant starts with no site.
	a3, _ := s.Allocate(typ, 0)
	if s.SiteOf(a3) != 0 {
		t.Fatalf("recycled cell inherited site %d", s.SiteOf(a3))
	}
}

func TestProvenanceSampling(t *testing.T) {
	s, typ := provSpace(t, 4)
	site := s.Provenance().Register("sampled site")
	recorded := 0
	for i := 0; i < 40; i++ {
		a, ok := s.Allocate(typ, 0)
		if !ok {
			t.Fatal("allocation failed")
		}
		s.RecordSite(a, site)
		if s.SiteOf(a) == site {
			recorded++
		}
	}
	if recorded != 10 {
		t.Fatalf("1-in-4 sampling recorded %d of 40", recorded)
	}
	st := s.Provenance().Stats()
	if st.Recorded != 10 || st.Skipped != 30 {
		t.Fatalf("stats = %+v, want Recorded=10 Skipped=30", st)
	}
}

func TestProvenanceDisabledIsInert(t *testing.T) {
	reg := NewRegistry()
	typ := reg.Define("T")
	s := NewSpace(reg, 1<<20)
	a, _ := s.Allocate(typ, 0)
	s.RecordSite(a, 7) // must not panic
	if s.SiteOf(a) != 0 || s.SiteDesc(a) != "" {
		t.Fatal("disabled provenance must report the unknown site")
	}
	s.SetMark(a)
	s.Sweep() // reclamation path with prov == nil
}
