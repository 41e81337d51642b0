package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func viewFixture(t *testing.T) (*Store, *Store, *View) {
	t.Helper()
	base := New()
	base.MustAdd(Triple{"a", "p", "b"})
	base.MustAdd(Triple{"a", "type", "car"})
	overlay := base.NewOverlay()
	if !base.SharesDictionary(overlay) {
		t.Fatal("overlay does not share the dictionary")
	}
	if _, err := overlay.Add(Triple{"a", "type", "vehicle"}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	return base, overlay, v
}

func TestViewUnionAndProvenance(t *testing.T) {
	base, overlay, v := viewFixture(t)
	if v.Len() != 3 {
		t.Errorf("view Len = %d, want 3", v.Len())
	}
	want := []Triple{{"a", "p", "b"}, {"a", "type", "car"}, {"a", "type", "vehicle"}}
	if got := v.Triples(); !reflect.DeepEqual(got, want) {
		t.Errorf("Triples = %v, want %v", got, want)
	}
	if ip, _ := base.encodePattern(Pattern{Predicate: "type"}); v.CountID(ip) != 2 {
		t.Errorf("CountID(? type ?) = %d, want 2", v.CountID(ip))
	}
	ip, _ := base.encodePattern(Pattern{Subject: "a"})
	if n := v.CountID(ip); n != 3 {
		t.Errorf("CountID(a ? ?) = %d, want 3", n)
	}
	if prov, ok := v.Provenance(Triple{"a", "type", "car"}); !ok || prov != ProvAsserted {
		t.Errorf("asserted triple: %v, %v", prov, ok)
	}
	if prov, ok := v.Provenance(Triple{"a", "type", "vehicle"}); !ok || prov != ProvInferred {
		t.Errorf("inferred triple: %v, %v", prov, ok)
	}
	if _, ok := v.Provenance(Triple{"z", "z", "z"}); ok {
		t.Error("absent triple reported present")
	}
	// A triple in both members breaks the view's disjointness contract, but
	// its provenance still reads as asserted.
	if _, err := overlay.Add(Triple{"a", "p", "b"}); err != nil {
		t.Fatal(err)
	}
	if prov, _ := v.Provenance(Triple{"a", "p", "b"}); prov != ProvAsserted {
		t.Error("shadowed triple should read as asserted")
	}
}

func TestViewForEachSubject(t *testing.T) {
	base, overlay, v := viewFixture(t)
	overlayOnly := Triple{"b", "type", "car"}
	if _, err := overlay.Add(overlayOnly); err != nil {
		t.Fatal(err)
	}
	var got []string
	v.ForEachSubject("type", "car", func(s string) bool {
		got = append(got, s)
		return true
	})
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("ForEachSubject = %v, want [a b]", got)
	}
	if got := viewSubjects(v, "type", "absent"); got != nil {
		t.Errorf("ForEachSubject of an unknown class = %v, want nothing", got)
	}
	_ = base
}

// viewSubjects collects ForEachSubject's subjects, sorted.
func viewSubjects(v *View, predicate, object string) []string {
	var out []string
	v.ForEachSubject(predicate, object, func(s string) bool {
		out = append(out, s)
		return true
	})
	sort.Strings(out)
	return out
}

func TestViewSnapshots(t *testing.T) {
	_, _, v := viewFixture(t)
	var plain bytes.Buffer
	if n, err := v.Snapshot(&plain); err != nil || n != 3 {
		t.Fatalf("Snapshot = %d, %v", n, err)
	}
	// The plain form restores into an ordinary store.
	s2 := New()
	if n, err := Restore(s2, strings.NewReader(plain.String())); err != nil || n != 3 {
		t.Fatalf("Restore = %d, %v", n, err)
	}
	var tagged bytes.Buffer
	if n, err := v.SnapshotProvenance(&tagged); err != nil || n != 3 {
		t.Fatalf("SnapshotProvenance = %d, %v", n, err)
	}
	if !strings.Contains(tagged.String(), `"Provenance":"inferred"`) ||
		!strings.Contains(tagged.String(), `"Provenance":"asserted"`) {
		t.Errorf("tagged snapshot missing provenance tags:\n%s", tagged.String())
	}
}

func TestDisjointViewFastPaths(t *testing.T) {
	base := New()
	base.MustAdd(Triple{"a", "p", "b"})
	base.MustAdd(Triple{"a", "type", "car"})
	overlay := base.NewOverlay()
	if _, err := overlay.Add(Triple{"a", "type", "vehicle"}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d, want 3", v.Len())
	}
	ip, _ := base.encodePattern(Pattern{Predicate: "type"})
	if n := v.CountID(ip); n != 2 {
		t.Errorf("CountID(? type ?) = %d, want 2", n)
	}
	want := []Triple{{"a", "p", "b"}, {"a", "type", "car"}, {"a", "type", "vehicle"}}
	if got := v.Triples(); !reflect.DeepEqual(got, want) {
		t.Errorf("Triples = %v, want %v", got, want)
	}
	if subj := viewSubjects(v, "type", "vehicle"); !reflect.DeepEqual(subj, []string{"a"}) {
		t.Errorf("Subjects = %v, want [a]", subj)
	}
}

func TestViewRequiresSharedDictionary(t *testing.T) {
	if _, err := NewView(New(), New()); err == nil {
		t.Error("NewView accepted stores with separate dictionaries")
	}
	if _, err := NewView(nil, New()); err == nil {
		t.Error("NewView accepted a nil base")
	}
}

func TestInternAndIDWrites(t *testing.T) {
	s := New()
	id, err := s.Intern("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.SymbolID("fresh"); !ok || got != id {
		t.Errorf("SymbolID(fresh) = %d, %v; want %d, true", got, ok, id)
	}
	if _, err := s.Intern(""); err == nil {
		t.Error("Intern accepted the empty string")
	}
	// Interning alone adds no triple.
	if s.Len() != 0 {
		t.Errorf("Len after Intern = %d, want 0", s.Len())
	}
	a, _ := s.Intern("a")
	p, _ := s.Intern("p")
	b, _ := s.Intern("b")
	idt := IDTriple{S: a, P: p, O: b}
	if added, err := s.AddID(idt); err != nil || !added {
		t.Fatalf("AddID = %v, %v", added, err)
	}
	if added, err := s.AddID(idt); err != nil || added {
		t.Fatalf("second AddID = %v, %v; want false, nil", added, err)
	}
	if !s.Contains(Triple{"a", "p", "b"}) || !s.ContainsID(idt) {
		t.Error("AddID triple not visible")
	}
	if _, err := s.AddID(IDTriple{S: 9999, P: p, O: b}); err == nil {
		t.Error("AddID accepted an unminted id")
	}
	if !s.RemoveID(idt) {
		t.Error("RemoveID missed the triple")
	}
	if s.RemoveID(idt) {
		t.Error("second RemoveID reported success")
	}
	if s.RemoveID(IDTriple{S: 9999, P: 9999, O: 9999}) {
		t.Error("RemoveID of unminted ids reported success")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

// TestBatchedIDWrites covers the materialization engine's head sink:
// View.FilterAbsentID drops exactly the triples either member holds, and AddIDBatch
// returns exactly the fresh subset (in-batch and stored duplicates
// excluded), refusing unminted ids all-or-nothing.
func TestBatchedIDWrites(t *testing.T) {
	base := New()
	var ids []IDTriple
	for i := 0; i < 300; i++ {
		tr := Triple{Subject: fmt.Sprintf("s%d", i%37), Predicate: fmt.Sprintf("p%d", i%5), Object: fmt.Sprintf("o%d", i)}
		if i%3 == 0 {
			base.MustAdd(tr)
		}
		var id [3]SymbolID
		for k, name := range []string{tr.Subject, tr.Predicate, tr.Object} {
			id[k], _ = base.Intern(name)
		}
		ids = append(ids, IDTriple{S: id[0], P: id[1], O: id[2]})
	}
	var want []IDTriple
	for i, tr := range ids {
		if i%3 != 0 {
			want = append(want, tr)
		}
	}
	overlay := base.NewOverlay()
	view, err := NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	absent := view.FilterAbsentID(append([]IDTriple(nil), ids...))
	if got := SortIDTriples(append([]IDTriple(nil), absent...)); fmt.Sprint(got) != fmt.Sprint(SortIDTriples(want)) {
		t.Fatalf("FilterAbsentID kept %v, want exactly the 200 unasserted %v", got, want)
	}
	batch := append(append([]IDTriple(nil), absent[:150]...), absent[:10]...)
	fresh, err := overlay.AddIDBatch(batch)
	if err != nil || len(fresh) != 150 || overlay.Len() != 150 {
		t.Fatalf("AddIDBatch = %d fresh, %v (overlay %d); want 150, nil, 150", len(fresh), err, overlay.Len())
	}
	fresh, err = overlay.AddIDBatch(absent[100:])
	if err != nil || len(fresh) != 50 {
		t.Fatalf("overlapping AddIDBatch = %d fresh, %v; want the 50 new ones", len(fresh), err)
	}
	for _, tr := range fresh {
		if !overlay.ContainsID(tr) {
			t.Fatalf("fresh triple %v missing from the overlay", tr)
		}
	}
	// The filter drops what either member holds: the overlay now has the
	// 200 unasserted triples, so of ids plus one never-stored triple only
	// that one survives.
	extra := IDTriple{S: ids[1].S, P: ids[2].P, O: ids[0].O}
	if got := view.FilterAbsentID(append(append([]IDTriple(nil), ids...), extra)); len(got) != 1 || got[0] != extra {
		t.Fatalf("View.FilterAbsentID kept %v, want only %v", got, extra)
	}
	bad := []IDTriple{absent[0], {S: SymbolID(base.DictLen()), P: 0, O: 0}}
	if fresh, err := overlay.AddIDBatch(bad); err == nil || fresh != nil || overlay.Len() != 200 {
		t.Fatalf("AddIDBatch with an unminted id = %v, %v (overlay %d); want nothing inserted and an error", fresh, err, overlay.Len())
	}
}

func TestOntologyIndexRejectsSubsumptionCycles(t *testing.T) {
	tb := vehiclesTBox(t)
	// A subsumption test that relates every pair both ways: one big cycle.
	_, err := NewOntologyIndexWith(tb, func(sub, super string) (bool, error) {
		return true, nil
	})
	if err == nil {
		t.Fatal("cyclic subsumption accepted")
	}
	var cycErr *SubsumptionCycleError
	if !errors.As(err, &cycErr) {
		t.Fatalf("error %v (%T) is not a *SubsumptionCycleError", err, err)
	}
	if len(cycErr.Cycles) != 1 || len(cycErr.Cycles[0]) != 4 {
		t.Errorf("Cycles = %v, want one 4-class component", cycErr.Cycles)
	}
	if msg := cycErr.Error(); !strings.Contains(msg, "cycle") {
		t.Errorf("Error() = %q, want a mention of cycles", msg)
	}
	// The legitimate acyclic hierarchy still classifies.
	if _, err := NewOntologyIndex(tb); err != nil {
		t.Errorf("acyclic TBox rejected: %v", err)
	}
}
