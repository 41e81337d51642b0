package store

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// dumpIDState extracts what a durable-segment chain would hand RestoreSorted:
// the dictionary in interning order and the full triple set sorted by id.
func dumpIDState(s *Store) ([]string, []IDTriple) {
	res := s.NewResolver()
	dict := make([]string, s.DictLen())
	for i := range dict {
		dict[i] = res.Name(SymbolID(i))
	}
	var ts []IDTriple
	s.QueryIDFunc(IDPattern{}, func(t IDTriple) bool {
		ts = append(ts, t)
		return true
	})
	sort.Slice(ts, func(i, j int) bool { return idTripleLess(ts[i], ts[j]) })
	return dict, ts
}

func snapshotOf(t *testing.T, s *Store) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.String()
}

// skewedCorpus builds a corpus that exercises every index shape: a hot
// predicate whose object sets spill past setSpill, subjects with more
// predicates than midSpill, and a long tail of small entries.
func skewedCorpus(n int) []Triple {
	ts := make([]Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, Triple{
			Subject:   fmt.Sprintf("s%d", i%97),
			Predicate: fmt.Sprintf("p%d", i%13),
			Object:    fmt.Sprintf("o%d", i),
		})
	}
	// A spilled trailing set: one (s, p) pair with > setSpill objects.
	for i := 0; i < 2*setSpill; i++ {
		ts = append(ts, Triple{Subject: "hub", Predicate: "links", Object: fmt.Sprintf("t%d", i)})
	}
	// A spilled middle level: one subject with > midSpill predicates.
	for i := 0; i < 2*midSpill; i++ {
		ts = append(ts, Triple{Subject: "wide", Predicate: fmt.Sprintf("attr%d", i), Object: "v"})
	}
	return ts
}

func TestRestoreSortedMatchesBatchIngest(t *testing.T) {
	ref := New()
	if _, err := ref.AddBatch(skewedCorpus(3000)); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	// A few single-triple mutations so the reference store is not a pure
	// batch artifact.
	ref.MustAdd(Triple{Subject: "solo", Predicate: "p0", Object: "o1"})
	ref.Remove(Triple{Subject: "s1", Predicate: "p1", Object: "o1262"})

	dict, ids := dumpIDState(ref)
	got := New()
	if err := got.RestoreSorted(dict, ids); err != nil {
		t.Fatalf("RestoreSorted: %v", err)
	}

	if got.Len() != ref.Len() {
		t.Fatalf("Len: restored %d, reference %d", got.Len(), ref.Len())
	}
	if got.DictLen() != ref.DictLen() {
		t.Fatalf("DictLen: restored %d, reference %d", got.DictLen(), ref.DictLen())
	}
	if a, b := snapshotOf(t, got), snapshotOf(t, ref); a != b {
		t.Fatal("restored snapshot differs from reference snapshot")
	}
	// Ids, not just names, must match: segment tombstone replay depends on
	// the restored store minting identical SymbolIDs.
	res := ref.NewResolver()
	for i := 0; i < ref.DictLen(); i++ {
		name := res.Name(SymbolID(i))
		id, ok := got.SymbolID(name)
		if !ok || id != SymbolID(i) {
			t.Fatalf("SymbolID(%q) = %d, %v; want %d", name, id, ok, i)
		}
	}
	// Index-level reads must agree across all three families.
	for _, p := range []Pattern{
		{Subject: "hub"},
		{Predicate: "links"},
		{Object: "v"},
		{Subject: "wide", Predicate: "attr3"},
		{Predicate: "p4", Object: "o17"},
		{Subject: "s2", Predicate: "p2", Object: "o28"},
	} {
		g, r := got.Query(p), ref.Query(p)
		if len(g) != len(r) {
			t.Fatalf("Query(%v): restored %d rows, reference %d", p, len(g), len(r))
		}
		if got.Count(p) != ref.Count(p) {
			t.Fatalf("Count(%v): restored %d, reference %d", p, got.Count(p), ref.Count(p))
		}
	}
}

// TestRestoreSortedThenMutate proves the directly-built index levels (spill
// maps included) behave identically to incrementally built ones under later
// Add/Remove traffic.
func TestRestoreSortedThenMutate(t *testing.T) {
	ref := New()
	if _, err := ref.AddBatch(skewedCorpus(500)); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	dict, ids := dumpIDState(ref)
	got := New()
	if err := got.RestoreSorted(dict, ids); err != nil {
		t.Fatalf("RestoreSorted: %v", err)
	}
	mutate := func(s *Store) {
		// Duplicate insert must be refused by both.
		if added, _ := s.Add(Triple{Subject: "hub", Predicate: "links", Object: "t3"}); added {
			t.Fatal("duplicate Add reported newly inserted")
		}
		// Remove out of a spilled set, out of a spilled middle level, and a
		// plain small entry.
		for _, tr := range []Triple{
			{Subject: "hub", Predicate: "links", Object: "t7"},
			{Subject: "wide", Predicate: "attr1", Object: "v"},
			{Subject: "s3", Predicate: "p3", Object: "o3"},
		} {
			if !s.Remove(tr) {
				t.Fatalf("Remove(%v) reported absent", tr)
			}
		}
		s.MustAdd(Triple{Subject: "fresh", Predicate: "links", Object: "hub"})
	}
	mutate(ref)
	mutate(got)
	if a, b := snapshotOf(t, got), snapshotOf(t, ref); a != b {
		t.Fatal("post-mutation snapshots diverge")
	}
}

func TestRestoreSortedEmptyAndDictOnly(t *testing.T) {
	s := New()
	if err := s.RestoreSorted(nil, nil); err != nil {
		t.Fatalf("empty restore: %v", err)
	}
	if s.Len() != 0 || s.DictLen() != 0 {
		t.Fatalf("empty restore left %d triples, %d names", s.Len(), s.DictLen())
	}
	s2 := New()
	if err := s2.RestoreSorted([]string{"a", "b"}, nil); err != nil {
		t.Fatalf("dict-only restore: %v", err)
	}
	if id, ok := s2.SymbolID("b"); !ok || id != 1 {
		t.Fatalf("SymbolID(b) = %d, %v; want 1, true", id, ok)
	}
	if s2.Len() != 0 {
		t.Fatalf("dict-only restore holds %d triples", s2.Len())
	}
}

type nopJournal struct{}

func (nopJournal) JournalDict(SymbolID, []string) {}
func (nopJournal) JournalAdd([]IDTriple)          {}
func (nopJournal) JournalRemove(IDTriple)         {}
func (nopJournal) JournalCommit() error           { return nil }

func TestRestoreSortedRejectsBadInput(t *testing.T) {
	dict := []string{"a", "b", "c"}
	cases := []struct {
		name    string
		prep    func() *Store
		dict    []string
		triples []IDTriple
	}{
		{"non-empty store", func() *Store { s := New(); s.MustAdd(Triple{Subject: "x", Predicate: "y", Object: "z"}); return s }, dict, nil},
		{"journal attached", func() *Store { s := New(); s.SetJournal(nopJournal{}); return s }, dict, nil},
		{"id out of range", New, dict, []IDTriple{{0, 1, 3}}},
		{"unsorted", New, dict, []IDTriple{{0, 1, 2}, {0, 0, 1}}},
		{"duplicate triple", New, dict, []IDTriple{{0, 1, 2}, {0, 1, 2}}},
		{"duplicate dict name", New, []string{"a", "a"}, nil},
		{"empty dict name", New, []string{"a", ""}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.prep()
			if err := s.RestoreSorted(tc.dict, tc.triples); err == nil {
				t.Fatal("RestoreSorted accepted invalid input")
			}
		})
	}
}

// overlayIDs interns a reversed, shuffled and duplicated copy of corpus into
// base's dictionary, plus a "fan" triple (predicate fan object) per corpus
// triple so that (S, P) groups hold many objects — an overlay-shaped id set
// whose names the base mostly knows but whose triples it does not hold.
func overlayIDs(t *testing.T, base *Store, corpus []Triple) []IDTriple {
	t.Helper()
	intern := func(name string) SymbolID {
		id, err := base.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var ids []IDTriple
	for i, tr := range corpus {
		ids = append(ids,
			IDTriple{S: intern(tr.Object), P: intern(tr.Predicate), O: intern(tr.Subject)},
			IDTriple{S: intern(tr.Predicate), P: intern("fan"), O: intern(tr.Object)})
		if i%5 == 0 {
			ids = append(ids, ids[len(ids)-1]) // a duplicate
		}
	}
	// Deterministic shuffle, so the sort has work to do.
	for i := range ids {
		j := (i * 7919) % len(ids)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}

// TestRestoreSortedSharedBuilderOnOverlay drives RestoreSorted's index
// builder through BuildSorted on a dictionary-sharing overlay — the
// materialization engine's bulk-built first round — and holds the result to
// an overlay built through the incremental batch path: same contents, same
// index-level reads and per-shard counts, the same behaviour under later
// mutation, and the base untouched. It also checks SortIDTriples against a
// comparison sort.
func TestRestoreSortedSharedBuilderOnOverlay(t *testing.T) {
	base := New()
	if _, err := base.AddBatch(skewedCorpus(500)); err != nil {
		t.Fatal(err)
	}
	before := snapshotOf(t, base)
	ids := overlayIDs(t, base, skewedCorpus(2000))

	ref := base.NewOverlay()
	if _, err := ref.AddIDBatch(ids); err != nil {
		t.Fatal(err)
	}
	want := append([]IDTriple(nil), ids...)
	sort.Slice(want, func(i, j int) bool { return idTripleLess(want[i], want[j]) })
	uniq := want[:0]
	for i, tr := range want {
		if i == 0 || tr != want[i-1] {
			uniq = append(uniq, tr)
		}
	}
	sorted := SortIDTriples(append([]IDTriple(nil), ids...))
	if fmt.Sprint(sorted) != fmt.Sprint(uniq) {
		t.Fatal("SortIDTriples disagrees with a comparison sort plus deduplication")
	}

	got := base.NewOverlay()
	if err := got.BuildSorted(sorted); err != nil {
		t.Fatalf("BuildSorted: %v", err)
	}
	if got.Len() != ref.Len() || got.Len() != len(uniq) {
		t.Fatalf("Len: built %d, incremental %d, distinct input %d", got.Len(), ref.Len(), len(uniq))
	}
	if a, b := snapshotOf(t, got), snapshotOf(t, ref); a != b {
		t.Fatal("bulk-built overlay snapshot differs from the incrementally built one")
	}
	for i := 0; i < got.NumShards(); i++ {
		if g, r := got.ShardTripleCount(i), ref.ShardTripleCount(i); g != r {
			t.Fatalf("ShardTripleCount(%d): built %d, incremental %d", i, g, r)
		}
	}
	for _, p := range []Pattern{
		{Object: "hub"},
		{Predicate: "links"},
		{Subject: "v"},
		{Subject: "v", Predicate: "attr3"},
		{Predicate: "p4", Object: "s17"},
	} {
		ip, ok := got.encodePattern(p)
		if !ok {
			t.Fatalf("pattern %v names an unknown symbol", p)
		}
		if g, r := got.StatsID(ip), ref.StatsID(ip); g != r {
			t.Fatalf("StatsID(%v): built %+v, incremental %+v", p, g, r)
		}
		if g, r := got.Query(p), ref.Query(p); fmt.Sprint(g) != fmt.Sprint(r) {
			t.Fatalf("Query(%v): built %v, incremental %v", p, g, r)
		}
	}
	mutate := func(s *Store) {
		for _, tr := range sorted[:40] {
			if !s.RemoveID(tr) {
				t.Fatalf("RemoveID(%v) reported absent", tr)
			}
		}
		if added, err := s.AddID(sorted[len(sorted)-1]); err != nil || added {
			t.Fatalf("duplicate AddID = %v, %v; want false, nil", added, err)
		}
		if _, err := s.AddIDBatch(sorted[:20]); err != nil {
			t.Fatal(err)
		}
	}
	mutate(ref)
	mutate(got)
	if a, b := snapshotOf(t, got), snapshotOf(t, ref); a != b {
		t.Fatal("post-mutation overlay snapshots diverge")
	}
	if snapshotOf(t, base) != before {
		t.Fatal("building the overlay changed the base store")
	}
}

// TestRestoreSortedSharedBuilderRejectsBadInput is the BuildSorted half of
// the rejection suite: every refusal leaves the overlay empty, and the
// dictionary-installing RestoreSorted refuses an overlay whose shared
// dictionary is already populated.
func TestRestoreSortedSharedBuilderRejectsBadInput(t *testing.T) {
	base := New()
	base.MustAdd(Triple{Subject: "a", Predicate: "b", Object: "c"}) // ids 0, 1, 2
	cases := []struct {
		name    string
		prep    func() *Store
		triples []IDTriple
	}{
		{"overlay holds triples", func() *Store {
			o := base.NewOverlay()
			o.MustAdd(Triple{Subject: "c", Predicate: "b", Object: "a"})
			return o
		}, nil},
		{"journal attached", func() *Store { o := base.NewOverlay(); o.SetJournal(nopJournal{}); return o }, nil},
		{"id out of range", base.NewOverlay, []IDTriple{{0, 1, SymbolID(base.DictLen())}}},
		{"unsorted", base.NewOverlay, []IDTriple{{2, 1, 0}, {0, 1, 2}}},
		{"duplicate triple", base.NewOverlay, []IDTriple{{2, 1, 0}, {2, 1, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.prep()
			n := o.Len()
			if err := o.BuildSorted(tc.triples); err == nil {
				t.Fatal("BuildSorted accepted invalid input")
			}
			if o.Len() != n {
				t.Fatalf("rejected BuildSorted changed the overlay size %d → %d", n, o.Len())
			}
		})
	}
	t.Run("RestoreSorted onto a populated shared dictionary", func(t *testing.T) {
		if err := base.NewOverlay().RestoreSorted([]string{"a", "b", "c"}, nil); err == nil {
			t.Fatal("RestoreSorted replaced a dictionary other stores share")
		}
	})
}
