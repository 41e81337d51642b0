package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// cursorSource is the read surface shared by Store and View that the cursor
// property test drives.
type cursorSource interface {
	ScanParts(p IDPattern, max int) []*ScanPart
	Triples() []Triple
}

// cursorCorpus builds a base store and a disjoint overlay whose index shapes
// cover every cursor path: a random tail of small entries, trailing sets
// larger than the largest out buffer (1500 subjects of (type big) in the
// base and 1200 more in the overlay, 1500 objects of (hub links)), and a lead
// entry of 120 triples ("wide": 40 predicates × 3 objects) that a full scan
// with a small out buffer cannot emit in one refill. It also returns the
// distinct triples added to the base and to the union, the oracle that
// anchors Triples() (itself a cursor drain) to what was inserted.
func cursorCorpus(t *testing.T) (*Store, *View, map[Triple]bool, map[Triple]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var ts []Triple
	for i := 0; i < 600; i++ {
		ts = append(ts, Triple{fmt.Sprintf("s%d", rng.Intn(40)), fmt.Sprintf("p%d", rng.Intn(6)), fmt.Sprintf("o%d", rng.Intn(40))})
	}
	for i := 0; i < 1500; i++ {
		ts = append(ts, Triple{fmt.Sprintf("m%d", i), "type", "big"}, Triple{"hub", "links", fmt.Sprintf("t%d", i)})
	}
	for j := 0; j < 40; j++ {
		for k := 0; k < 3; k++ {
			ts = append(ts, Triple{"wide", fmt.Sprintf("q%d", j), fmt.Sprintf("o%d", k)})
		}
	}
	base := New()
	if _, err := base.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	// Overlay triples never occur in the base: their objects or subjects are
	// overlay-only names, while predicates and other components are shared.
	var inf []Triple
	for i := 0; i < 300; i++ {
		inf = append(inf, Triple{fmt.Sprintf("s%d", rng.Intn(40)), fmt.Sprintf("p%d", rng.Intn(6)), fmt.Sprintf("inf%d", rng.Intn(50))})
	}
	for i := 0; i < 1200; i++ {
		inf = append(inf, Triple{fmt.Sprintf("n%d", i), "type", "big"})
	}
	overlay := base.NewOverlay()
	if _, err := overlay.AddBatch(inf); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	inBase, inUnion := map[Triple]bool{}, map[Triple]bool{}
	for _, tr := range ts {
		inBase[tr], inUnion[tr] = true, true
	}
	for _, tr := range inf {
		inUnion[tr] = true
	}
	return base, v, inBase, inUnion
}

// drainCursors drains the cursors with an out buffer of the given size into
// a multiset, releasing each cursor. It fails the test if a cursor needs more
// refills than maxRefills (a cursor that stops advancing).
func drainCursors(t *testing.T, parts []*ScanPart, size, maxRefills int, res Resolver) map[Triple]int {
	t.Helper()
	got := map[Triple]int{}
	buf := make([]IDTriple, size)
	for _, pt := range parts {
		for refills := 0; ; refills++ {
			if refills > maxRefills {
				t.Fatalf("cursor still not done after %d refills of %d", refills, size)
			}
			n, done := pt.NextBatch(buf)
			for _, tr := range buf[:n] {
				got[Triple{res.Name(tr.S), res.Name(tr.P), res.Name(tr.O)}]++
			}
			if done {
				break
			}
		}
		pt.Release()
	}
	return got
}

// TestScanCursorMatchesReference drains the scan cursor of every bound shape
// on a Store and on a View, with out buffers of 1, 7 and 1024 triples, and
// checks that the drained multiset is exactly the reference filter over
// Triples(): every match once, nothing else. Before each drain a full-scan
// cursor is abandoned half-drained and released, so the checked cursors are
// likely to be recycled from the pool with stale state.
func TestScanCursorMatchesReference(t *testing.T) {
	base, v, inBase, inUnion := cursorCorpus(t)
	res := base.NewResolver()
	samples := []Triple{
		{"hub", "links", "t17"},
		{"m3", "type", "big"},
		{"n5", "type", "big"},
		{"wide", "q3", "o1"},
		{"hub", "type", "big"}, // interned names, no such triple
	}
	all := v.Triples()
	for i := 0; i < len(all) && len(samples) < 12; i += 499 {
		samples = append(samples, all[i])
	}
	for _, tc := range []struct {
		name     string
		src      cursorSource
		inserted map[Triple]bool
	}{{"store", base, inBase}, {"view", v, inUnion}} {
		ref := tc.src.Triples()
		if len(ref) != len(tc.inserted) {
			t.Fatalf("%s: Triples() has %d triples, %d were inserted", tc.name, len(ref), len(tc.inserted))
		}
		for _, r := range ref {
			if !tc.inserted[r] {
				t.Fatalf("%s: Triples() has %v, which was never inserted", tc.name, r)
			}
		}
		for _, size := range []int{1, 7, 1024} {
			for _, tr := range samples {
				for mask := 0; mask < 8; mask++ {
					p := Pattern{}
					if mask&1 != 0 {
						p.Subject = tr.Subject
					}
					if mask&2 != 0 {
						p.Predicate = tr.Predicate
					}
					if mask&4 != 0 {
						p.Object = tr.Object
					}
					ip, ok := base.encodePattern(p)
					if !ok {
						t.Fatalf("pattern %v has a name that was never interned", p)
					}
					abandoned := tc.src.ScanParts(IDPattern{}, 1)
					abandoned[0].NextBatch(make([]IDTriple, 7))
					for _, pt := range abandoned {
						pt.Release()
					}
					want := map[Triple]int{}
					for _, r := range ref {
						if p.Matches(r) {
							want[r]++
						}
					}
					got := drainCursors(t, tc.src.ScanParts(ip, 1), size, len(ref)+2*numShards+2, res)
					if len(got) != len(want) {
						t.Fatalf("%s, out %d, %v: drained %d distinct triples, reference has %d", tc.name, size, p, len(got), len(want))
					}
					for r, c := range got {
						if c != 1 || want[r] != 1 {
							t.Fatalf("%s, out %d, %v: %v drained %d times, reference has it %d times", tc.name, size, p, r, c, want[r])
						}
					}
				}
			}
		}
	}
}
