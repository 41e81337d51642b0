package query

// These tests back the concurrency claims of the batched evaluator's leaf
// scans: the store's scan cursors refill under shard read-locks, one refill
// at a time, while writers mutate the store (AddBatch and Remove), and while
// a materialized View's overlay is written. Run under -race in CI. Solution
// sets are only sanity-checked — the docs promise consistency only against a
// quiescent store — but every streamed row must be well-formed and the
// iteration must never error.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/store"
)

// raceStore builds a store big enough that a full scan takes many refills,
// each releasing its shard lock, so writers interleave with the cursor.
func raceStore(t testing.TB, n int) *store.Store {
	t.Helper()
	s := store.New()
	ts := make([]store.Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, store.Triple{
			Subject:   fmt.Sprintf("s%d", i),
			Predicate: fmt.Sprintf("p%d", i%7),
			Object:    fmt.Sprintf("o%d", i%97),
		})
	}
	if _, err := s.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScanUnderConcurrentWrites drives full scans while one goroutine
// batch-inserts fresh triples and another removes them again: the scan
// cursor must stay crash- and race-free while shards mutate under it between
// refills, and every pre-existing triple's row must remain well-formed.
func TestScanUnderConcurrentWrites(t *testing.T) {
	const n = 20_000
	s := raceStore(t, n)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]store.Triple, 0, 64)
			for j := 0; j < 64; j++ {
				batch = append(batch, store.Triple{
					Subject:   fmt.Sprintf("extra-%d-%d", i, j),
					Predicate: "p0",
					Object:    "o0",
				})
			}
			if _, err := s.AddBatch(batch); err != nil {
				panic(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := 0; j < 64; j++ {
				s.Remove(store.Triple{
					Subject:   fmt.Sprintf("extra-%d-%d", i, j),
					Predicate: "p0",
					Object:    "o0",
				})
			}
		}
	}()

	bgp := MustParseBGP("?s ?p ?o")
	for i := 0; i < 30; i++ {
		sols := Eval(s, bgp)
		rows := 0
		for sols.Next() {
			if v, ok := sols.Value("s"); !ok || v == "" {
				t.Fatalf("iteration %d: malformed subject binding (%q, %v)", i, v, ok)
			}
			rows++
		}
		if err := sols.Err(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		// The writers only ever add and remove their own extra- triples, so
		// every original triple should be scannable... except those caught
		// mid-mutation, which the consistency contract allows to be missed.
		// A gross undercount would mean a cursor lost its position.
		if rows < n/2 {
			t.Fatalf("iteration %d: scan saw only %d of %d stable triples", i, rows, n)
		}
	}
	close(stop)
	wg.Wait()
}

// TestScanOverViewUnderOverlayWrites runs full scans over a View (its base
// cursor, then its overlay cursor) while the overlay is concurrently written
// with overlay-only triples, keeping the view's disjointness contract — the
// materialization-refresh shape, where inferred triples stream in while
// readers scan the union.
func TestScanOverViewUnderOverlayWrites(t *testing.T) {
	const n = 20_000
	base := raceStore(t, n)
	overlay := base.NewOverlay()
	view, err := store.NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// raceStore's subjects are s0…s19999, so inf- subjects are
			// never in the base.
			tr := store.Triple{Subject: fmt.Sprintf("inf-%d", i%512), Predicate: "p1", Object: "o1"}
			if i%2 == 0 {
				if _, err := overlay.Add(tr); err != nil {
					panic(err)
				}
			} else {
				overlay.Remove(tr)
			}
		}
	}()

	bgp := MustParseBGP("?s ?p ?o")
	for i := 0; i < 30; i++ {
		sols := Eval(view, bgp)
		rows := 0
		for sols.Next() {
			rows++
		}
		if err := sols.Err(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if rows < n/2 {
			t.Fatalf("iteration %d: union scan saw only %d of %d base triples", i, rows, n)
		}
	}
	close(stop)
	wg.Wait()
}
