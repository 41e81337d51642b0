package reason

import (
	"errors"
	"testing"

	"repro/internal/store"
)

// deltaLog collects the SetOnDelta notifications of one test, copying the
// slices (the reasoner owns them only for the duration of the call) and
// resolving ids back to triples for readable assertions.
type deltaLog struct {
	res   store.Resolver
	fires int
	// global records a nil,nil "everything may have changed" notification.
	global         bool
	added, removed []store.Triple
}

func (l *deltaLog) hook(added, removed []store.IDTriple) {
	l.fires++
	if added == nil && removed == nil {
		l.global = true
		return
	}
	for _, t := range added {
		l.added = append(l.added, store.Triple{Subject: l.res.Name(t.S), Predicate: l.res.Name(t.P), Object: l.res.Name(t.O)})
	}
	for _, t := range removed {
		l.removed = append(l.removed, store.Triple{Subject: l.res.Name(t.S), Predicate: l.res.Name(t.P), Object: l.res.Name(t.O)})
	}
}

func (l *deltaLog) reset() {
	l.fires, l.global = 0, false
	l.added, l.removed = nil, nil
}

func contains(ts []store.Triple, want store.Triple) bool {
	for _, t := range ts {
		if t == want {
			return true
		}
	}
	return false
}

func TestOnDeltaCoversAssertedAndInferredChanges(t *testing.T) {
	base := store.New()
	if _, err := base.AddAll(
		store.Triple{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"},
		store.Triple{Subject: "vehicle", Predicate: SubClassOfPredicate, Object: "artifact"},
	); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	log := &deltaLog{res: base.NewResolver()}
	r.SetOnDelta(log.hook)

	typed := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"}
	inferred := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "vehicle"}
	top := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "artifact"}

	// Add: one notification covering the asserted triple and both inferred
	// consequences.
	if _, err := r.Add(typed); err != nil {
		t.Fatal(err)
	}
	if log.fires != 1 {
		t.Fatalf("Add fired %d notifications, want 1", log.fires)
	}
	for _, want := range []store.Triple{typed, inferred, top} {
		if !contains(log.added, want) {
			t.Fatalf("Add delta %v is missing %v", log.added, want)
		}
	}
	if len(log.removed) != 0 {
		t.Fatalf("Add reported removals: %v", log.removed)
	}

	// Re-adding a present triple leaves the view unchanged: no notification.
	log.reset()
	if _, err := r.Add(typed); err != nil {
		t.Fatal(err)
	}
	if log.fires != 0 {
		t.Fatalf("re-Add fired %d notifications, want 0", log.fires)
	}

	// A provenance flip (asserting a currently-inferred triple) leaves the
	// view unchanged but moves the triple from the overlay to the base; the
	// hook reports it in both lists so caches over either member alone stay
	// correct.
	log.reset()
	if _, err := r.Add(inferred); err != nil {
		t.Fatal(err)
	}
	if log.fires != 1 {
		t.Fatalf("provenance-flip Add fired %d notifications, want 1", log.fires)
	}
	if !contains(log.added, inferred) || !contains(log.removed, inferred) {
		t.Fatalf("flip delta added=%v removed=%v should carry the flipped triple in both lists", log.added, log.removed)
	}

	// Remove: the union of the two lists covers everything whose membership
	// may have changed. Removing the asserted "beetle type car" retracts it
	// but "beetle type vehicle" survives (it was asserted by the flip above).
	log.reset()
	if !r.Remove(typed) {
		t.Fatal("Remove(typed) reported the triple absent")
	}
	if log.fires != 1 {
		t.Fatalf("Remove fired %d notifications, want 1", log.fires)
	}
	if !contains(log.removed, typed) {
		t.Fatalf("Remove delta %v is missing the retracted %v", log.removed, typed)
	}
	if r.View().Contains(typed) {
		t.Fatal("view still contains the retracted triple")
	}

	// AddBatch: one notification for the whole batch, inferred consequences
	// included.
	log.reset()
	batch := []store.Triple{
		{Subject: "pickup1", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "pickup2", Predicate: store.TypePredicate, Object: "car"},
	}
	if _, err := r.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if log.fires != 1 {
		t.Fatalf("AddBatch fired %d notifications, want 1", log.fires)
	}
	for _, subj := range []string{"pickup1", "pickup2"} {
		for _, class := range []string{"car", "vehicle", "artifact"} {
			want := store.Triple{Subject: subj, Predicate: store.TypePredicate, Object: class}
			if !contains(log.added, want) {
				t.Fatalf("AddBatch delta %v is missing %v", log.added, want)
			}
		}
	}

	// An all-duplicate batch leaves the view unchanged: no notification.
	log.reset()
	if _, err := r.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if log.fires != 0 {
		t.Fatalf("duplicate AddBatch fired %d notifications, want 0", log.fires)
	}

	// Rematerialize reports the unknown-extent change as nil lists.
	log.reset()
	r.Rematerialize()
	if log.fires != 1 || !log.global {
		t.Fatalf("Rematerialize fired %d notifications (global=%v), want one nil,nil", log.fires, log.global)
	}
}

// TestOnDeltaRemoveCoversRetractedInferences checks the conservative-superset
// contract on the DRed path: when retracting an asserted triple kills an
// inference, the inference appears in the removed list.
func TestOnDeltaRemoveCoversRetractedInferences(t *testing.T) {
	base := store.New()
	if _, err := base.AddAll(
		store.Triple{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"},
		store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
	); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	log := &deltaLog{res: base.NewResolver()}
	r.SetOnDelta(log.hook)

	typed := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"}
	inferred := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "vehicle"}
	if !r.Remove(typed) {
		t.Fatal("Remove reported the triple absent")
	}
	if !contains(log.removed, typed) || !contains(log.removed, inferred) {
		t.Fatalf("Remove delta %v should cover both the asserted triple and its dead inference", log.removed)
	}
	if r.View().Contains(inferred) {
		t.Fatal("dead inference survived in the view")
	}
}

// failingJournal is a store.Journal whose commits always fail, the way a
// durable engine reports a failed fsync.
type failingJournal struct{}

func (failingJournal) JournalDict(store.SymbolID, []string) {}
func (failingJournal) JournalAdd([]store.IDTriple)          {}
func (failingJournal) JournalRemove(store.IDTriple)         {}
func (failingJournal) JournalCommit() error                 { return errors.New("fsync: input/output error") }

// TestReasonJournalFailureKeepsFixpoint pins the journal-failure contract: a
// base write whose commit fails is still applied in memory (the serving
// layer's 500 path relies on that), so Add and AddBatch must maintain the
// overlay, advance the generation and fire the hooks before returning the
// ErrJournal error — never leave visible asserted triples without their
// consequences, or caches and replicas unaware of them.
func TestReasonJournalFailureKeepsFixpoint(t *testing.T) {
	base := vehicleBase(t)
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	log := &deltaLog{res: base.NewResolver()}
	r.SetOnDelta(log.hook)
	events := 0
	r.SetOnEvent(func(Delta) { events++ })
	base.SetJournal(failingJournal{})

	typed := store.Triple{Subject: "kitt", Predicate: store.TypePredicate, Object: "car"}
	gen := r.Generation()
	if added, err := r.Add(typed); !added || !errors.Is(err, store.ErrJournal) {
		t.Fatalf("Add = %v, %v; want true and an ErrJournal error", added, err)
	}
	checkAgainstNaive(t, r, r.Rules(), "after a failed-commit Add")
	if r.Generation() != gen+1 || log.fires != 1 || events != 1 {
		t.Fatalf("failed-commit Add: generation %d→%d, %d delta and %d event notifications; want one advance and one of each", gen, r.Generation(), log.fires, events)
	}
	if !contains(log.added, store.Triple{Subject: "kitt", Predicate: store.TypePredicate, Object: "vehicle"}) {
		t.Fatalf("failed-commit Add delta %v misses the inferred consequence", log.added)
	}

	log.reset()
	batch := []store.Triple{
		{Subject: "truck-2", Predicate: store.TypePredicate, Object: "pickup"},
		{Subject: "pickup", Predicate: SubClassOfPredicate, Object: "motorvehicle"},
	}
	gen = r.Generation()
	if added, err := r.AddBatch(batch); added != 2 || !errors.Is(err, store.ErrJournal) {
		t.Fatalf("AddBatch = %d, %v; want 2 and an ErrJournal error", added, err)
	}
	checkAgainstNaive(t, r, r.Rules(), "after a failed-commit AddBatch")
	if r.Generation() != gen+1 || log.fires != 1 || events != 2 {
		t.Fatalf("failed-commit AddBatch: generation %d→%d, %d delta and %d event notifications; want one advance and one of each", gen, r.Generation(), log.fires, events-1)
	}
	for _, want := range []store.Triple{
		{Subject: "truck-2", Predicate: store.TypePredicate, Object: "vehicle"},
		{Subject: "truck-1", Predicate: store.TypePredicate, Object: "motorvehicle"},
	} {
		if !contains(log.added, want) {
			t.Fatalf("failed-commit AddBatch delta %v misses %v", log.added, want)
		}
	}
}
