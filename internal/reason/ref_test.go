package reason

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
)

// This file verifies the semi-naive engine and its incremental maintenance
// against the dumbest correct evaluator: a string-level naive fixpoint that
// re-applies every rule over every fact combination until nothing changes,
// recomputed from scratch after every mutation. The engine must agree with
// it on the full materialization after arbitrary schedules of adds and
// removes — as a seeded property test here and as a fuzz target
// (FuzzReasonMatchesReference).

// naiveClosure computes the rule closure of the asserted triples by naive
// brute-force fixpoint iteration.
func naiveClosure(asserted []store.Triple, rules []Rule) map[store.Triple]bool {
	facts := map[store.Triple]bool{}
	for _, t := range asserted {
		facts[t] = true
	}
	for {
		var fresh []store.Triple
		for _, r := range rules {
			naiveMatch(r, facts, map[string]string{}, 0, &fresh)
		}
		changed := false
		for _, t := range fresh {
			if !facts[t] {
				facts[t] = true
				changed = true
			}
		}
		if !changed {
			return facts
		}
	}
}

// naiveMatch enumerates every instantiation of the rule body over the fact
// set by backtracking, appending each instantiated head to out.
func naiveMatch(r Rule, facts map[store.Triple]bool, bind map[string]string, atom int, out *[]store.Triple) {
	if atom == len(r.Body) {
		*out = append(*out, instantiate(r.Head, bind))
		return
	}
	p := r.Body[atom]
	for f := range facts {
		trial := map[string]string{}
		for k, v := range bind {
			trial[k] = v
		}
		if unifyTerm(p.Subject, f.Subject, trial) &&
			unifyTerm(p.Predicate, f.Predicate, trial) &&
			unifyTerm(p.Object, f.Object, trial) {
			naiveMatch(r, facts, trial, atom+1, out)
		}
	}
}

func unifyTerm(t query.Term, val string, bind map[string]string) bool {
	if !t.IsVar {
		return t.Value == val
	}
	if b, ok := bind[t.Value]; ok {
		return b == val
	}
	bind[t.Value] = val
	return true
}

func instantiate(p query.TriplePattern, bind map[string]string) store.Triple {
	get := func(t query.Term) string {
		if t.IsVar {
			return bind[t.Value]
		}
		return t.Value
	}
	return store.Triple{Subject: get(p.Subject), Predicate: get(p.Predicate), Object: get(p.Object)}
}

// sortedTriples renders a fact set sorted, for diffs.
func sortedTriples(m map[store.Triple]bool) []store.Triple {
	out := make([]store.Triple, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		return a.Object < b.Object
	})
	return out
}

// checkAgainstNaive compares the reasoner's materialized view against the
// naive closure of the base store's current triples.
func checkAgainstNaive(t *testing.T, r *Reasoner, rules []Rule, context string) {
	t.Helper()
	want := naiveClosure(r.Base().Triples(), rules)
	got := map[store.Triple]bool{}
	for _, tr := range r.View().Triples() {
		got[tr] = true
	}
	if len(got) != len(want) {
		t.Fatalf("%s: materialization has %d triples, naive closure %d\n got: %v\nwant: %v",
			context, len(got), len(want), sortedTriples(got), sortedTriples(want))
	}
	for tr := range want {
		if !got[tr] {
			t.Fatalf("%s: naive closure contains %v, materialization does not", context, tr)
		}
	}
	// The overlay must hold exactly the inferred (non-asserted) part.
	for _, tr := range r.Overlay().Triples() {
		if r.Base().Contains(tr) {
			t.Fatalf("%s: %v is both asserted and in the overlay (invariant violated)", context, tr)
		}
	}
}

// randomRules generates a small random range-restricted rule set.
func randomRules(rng *rand.Rand) []Rule {
	nodes := []string{"a", "b", "c", "d"}
	preds := []string{"p", "q", "r"}
	vars := []string{"x", "y", "z"}
	term := func(pool []string) query.Term {
		if rng.Intn(2) == 0 {
			return query.Var(vars[rng.Intn(len(vars))])
		}
		return query.Lit(pool[rng.Intn(len(pool))])
	}
	pattern := func() query.TriplePattern {
		return query.Pat(term(nodes), term(preds), term(nodes))
	}
	var rules []Rule
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		body := []query.TriplePattern{pattern()}
		if rng.Intn(2) == 0 {
			body = append(body, pattern())
		}
		bodyVars := map[string]bool{}
		for _, p := range body {
			for _, t := range []query.Term{p.Subject, p.Predicate, p.Object} {
				if t.IsVar {
					bodyVars[t.Value] = true
				}
			}
		}
		head := pattern()
		fix := func(t query.Term, pool []string) query.Term {
			if t.IsVar && !bodyVars[t.Value] {
				return query.Lit(pool[rng.Intn(len(pool))])
			}
			return t
		}
		head.Subject = fix(head.Subject, nodes)
		head.Predicate = fix(head.Predicate, preds)
		head.Object = fix(head.Object, nodes)
		rules = append(rules, Rule{Name: fmt.Sprintf("rand-%d", i), Head: head, Body: body})
	}
	return rules
}

// randomTriple draws a triple from the same small vocabulary the rules use,
// so rules actually fire.
func randomTriple(rng *rand.Rand) store.Triple {
	nodes := []string{"a", "b", "c", "d"}
	preds := []string{"p", "q", "r"}
	return store.Triple{
		Subject:   nodes[rng.Intn(len(nodes))],
		Predicate: preds[rng.Intn(len(preds))],
		Object:    nodes[rng.Intn(len(nodes))],
	}
}

// refChunk is the head-buffer bound the reference checks run their second
// materialization with: small enough that every non-trivial round — the
// bulk-built first round included — spans many flush chunks.
const refChunk = 2

// checkReference holds one case — a rule set, an initial asserted set and
// an operation schedule — to the naive closure along every path that builds
// or maintains a materialization:
//
//   - Materialize (naive, bulk-built first round), once with the default
//     head buffer and once with a refChunk-sized one, so deltas longer than
//     a flush chunk are exercised whatever the corpus size;
//   - Materialize over an empty store followed by AddBatch of the whole
//     initial set (the batched incremental path), whose overlay must be
//     identical to the bulk-built one;
//   - the schedule of Add, AddBatch and Remove operations, checked after
//     every step;
//   - Rematerialize after writes made directly to the base store.
//
// It reports how many materializations derived more than one chunk's worth
// of triples, so callers can assert the multi-chunk paths actually ran.
func checkReference(t *testing.T, name string, rules []Rule, initial []store.Triple, ops []refOp, direct []store.Triple) (multiChunk int) {
	t.Helper()
	var bulk []store.Triple
	for _, chunk := range []int{flushChunk, refChunk} {
		base := store.New()
		if _, err := base.AddBatch(initial); err != nil {
			t.Fatal(err)
		}
		r, err := materialize(base, rules, chunk)
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("%s, chunk %d", name, chunk)
		checkAgainstNaive(t, r, rules, ctx+": Materialize")
		if r.Stats().Derived > chunk {
			multiChunk++
		}
		if bulk == nil {
			bulk = r.Overlay().Triples()
		} else if got := r.Overlay().Triples(); !reflect.DeepEqual(got, bulk) {
			t.Fatalf("%s: overlay %v differs from the default-chunk overlay %v", ctx, got, bulk)
		}
		for i, op := range ops {
			switch {
			case op.remove:
				r.Remove(op.t)
				checkAgainstNaive(t, r, rules, fmt.Sprintf("%s op %d: after Remove(%v)", ctx, i, op.t))
			case op.batch:
				if _, err := r.AddBatch([]store.Triple{op.t}); err != nil {
					t.Fatalf("%s op %d: AddBatch(%v): %v", ctx, i, op.t, err)
				}
				checkAgainstNaive(t, r, rules, fmt.Sprintf("%s op %d: after AddBatch(%v)", ctx, i, op.t))
			default:
				if _, err := r.Add(op.t); err != nil {
					t.Fatalf("%s op %d: Add(%v): %v", ctx, i, op.t, err)
				}
				checkAgainstNaive(t, r, rules, fmt.Sprintf("%s op %d: after Add(%v)", ctx, i, op.t))
			}
		}
		for i, tr := range direct {
			if i%2 == 0 {
				base.MustAdd(tr)
			} else {
				base.Remove(tr)
			}
		}
		r.Rematerialize()
		checkAgainstNaive(t, r, rules, ctx+": Rematerialize after direct base writes")

		incr, err := materialize(store.New(), rules, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := incr.AddBatch(initial); err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, incr, rules, ctx+": Materialize(empty) + AddBatch(all)")
		if got := incr.Overlay().Triples(); !reflect.DeepEqual(got, bulk) {
			t.Fatalf("%s: Materialize(empty) + AddBatch(all) overlay %v differs from the bulk-built %v", ctx, got, bulk)
		}
	}
	return multiChunk
}

// refOp is one scheduled reasoner write: Add the triple (through AddBatch
// when batch is set), or Remove it.
type refOp struct {
	t      store.Triple
	remove bool
	batch  bool
}

// TestReasonEmptyAtomsFillLater holds the empty-term skip to the reference
// where it matters: the RDFS rules over a corpus that starts without
// subPropertyOf, domain or range triples, so the terms probing those
// predicates are skipped — and then the predicates fill. A user rule chain
// derives domain triples two rounds into the fixpoint (rel1 → rel2 →
// domain), so a skipped atom fills mid-fixpoint; and the schedule asserts
// the first subPropertyOf, domain and range triples into the materialized
// store (through AddBatch and Add) and removes them again.
func TestReasonEmptyAtomsFillLater(t *testing.T) {
	user, err := ParseRules(`
?p rel2 ?c :- ?p rel1 ?c
?p domain ?c :- ?p rel2 ?c
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := func(s, p, o string) store.Triple { return store.Triple{Subject: s, Predicate: p, Object: o} }
	initial := []store.Triple{
		tr("a", "owns", "b"),
		tr("b", "drives", "c"),
		tr("b", store.TypePredicate, "car"),
		tr("car", SubClassOfPredicate, "vehicle"),
		tr("vehicle", SubClassOfPredicate, "thing"),
		tr("owns", "rel1", "owner"),
		tr("owner", SubClassOfPredicate, "person"),
	}
	ops := []refOp{
		{t: tr("owns", SubPropertyOfPredicate, "has"), batch: true},
		{t: tr("has", DomainPredicate, "agent"), batch: true},
		{t: tr("drives", RangePredicate, "car")},
		{t: tr("agent", SubClassOfPredicate, "thing"), batch: true},
		{t: tr("has", DomainPredicate, "agent"), remove: true},
		{t: tr("drives", RangePredicate, "car"), remove: true},
		{t: tr("owns", SubPropertyOfPredicate, "has"), remove: true},
		{t: tr("drives", "rel1", "driver"), batch: true},
		{t: tr("z", "drives", "w"), batch: true},
		{t: tr("y", "owns", "x")},
		{t: tr("owns", "rel1", "owner"), remove: true},
	}
	rules := append(RDFSRules(), user...)
	checkReference(t, "empty atoms", rules, initial, ops, []store.Triple{tr("has", DomainPredicate, "agent")})

	// The skip actually ran: Materialize over the initial corpus skips the
	// terms probing subPropertyOf and range, which it never uses.
	base := store.New()
	if _, err := base.AddBatch(initial); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, rules)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SkippedTerms == 0 || st.Heads < st.Derived {
		t.Fatalf("Materialize stats %+v: want skipped terms and at least one head per derived triple", st)
	}
}

// TestReasonMatchesReference drives random rule sets, initial stores and
// add/remove/direct-write schedules through checkReference: every
// materialization path is held to the naive recompute-from-scratch closure.
func TestReasonMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	multiChunk := 0
	for trial := 0; trial < 150; trial++ {
		rules := randomRules(rng)
		draw := func(n int) []store.Triple {
			ts := make([]store.Triple, n)
			for i := range ts {
				ts[i] = randomTriple(rng)
			}
			return ts
		}
		initial := draw(rng.Intn(10))
		ops := make([]refOp, 8)
		for i := range ops {
			ops[i] = refOp{t: randomTriple(rng), remove: rng.Intn(2) == 1}
		}
		direct := draw(rng.Intn(6))
		multiChunk += checkReference(t, fmt.Sprintf("trial %d", trial), rules, initial, ops, direct)
	}
	if multiChunk == 0 {
		t.Fatal("no materialization derived more than one flush chunk; the multi-chunk paths went unexercised")
	}
}

// TestReasonAddRemoveRestoresSnapshot is the incremental-maintenance
// round-trip property: over random rule sets and stores, Add(t) followed by
// Remove(t) for a t that was not asserted returns the materialized view to a
// byte-identical snapshot — delete-and-rederive leaves no residue and loses
// no surviving derivation.
func TestReasonAddRemoveRestoresSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 120; trial++ {
		rules := randomRules(rng)
		base := store.New()
		for i, n := 0, 2+rng.Intn(10); i < n; i++ {
			base.MustAdd(randomTriple(rng))
		}
		r, err := Materialize(base, rules)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr := randomTriple(rng)
		if r.Base().Contains(tr) {
			continue // Remove would genuinely change the asserted state
		}
		var before bytes.Buffer
		if _, err := r.View().Snapshot(&before); err != nil {
			t.Fatal(err)
		}
		var beforeTagged bytes.Buffer
		if _, err := r.View().SnapshotProvenance(&beforeTagged); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Add(tr); err != nil {
			t.Fatalf("trial %d: Add(%v): %v", trial, tr, err)
		}
		if !r.Remove(tr) {
			t.Fatalf("trial %d: Remove(%v) found nothing to remove", trial, tr)
		}
		var after bytes.Buffer
		if _, err := r.View().Snapshot(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("trial %d: Add(%v); Remove(%v) did not restore the materialization\nbefore:\n%s\nafter:\n%s",
				trial, tr, tr, before.String(), after.String())
		}
		var afterTagged bytes.Buffer
		if _, err := r.View().SnapshotProvenance(&afterTagged); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(beforeTagged.Bytes(), afterTagged.Bytes()) {
			t.Fatalf("trial %d: Add(%v); Remove(%v) changed provenance tags\nbefore:\n%s\nafter:\n%s",
				trial, tr, tr, beforeTagged.String(), afterTagged.String())
		}
	}
}

// FuzzReasonMatchesReference feeds byte-derived rule sets and operation
// schedules through checkReference, holding every materialization path to
// the naive reference closure. CI runs a short pass.
func FuzzReasonMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(99), []byte{7, 3, 1, 0, 200, 13, 42, 8})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		rng := rand.New(rand.NewSource(seed))
		rules := randomRules(rng)
		initial := make([]store.Triple, rng.Intn(8))
		for i := range initial {
			initial[i] = randomTriple(rng)
		}
		nodes := []string{"a", "b", "c", "d"}
		preds := []string{"p", "q", "r"}
		// Each op byte names a triple and, by its low bit, whether to add
		// (0) or remove (1) it; the same triples in reverse order double as
		// the direct base writes Rematerialize must then absorb.
		sched := make([]refOp, len(ops))
		direct := make([]store.Triple, len(ops))
		for i, op := range ops {
			tr := store.Triple{
				Subject:   nodes[int(op)%len(nodes)],
				Predicate: preds[int(op>>2)%len(preds)],
				Object:    nodes[int(op>>4)%len(nodes)],
			}
			sched[i] = refOp{t: tr, remove: op&1 == 1}
			direct[len(ops)-1-i] = tr
		}
		checkReference(t, fmt.Sprintf("seed %d", seed), rules, initial, sched, direct)
	})
}
