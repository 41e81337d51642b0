package reason

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/query/exec"
	"repro/internal/store"
)

// Stats counts what the engine has done since Materialize: fixpoint rounds,
// triples derived into the overlay, and the overdelete/rederive traffic of
// incremental maintenance. Derived counts insertions into the overlay over
// the reasoner's whole life, so after deletions it can exceed InferredCount.
type Stats struct {
	// Rounds is the number of fixpoint rounds run: each full
	// materialization's naive first round plus every semi-naive round,
	// incremental propagations included.
	Rounds int
	// Derived is the number of triples ever added to the inferred overlay.
	Derived int
	// Overdeleted is the number of inferred triples provisionally removed by
	// delete-and-rederive passes.
	Overdeleted int
	// Rederived is the number of overdeleted triples that survived — they
	// had a derivation not involving the removed triples and were put back.
	Rederived int
}

// Reasoner owns a materialization: an asserted base store, an overlay of
// inferred triples sharing the base's dictionary, and the compiled rule set
// that connects them. Create one with Materialize; afterwards route writes
// through the reasoner's Add/AddBatch/Remove so the overlay is maintained
// incrementally, and read through View (or the Query/Instances conveniences).
//
// Writes are serialized by an internal mutex and maintain the invariant that
// the overlay holds exactly the rule-derivable triples not asserted in the
// base (asserted and inferred never overlap, so View reads never
// double-count). Reads are safe at any time — the underlying stores are
// concurrency-safe — but a reader overlapping a write may observe a
// mid-maintenance state, exactly as with Store.AddBatch; quiescent views are
// always exact fixpoints.
//
// Writing to the base store directly, bypassing the reasoner, silently
// invalidates the materialization (the overlay cannot know); call
// Rematerialize afterwards if that cannot be avoided.
type Reasoner struct {
	mu      sync.Mutex
	base    *store.Store
	overlay *store.Store
	view    *store.View
	rules   []crule
	source  []Rule
	stats   Stats
	// chunk bounds the derived-head buffer: heads are flushed into the
	// overlay (or, in Materialize's first round, folded into the sorted
	// accumulator) every chunk heads. flushChunk outside tests.
	chunk int
	heads []store.IDTriple // reusable head buffer, capacity ≤ chunk
	// materializeNanos is the wall time of the last full materialization
	// (Materialize or Rematerialize), for /stats and the boot log.
	materializeNanos atomic.Int64
	onDelta          func(added, removed []store.IDTriple)
	onEvent          func(Delta)
	// gen counts content-changing writes: it advances exactly when the delta
	// hook would fire, so any two reads bracketing an unchanged generation
	// saw the same materialization. The replica tier's staleness signal.
	gen atomic.Uint64
	// Metric handles, nil until RegisterMetrics; every observation is
	// nil-safe, so an unobserved reasoner pays one branch per round.
	mRounds       *obs.Counter
	mDerived      *obs.Counter
	mRoundSeconds *obs.Histogram
	mDeltaSize    *obs.Histogram
}

// Generation returns the materialization generation: it advances on every
// write that changed (or may have changed — Rematerialize) the view's
// contents, and never otherwise. Two equal readings bracket an unchanged
// materialization, which is what result caches and the future replica tier
// compare.
func (r *Reasoner) Generation() uint64 { return r.gen.Load() }

// RegisterMetrics registers the reasoner's instruments on reg: round and
// derivation counters, per-round latency and delta-size distributions, and
// gauges for the overlay size and generation. Call it once, before traffic;
// an unregistered reasoner skips all observation.
func (r *Reasoner) RegisterMetrics(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mRounds = reg.Counter("onto_reason_rounds_total", "Semi-naive materialization rounds run.")
	r.mDerived = reg.Counter("onto_reason_derived_total", "Triples ever derived into the inferred overlay.")
	r.mRoundSeconds = reg.Histogram("onto_reason_round_seconds", "Wall time of one semi-naive round.", obs.LatencyBuckets())
	r.mDeltaSize = reg.Histogram("onto_reason_delta_size", "Seed delta sizes entering propagation.", obs.SizeBuckets())
	reg.GaugeFunc("onto_reason_overlay_triples", "Currently inferred triples (overlay size).", func() float64 {
		return float64(r.overlay.Len())
	})
	reg.GaugeFunc("onto_reason_generation", "Materialization generation (advances on every content-changing write).", func() float64 {
		return float64(r.gen.Load())
	})
	reg.GaugeFunc("onto_reason_materialize_seconds", "Wall time of the last full materialization (Materialize or Rematerialize).", func() float64 {
		return r.MaterializeDuration().Seconds()
	})
}

// MaterializeDuration returns the wall time of the last full
// materialization: Materialize's fixpoint at construction, or the latest
// Rematerialize. It is the boot-time cost of the reasoner.
func (r *Reasoner) MaterializeDuration() time.Duration {
	return time.Duration(r.materializeNanos.Load())
}

// Delta is the generation-keyed record of one content-changing write — the
// event the replication tier replays. Added and Removed are the same
// conservative view-level supersets SetOnDelta reports (asserted and
// inferred changes together, provenance flips in both lists).
// AssertedAdded and AssertedRemoved are the subset that entered or left the
// asserted base store: exactly the mutations a replica must re-apply through
// its own reasoner to converge, since the inferred overlay is a
// deterministic function of the base and the rule set. Gen is the
// materialization generation the write produced; consecutive events carry
// consecutive generations, which is what lets a replica detect dropped or
// duplicated events with one comparison. Reset marks a Rematerialize: the
// extent of the change is unknowable (all four lists are nil) and consumers
// holding derived state must rebuild it from scratch.
type Delta struct {
	// Gen is the generation after this write; events form a dense chain.
	Gen uint64
	// Added and Removed cover every triple whose membership in the base or
	// the overlay may have changed (see SetOnDelta for the exact contract).
	Added, Removed []store.IDTriple
	// AssertedAdded and AssertedRemoved are the base-store changes alone:
	// the replayable mutation stream.
	AssertedAdded, AssertedRemoved []store.IDTriple
	// Reset marks an unknown-extent change (Rematerialize); the lists are
	// nil and consumers must assume anything may have changed.
	Reset bool
}

// SetOnEvent installs a hook invoked with the Delta of every
// content-changing write, after the SetOnDelta hook. It is the
// generation-keyed, provenance-split form of SetOnDelta — the serving
// layer's replication feed subscribes here — and runs under the same
// contract: synchronously on the writing goroutine with the write lock
// held, slices owned by the reasoner and valid only for the duration of the
// call, no Reasoner methods from inside the hook. Both hooks may be
// installed at once; a nil hook disables it.
func (r *Reasoner) SetOnEvent(hook func(Delta)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvent = hook
}

// SetOnDelta installs a hook invoked after every write (Add, AddBatch,
// Remove, Rematerialize) that may have changed the contents of the base
// store or the overlay, with the id triples that entered and left them —
// asserted and inferred changes alike, which is what makes the hook
// sufficient for invalidating caches of query results over the view or
// over either member alone. The lists are conservative supersets:
// maintenance may remove a triple and restore it in the same write (DRed
// overdelete/rederive), and a provenance flip (asserting a currently
// inferred triple) leaves the view unchanged while moving the triple from
// the overlay to the base — such triples appear in both lists; their union
// always covers every triple whose membership in either member may have
// changed. Rematerialize reports the unknown-extent change as two nil
// lists — receivers must treat that as "anything may have changed". Writes
// that provably change nothing anywhere (re-adding an already asserted
// triple) do not fire the hook.
//
// The hook runs synchronously on the writing goroutine while the reasoner's
// write lock is held: writes are serialized with their notifications, so a
// receiver that processes them in order sees a consistent history, but the
// hook must be fast and must not call any Reasoner method (the lock is not
// reentrant; even Stats would deadlock). The slices are owned by the
// reasoner and only valid for the duration of the call — copy them to keep
// them. SetOnDelta itself takes the write lock and may be called at any
// time; a nil hook (the default) disables notification.
func (r *Reasoner) SetOnDelta(hook func(added, removed []store.IDTriple)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onDelta = hook
}

// notify advances the generation and fires the installed hooks. Callers
// hold r.mu and guarantee the delta is meaningful: either Reset is set with
// all lists nil (the Rematerialize "everything may have changed" signal) or
// at least one list carries a change. The generation is assigned here so
// events always carry a dense chain of generations, whatever mix of write
// paths produced them.
func (r *Reasoner) notify(d Delta) {
	d.Gen = r.gen.Add(1)
	if r.onDelta != nil {
		r.onDelta(d.Added, d.Removed)
	}
	if r.onEvent != nil {
		r.onEvent(d)
	}
}

// flushChunk is how many derived heads the engine buffers before flushing
// them: small enough that a round's buffer stays a few hundred KiB whatever
// the corpus, large enough that the per-flush shard grouping and locking is
// amortized over thousands of heads.
const flushChunk = 1 << 14

// Materialize compiles the rule set, computes its fixpoint over the base
// store's current triples, and returns the maintaining Reasoner. Inferred
// triples go to a fresh overlay (store.NewOverlay) — the base is never
// written — and rules are evaluated entirely at the dictionary-id level.
// The first round is naive (every rule body evaluated once over the base)
// and bulk-built into the still-private overlay; later rounds are
// semi-naive. Rule sets are validated (see Rule.Validate); range
// restriction makes every fixpoint finite, so Materialize always
// terminates.
func Materialize(base *store.Store, rules []Rule) (*Reasoner, error) {
	return materialize(base, rules, flushChunk)
}

// materialize is Materialize with an explicit head-buffer bound, so tests
// can drive deltas many chunks long through tiny corpora.
func materialize(base *store.Store, rules []Rule, chunk int) (*Reasoner, error) {
	if base == nil {
		return nil, fmt.Errorf("reason: Materialize needs a base store")
	}
	compiled, err := compileRules(base, rules)
	if err != nil {
		return nil, err
	}
	overlay := base.NewOverlay()
	// The reasoner maintains base∩overlay = ∅ (inferred triples are exactly
	// the derivable non-asserted ones), which is the view's disjointness
	// contract.
	view, err := store.NewView(base, overlay)
	if err != nil {
		return nil, err
	}
	r := &Reasoner{
		base:    base,
		overlay: overlay,
		view:    view,
		rules:   compiled,
		source:  append([]Rule(nil), rules...),
		chunk:   chunk,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	// The overlay is private and empty until Materialize returns, so the
	// first round's conclusions need not go through the concurrent-safe
	// insert path: collect them, sort and deduplicate, and build the
	// overlay's indexes in one bulk pass — the builder RestoreSorted uses.
	first := r.bulkFirstRound()
	if err := overlay.BuildSorted(first); err != nil {
		return nil, err
	}
	r.stats.Derived += len(first)
	r.mDerived.Add(int64(len(first)))
	r.propagate(first)
	r.materializeNanos.Store(int64(time.Since(start)))
	return r, nil
}

// bulkFirstRound runs the naive first round into a sorted accumulator
// instead of the overlay, returning its conclusions that are not asserted,
// in strict (S, P, O) order. Heads are buffered at most r.chunk at a time;
// each full buffer is filtered against the base and appended to the
// accumulator, which is re-sorted and deduplicated whenever its unsorted
// tail outgrows its sorted prefix — so the accumulator stays within about
// twice the round's distinct conclusions however many duplicate heads the
// round produces, at amortized linear sorting cost.
func (r *Reasoner) bulkFirstRound() []store.IDTriple {
	start := r.roundStart()
	var acc []store.IDTriple
	sorted := 0
	heads := r.heads[:0]
	fold := func() {
		acc = append(acc, r.base.FilterAbsentID(heads)...)
		heads = heads[:0]
		if len(acc)-sorted > max(sorted, r.chunk) {
			acc = store.SortIDTriples(acc)
			sorted = len(acc)
		}
	}
	r.naiveRound(func(h store.IDTriple) bool {
		heads = append(heads, h)
		if len(heads) >= r.chunk {
			fold()
		}
		return true
	})
	fold()
	r.heads = heads[:0]
	acc = store.SortIDTriples(acc)
	r.roundEnd(start)
	return acc
}

// Rematerialize discards the overlay and recomputes the fixpoint from the
// base store's current triples — the escape hatch after direct writes to the
// base behind the reasoner's back. The overlay stays live to readers
// throughout, so unlike Materialize the first round goes through the
// chunked insert path. Incremental statistics are kept.
func (r *Reasoner) Rematerialize() {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	// Collect-then-remove: RemoveID must not run under the iteration's read
	// lock.
	for _, t := range r.overlayTriples() {
		r.overlay.RemoveID(t)
	}
	r.propagate(r.round(r.naiveRound))
	r.materializeNanos.Store(int64(time.Since(start)))
	// The extent of the change is unknowable here (the base was edited
	// behind the reasoner's back); nil lists tell receivers to assume
	// everything may have changed.
	r.notify(Delta{Reset: true})
}

// overlayTriples materializes the overlay's id triples by draining its
// full-scan cursor.
func (r *Reasoner) overlayTriples() []store.IDTriple {
	out := make([]store.IDTriple, 0, r.overlay.Len())
	buf := make([]store.IDTriple, exec.BatchSize)
	for _, pt := range r.overlay.ScanParts(store.IDPattern{}, 1) {
		for done := false; !done; {
			var n int
			n, done = pt.NextBatch(buf) //ontolint:ignore interruptcheck Rematerialize is maintenance with no request to cancel; the drain is bounded by the overlay's size
			out = append(out, buf[:n]...)
		}
		pt.Release()
	}
	return out
}

// View returns the asserted∪inferred union the query layer evaluates over.
func (r *Reasoner) View() *store.View { return r.view }

// Base returns the asserted base store. Route writes through the Reasoner,
// not the base, or the materialization goes stale.
func (r *Reasoner) Base() *store.Store { return r.base }

// Overlay returns the inferred overlay store. Treat it as read-only.
func (r *Reasoner) Overlay() *store.Store { return r.overlay }

// Rules returns the rule set the reasoner was built with.
func (r *Reasoner) Rules() []Rule { return append([]Rule(nil), r.source...) }

// InferredCount returns the number of currently inferred triples (the
// overlay's size).
func (r *Reasoner) InferredCount() int { return r.overlay.Len() }

// Stats returns cumulative engine statistics.
func (r *Reasoner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Provenance reports whether the triple is asserted, inferred, or absent
// (ok false).
func (r *Reasoner) Provenance(t store.Triple) (store.Provenance, bool) {
	return r.view.Provenance(t)
}

// Query evaluates a BGP over the materialized view in Materialized mode: no
// Expand rewriting, entailed triples answered straight off the indexes.
func (r *Reasoner) Query(bgp query.BGP) *query.Solutions {
	return query.Eval(r.view, bgp, query.Materialized())
}

// InstancesFunc streams the distinct subjects annotated with the class in
// the materialized view, stopping early when yield returns false — the
// E5-style class retrieval as a raw serving read: one POS index set per view
// member (View.ForEachSubject), no join machinery, no ontology index, no
// dedup map and no per-subject allocation. The subjects are distinct because
// asserted and inferred triples never overlap. The enumeration order is
// unspecified. This is the read path the materialization exists for;
// EXPERIMENTS.md's E5c table and the root BenchmarkMaterializedVsExpandedQuery
// measure it against the query-time Expand rewrite.
func (r *Reasoner) InstancesFunc(class string, yield func(string) bool) {
	r.view.ForEachSubject(store.TypePredicate, class, yield)
}

// Instances returns the sorted distinct subjects annotated with the class in
// the materialized view: InstancesFunc materialized and sorted, the form the
// equivalence tests compare against query.Instances.
func (r *Reasoner) Instances(class string) []string {
	var out []string
	r.InstancesFunc(class, func(s string) bool {
		out = append(out, s)
		return true
	})
	sort.Strings(out)
	return out
}

// Add asserts a triple into the base and propagates its consequences into
// the overlay, reporting whether the triple was newly asserted. Adding a
// triple that was so far inferred simply flips its provenance (the overlay
// copy is retired; the materialized view is unchanged, so nothing needs to
// propagate). Propagation is semi-naive from the one-triple delta: work is
// proportional to the new consequences, not to the store.
func (r *Reasoner) Add(t store.Triple) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A journal failure (ErrJournal) still applied the triple: maintain
	// the materialization and notify as for any write, then report it.
	added, err := r.base.Add(t)
	if !added {
		return false, err
	}
	idt, ok := r.encode(t)
	if !ok {
		// Add interned the components, so this cannot happen.
		panic("reason: components of an added triple missing from the dictionary")
	}
	if r.overlay.RemoveID(idt) {
		// Previously inferred: the view already contained it and every
		// consequence is already materialized. The flip still moved the
		// triple between the members, so the hook fires with it in both
		// lists (entered the base, left the overlay).
		r.notify(Delta{
			Added:         []store.IDTriple{idt},
			Removed:       []store.IDTriple{idt},
			AssertedAdded: []store.IDTriple{idt},
		})
		return true, err
	}
	derived := r.propagate([]store.IDTriple{idt})
	r.notify(Delta{
		Added:         append(derived, idt),
		AssertedAdded: []store.IDTriple{idt},
	})
	return true, err
}

// AddBatch asserts a batch through the base store's batch path and
// propagates the consequences of the genuinely new triples in one semi-naive
// run, returning how many were newly asserted. Validation is all-or-nothing,
// exactly as store.AddBatch. A journal commit failure (an error wrapping
// store.ErrJournal) leaves the batch applied in memory, so the overlay, the
// generation and the hooks are brought up to date before it is returned —
// readers never see asserted triples whose consequences are missing. Add
// keeps the same contract.
func (r *Reasoner) AddBatch(ts []store.Triple) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fresh := make([]store.Triple, 0, len(ts))
	seen := map[store.Triple]bool{}
	for _, t := range ts {
		if !seen[t] && !r.base.Contains(t) {
			seen[t] = true
			fresh = append(fresh, t)
		}
	}
	added, err := r.base.AddBatch(ts)
	if err != nil && !errors.Is(err, store.ErrJournal) {
		return added, err
	}
	delta := make([]store.IDTriple, 0, len(fresh))
	var flips []store.IDTriple
	for _, t := range fresh {
		idt, ok := r.encode(t)
		if !ok {
			panic("reason: components of a batched triple missing from the dictionary")
		}
		if r.overlay.RemoveID(idt) {
			// Provenance flip: consequences already materialized, but the
			// triple moved between the members — report it in both lists.
			flips = append(flips, idt)
			continue
		}
		delta = append(delta, idt)
	}
	derived := r.propagate(delta)
	if len(delta) > 0 || len(flips) > 0 {
		// The asserted delta is every fresh base insertion — the non-flip
		// batch triples plus the flips — copied before the view-level list
		// is assembled in place over delta's backing array.
		asserted := make([]store.IDTriple, 0, len(delta)+len(flips))
		asserted = append(append(asserted, delta...), flips...)
		r.notify(Delta{
			Added:         append(append(delta, derived...), flips...),
			Removed:       flips,
			AssertedAdded: asserted,
		})
	}
	return added, err
}

// Remove retracts an asserted triple and incrementally maintains the overlay
// by delete-and-rederive, reporting whether the triple was asserted. Inferred
// triples cannot be removed directly — they would immediately be rederived;
// retract the asserted triples supporting them instead.
//
// Maintenance is the classic DRed two-phase pass, never a recomputation:
// first every inferred triple whose derivation may involve the removed one is
// overdeleted (a semi-naive pass over deletion deltas against the old
// materialization), then each overdeleted triple that still has a derivation
// from the surviving facts is put back and its consequences re-propagated.
func (r *Reasoner) Remove(t store.Triple) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.base.Contains(t) {
		return false
	}
	idt, _ := r.encode(t)

	// Phase 1 — overdelete. The removed triple is still visible (the base
	// removal happens after), so body atoms evaluate against the old
	// materialization, as DRed requires. Everything inferred whose
	// derivation may use a deleted triple is marked.
	marked := map[store.IDTriple]bool{}
	var markedList []store.IDTriple
	delta := []store.IDTriple{idt}
	var heads []store.IDTriple
	for len(delta) > 0 {
		heads = heads[:0]
		for i := range r.rules {
			rule := &r.rules[i]
			for di := range rule.body {
				matchDelta(rule, di, delta, r.view, func(h store.IDTriple) bool {
					heads = append(heads, h)
					return true
				})
			}
		}
		var next []store.IDTriple
		for _, h := range heads {
			if !marked[h] && r.overlay.ContainsID(h) {
				marked[h] = true
				markedList = append(markedList, h)
				next = append(next, h)
			}
		}
		delta = next
	}

	r.base.Remove(t)
	for _, m := range markedList {
		r.overlay.RemoveID(m)
	}
	r.stats.Overdeleted += len(markedList)

	// Phase 2 — rederive. The removed triple itself is a candidate: if the
	// surviving facts still derive it, it comes back as inferred. Each
	// candidate with a one-step derivation from the current view is
	// restored, and the restorations are propagated like insertions, which
	// re-derives any remaining overdeleted triple that is still entailed.
	candidates := append(markedList, idt)
	var restored []store.IDTriple
	for _, c := range candidates {
		if r.base.ContainsID(c) || r.overlay.ContainsID(c) {
			continue
		}
		for i := range r.rules {
			if derives(&r.rules[i], c, r.view) {
				if _, err := r.overlay.AddID(c); err != nil {
					panic(err) // ids came from this dictionary
				}
				restored = append(restored, c)
				break
			}
		}
	}
	r.stats.Rederived += len(restored)
	r.stats.Derived += len(restored)
	derived := r.propagate(restored)
	r.notify(Delta{
		Added:           append(restored, derived...),
		Removed:         append(markedList, idt),
		AssertedRemoved: []store.IDTriple{idt},
	})
	return true
}

// SnapshotBase writes the asserted base store's snapshot (Store.Snapshot's
// byte-stable sorted format) to w under the reasoner's write lock and
// returns the generation the bytes correspond to: because writes and their
// generation advances are serialized by the same lock, the pair is exactly
// consistent — a replica that restores the snapshot and then applies the
// events with generations above the returned one reconstructs the primary's
// base store precisely. Mutations block for the duration of the write, so
// callers that serve slow consumers should hand in an in-memory buffer and
// stream it out after SnapshotBase returns, as the serving layer's
// /repl/snapshot handler does.
func (r *Reasoner) SnapshotBase(w io.Writer) (gen uint64, n int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, err = r.base.Snapshot(w)
	return r.gen.Load(), n, err
}

// encode resolves a triple to ids without interning.
func (r *Reasoner) encode(t store.Triple) (store.IDTriple, bool) {
	s, okS := r.base.SymbolID(t.Subject)
	p, okP := r.base.SymbolID(t.Predicate)
	o, okO := r.base.SymbolID(t.Object)
	return store.IDTriple{S: s, P: p, O: o}, okS && okP && okO
}

// propagate runs semi-naive rounds from the seed delta until no rule derives
// anything new: each round restricts one body atom to the previous round's
// delta (every choice of atom, so no derivation using a new fact is missed)
// and probes the remaining atoms against the full materialized view, which
// already includes earlier rounds' conclusions — each such term one batched
// operator pipeline (see matchDelta), so a round's joins run batch-at-a-time
// over the delta with shard-grouped probes. It returns every triple newly
// derived into the overlay, for the delta hook. Callers hold r.mu.
//
// Heads are flushed into the overlay (see round) whenever the buffer fills,
// which can happen while a pipeline of the same round is still live. That is
// safe: heads arrive from a pipeline's output batches between Next calls,
// when no shard lock is held and no operator keeps a cursor into the
// overlay (joins buffer each probe batch's matches, and the delta leaf reads
// its own slice, never the overlay); and a flushed head a later probe
// happens to see is a sound conclusion, whose own consequences are derived
// either in this round or, since it is fresh, from the next round's delta.
func (r *Reasoner) propagate(delta []store.IDTriple) []store.IDTriple {
	if len(delta) > 0 {
		r.mDeltaSize.Observe(float64(len(delta)))
	}
	var derived []store.IDTriple
	for len(delta) > 0 {
		cur := delta
		delta = r.round(func(emit func(store.IDTriple) bool) {
			for i := range r.rules {
				rule := &r.rules[i]
				for di := range rule.body {
					matchDelta(rule, di, cur, r.view, emit)
				}
			}
		})
		derived = append(derived, delta...)
	}
	return derived
}

// round runs one fixpoint round: eval enumerates the round's heads, which
// are buffered at most r.chunk at a time and flushed through one batched
// path — filtered against the base under one read lock per shard, then
// inserted into the overlay with AddIDBatch, whose fresh subset (the heads
// neither asserted nor already inferred) accumulates into the round's
// result, the next delta. Callers hold r.mu.
func (r *Reasoner) round(eval func(emit func(store.IDTriple) bool)) []store.IDTriple {
	start := r.roundStart()
	var next []store.IDTriple
	heads := r.heads[:0]
	flush := func() {
		fresh, err := r.overlay.AddIDBatch(r.base.FilterAbsentID(heads))
		if err != nil {
			panic(err) // ids came from this dictionary
		}
		next = append(next, fresh...)
		heads = heads[:0]
	}
	eval(func(h store.IDTriple) bool {
		heads = append(heads, h)
		if len(heads) >= r.chunk {
			flush()
		}
		return true
	})
	flush()
	r.heads = heads[:0]
	r.stats.Derived += len(next)
	r.mDerived.Add(int64(len(next)))
	r.roundEnd(start)
	return next
}

// roundStart counts a round and starts its clock (zero when unobserved).
func (r *Reasoner) roundStart() time.Time {
	r.stats.Rounds++
	r.mRounds.Inc()
	if r.mRoundSeconds != nil {
		return time.Now()
	}
	return time.Time{}
}

// roundEnd records a round's latency when observed.
func (r *Reasoner) roundEnd(start time.Time) {
	if r.mRoundSeconds != nil {
		r.mRoundSeconds.Since(start)
	}
}

// naiveRound evaluates every rule body exactly once over the asserted base,
// emitting each instantiated head — the first round of a full
// materialization. When the seed delta is the whole base and the overlay is
// empty, the semi-naive terms of a k-atom body ("atom i ranges over the
// delta, the rest over the view") all enumerate the same joins, so one
// evaluation per rule replaces k. Each body starts from the atom the base
// matches least often (a scan leaf over the base's indexes) and probes the
// rest against the base: the view holds nothing else yet, and heads flushed
// into the overlay mid-round (Rematerialize) are picked up by the next
// round's delta instead.
func (r *Reasoner) naiveRound(emit func(store.IDTriple) bool) {
	for i := range r.rules {
		rule := &r.rules[i]
		lead, best := 0, -1
		for ai, a := range rule.body {
			if n := r.base.CountID(a.idPattern()); best < 0 || n < best {
				lead, best = ai, n
			}
		}
		leaf := exec.NewScan(r.base, rule.body[lead].execPattern(), nil, rule.nvars)
		matchFrom(rule, lead, leaf, r.base, emit)
	}
}
