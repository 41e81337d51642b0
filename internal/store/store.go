// Package store implements the database-shaped substrate for the paper's §4
// pragmatic argument: an in-memory triple store with subject/predicate/object
// indexes, pattern queries, ontology-aware query expansion over a
// description-logic TBox, and the precision/recall accounting used to measure
// whether a normative ontonomy helps or hinders retrieval as the usage of a
// domain drifts away from it (experiment E5).
//
// The engine is dictionary-encoded and sharded. Every subject, predicate and
// object string is interned into a uint32 id by a symbol table, and the three
// canonical permutation indexes (SPO, POS, OSP) are kept as id-based shard
// families: each family is split numShards ways by a hash of its leading
// component, and each shard has its own RWMutex, so concurrent writers only
// contend when they touch the same shard. Ingest has a batch path (AddBatch)
// that interns the whole batch under one symbol-table lock and visits every
// index shard at most once. Reads have three primitives: the resumable scan
// cursor (ScanParts), the shard-grouped batch probe (QueryIDBatch) and the
// index statistics (StatsID); the string-level reads (Query, QueryFunc,
// Triples, Count) are thin wrappers over them. ForEachSubject and Subjects,
// the materialized class-retrieval hot path, read their POS set directly.
//
// Ordering: every materializing read (Query, Triples, Subjects) returns its
// result in sorted lexicographic order, so results depend only on the
// store's contents — never on ingest order or on how ids happened to fall
// across shards. The streaming forms (QueryFunc, ForEachSubject and the
// cursors) trade that determinism for zero allocation per triple and
// enumerate in unspecified order.
//
// Joins, variables and ontology-aware expansion live one layer up, in
// package repro/internal/query, which evaluates basic graph patterns over
// the id-level hooks in ids.go and scan.go.
//
// Consistency: all methods are safe for concurrent use. Single-triple writes
// (Add, Remove) lock all three affected shards together, so a triple is never
// half-visible across indexes once Add or Remove has returned, and never
// observable in one permutation but not another. AddBatch applies the batch
// index family by index family for speed; while it is in flight a concurrent
// reader may see a batched triple through one access path before another, and
// concurrently Removing a triple that an in-flight batch is inserting is
// unspecified. Once AddBatch returns, its triples are fully visible
// everywhere.
package store

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Triple is one (subject, predicate, object) fact.
type Triple struct {
	Subject   string
	Predicate string
	Object    string
}

// String renders the triple.
func (t Triple) String() string {
	return fmt.Sprintf("(%s %s %s)", t.Subject, t.Predicate, t.Object)
}

// valid reports whether all three components are non-empty.
func (t Triple) valid() bool {
	return t.Subject != "" && t.Predicate != "" && t.Object != ""
}

// less orders triples lexicographically by subject, predicate, object.
func (t Triple) less(u Triple) bool {
	if t.Subject != u.Subject {
		return t.Subject < u.Subject
	}
	if t.Predicate != u.Predicate {
		return t.Predicate < u.Predicate
	}
	return t.Object < u.Object
}

// Pattern is a triple pattern: empty components are wildcards.
type Pattern struct {
	Subject   string
	Predicate string
	Object    string
}

// String renders the pattern with ? for wildcards.
func (p Pattern) String() string {
	part := func(s string) string {
		if s == "" {
			return "?"
		}
		return s
	}
	return fmt.Sprintf("(%s %s %s)", part(p.Subject), part(p.Predicate), part(p.Object))
}

// Matches reports whether the triple matches the pattern.
func (p Pattern) Matches(t Triple) bool {
	return (p.Subject == "" || p.Subject == t.Subject) &&
		(p.Predicate == "" || p.Predicate == t.Predicate) &&
		(p.Object == "" || p.Object == t.Object)
}

// Store is an in-memory indexed triple store. The zero value is not ready to
// use; call New. All methods are safe for concurrent use; see the package
// documentation for the exact visibility guarantees of batch ingest.
type Store struct {
	syms *symtab
	size atomic.Int64
	spo  indexFamily // sharded by subject
	pos  indexFamily // sharded by predicate
	osp  indexFamily // sharded by object
	// journal, when non-nil, receives this store's triple mutations and
	// gates their acknowledgment on durability; see SetJournal. Overlays
	// never inherit it. Held as an atomic pointer so a detach at engine
	// close is safe against in-flight mutations; each mutation loads it
	// once (getJournal) and uses that value for both the journaling calls
	// and the commit.
	journal atomic.Pointer[Journal]
}

// New returns an empty store.
func New() *Store {
	return &Store{syms: newSymtab()}
}

// Add inserts a triple, reporting whether it was newly inserted. Triples with
// an empty component are rejected with an error. With a journal attached, a
// newly inserted triple is journaled and committed before returning; a commit
// failure is returned wrapping ErrJournal (the triple is applied in memory).
func (s *Store) Add(t Triple) (bool, error) {
	if !t.valid() {
		return false, fmt.Errorf("store: triple %v has an empty component", t)
	}
	e := s.syms.internTriple(t)
	l := s.lockTriple(e)
	added := l.spo.insertLocked(e.S, e.P, e.O)
	if added {
		l.pos.insertLocked(e.P, e.O, e.S)
		l.osp.insertLocked(e.O, e.S, e.P)
	}
	l.unlock()
	if added {
		s.size.Add(1)
		if j := s.getJournal(); j != nil {
			j.JournalAdd([]IDTriple{e})
			if err := commitJournal(j); err != nil {
				return true, err
			}
		}
	}
	return added, nil
}

// MustAdd is Add panicking on error, for statically known data in tests and
// examples.
func (s *Store) MustAdd(t Triple) {
	if _, err := s.Add(t); err != nil {
		panic(err)
	}
}

// AddAll inserts all triples in a single batch, returning how many were newly
// inserted. It delegates to AddBatch and shares its all-or-nothing validation
// contract: if any triple has an empty component, an error identifying it is
// returned and no triple of the call is inserted.
func (s *Store) AddAll(ts ...Triple) (int, error) {
	return s.AddBatch(ts)
}

// Remove deletes a triple, reporting whether it was present. With a journal
// attached the removal is journaled and committed before returning; the
// signature has no error slot, so a failed commit is only observable through
// the journal's own sticky-error reporting (the removal stays applied in
// memory either way).
func (s *Store) Remove(t Triple) bool {
	e, ok := s.syms.lookupTriple(t)
	if !ok {
		return false
	}
	l := s.lockTriple(e)
	removed := l.spo.removeLocked(e.S, e.P, e.O)
	if removed {
		l.pos.removeLocked(e.P, e.O, e.S)
		l.osp.removeLocked(e.O, e.S, e.P)
	}
	l.unlock()
	if removed {
		s.size.Add(-1)
		if j := s.getJournal(); j != nil {
			j.JournalRemove(e)
			_ = commitJournal(j) // sticky in the journal; no error slot here
		}
	}
	return removed
}

// Len returns the number of triples in this store. A Store only ever counts
// what was explicitly added to it: when a reasoner (repro/internal/reason)
// materializes entailments, the inferred triples live in a separate overlay
// store, so Len on the asserted base excludes them. Use View.Len for the
// asserted-plus-inferred total of a materialized view.
func (s *Store) Len() int {
	return int(s.size.Load())
}

// NumShards returns the shard count of each permutation index family — the
// range of valid ShardTripleCount arguments.
func (s *Store) NumShards() int { return numShards }

// ShardTripleCount returns the number of triples whose subject hashes to
// SPO shard i — the observability layer's view of write-skew across shards
// (a hot subject shows up as one shard far above the mean). It walks the
// shard's trailing sets under its read lock, so it costs the shard's size
// and briefly blocks writers to that shard; scrape-time use only.
func (s *Store) ShardTripleCount(i int) int {
	if i < 0 || i >= numShards {
		return 0
	}
	sh := &s.spo[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := 0
	for _, e := range sh.m {
		n += e.size()
	}
	return n
}

// Contains reports whether the triple is present.
func (s *Store) Contains(t Triple) bool {
	e, ok := s.syms.lookupTriple(t)
	if !ok {
		return false
	}
	sh := s.spo.shard(e.S)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.containsLocked(e.S, e.P, e.O)
}

// QueryFunc streams every triple matching the pattern to yield, stopping
// early when yield returns false. It drains the pattern's scan cursor (see
// ScanParts), which reads the most selective permutation index for the
// pattern's bound components; the enumeration order is unspecified (use
// Query for the deterministic sorted form). yield runs outside the store's
// locks.
func (s *Store) QueryFunc(p Pattern, yield func(Triple) bool) {
	if ip, ok := s.encodePattern(p); ok {
		eachTriple(s.syms, s.ScanParts(ip, 1), yield)
	}
}

// eachTriple drains the cursors, resolving each triple to its names.
func eachTriple(syms *symtab, parts []*ScanPart, yield func(Triple) bool) {
	res := newResolver(syms)
	drain(parts, func(ts []IDTriple) bool {
		for _, t := range ts {
			if !yield(Triple{res.name(t.S), res.name(t.P), res.name(t.O)}) {
				return false
			}
		}
		return true
	})
}

// sortedTriples drains the cursors, appending to out, and sorts the result
// by subject, then predicate, then object.
func sortedTriples(syms *symtab, parts []*ScanPart, out []Triple) []Triple {
	eachTriple(syms, parts, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Query returns all triples matching the pattern, sorted lexicographically by
// subject, then predicate, then object. That ordering is a contract: two
// stores holding the same triples return identical slices for the same
// pattern, whatever order the triples were ingested in and however they fell
// across shards. Use QueryFunc to stream matches without materializing and
// sorting the result.
func (s *Store) Query(p Pattern) []Triple {
	ip, ok := s.encodePattern(p)
	if !ok {
		return nil
	}
	return sortedTriples(s.syms, s.ScanParts(ip, 1), nil)
}

// Triples returns every triple in the store, sorted lexicographically by
// subject, then predicate, then object — the store's canonical export order.
// Like Query, the result depends only on the store's contents, never on
// ingest order or shard layout; Snapshot is defined in terms of it.
func (s *Store) Triples() []Triple {
	return sortedTriples(s.syms, s.ScanParts(IDPattern{}, 1), make([]Triple, 0, s.Len()))
}

// Count returns the number of triples matching the pattern. It runs entirely
// on the dictionary-encoded indexes — no triple is materialized and no symbol
// is resolved back to a string. Like Len, it counts this store's own triples
// only: inferred triples held in a reasoner's overlay are not included unless
// counted through the overlay or a View (View.CountID is the union form).
func (s *Store) Count(p Pattern) int {
	ip, ok := s.encodePattern(p)
	if !ok {
		return 0
	}
	return s.CountID(ip)
}

// subjectIDs looks up the ids of a (? predicate object) pattern; ok is
// false when either name was never interned (the pattern matches nothing).
func (s *Store) subjectIDs(predicate, object string) (pid, oid SymbolID, ok bool) {
	pid, okP := s.syms.lookup(predicate)
	oid, okO := s.syms.lookup(object)
	return pid, oid, okP && okO
}

// eachSubject yields the resolved members of the POS trailing set of
// (pid, oid), reporting false when yield stopped the enumeration.
func (s *Store) eachSubject(pid, oid SymbolID, res resolver, yield func(string) bool) bool {
	sh := s.pos.shard(pid)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.m[pid]
	if e == nil {
		return true
	}
	set := e.find(oid)
	if set == nil {
		return true
	}
	for _, sid := range set.elems {
		if !yield(res.name(sid)) {
			return false
		}
	}
	return true
}

// ForEachSubject streams the distinct subjects of triples with the given
// predicate and object to yield, stopping early when yield returns false.
// The order is unspecified; allocation per subject is zero. It is the one
// read that walks an index directly instead of draining a scan cursor: it
// is the materialized class-retrieval hot path, and copying every match
// into a triple buffer first cost ~30% on
// BenchmarkMaterializedVsExpandedQuery/materialized. yield runs under a
// shard read-lock and must not write to the store.
func (s *Store) ForEachSubject(predicate, object string, yield func(string) bool) {
	if pid, oid, ok := s.subjectIDs(predicate, object); ok {
		s.eachSubject(pid, oid, newResolver(s.syms), yield)
	}
}

// Subjects returns the distinct subjects of triples with the given predicate
// and object, in sorted order (the same deterministic ordering contract as
// Query: the result depends only on the store's contents). Use ForEachSubject
// to stream them without the materialized slice and the sort.
func (s *Store) Subjects(predicate, object string) []string {
	var out []string
	s.ForEachSubject(predicate, object, func(sub string) bool {
		out = append(out, sub)
		return true
	})
	sort.Strings(out)
	return out
}
