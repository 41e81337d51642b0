package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the store's materialization surface: shared-dictionary overlay
// stores and the View that unions a base (asserted) store with an overlay of
// inferred triples. The forward-chaining engine in repro/internal/reason
// derives entailed triples into an overlay returned by NewOverlay, so the two
// stores mint ids from one symbol table and the whole derivation runs at the
// dictionary-id level; a View presents their union to the query layer with
// every triple tagged by Provenance.

// Provenance distinguishes how a triple entered a materialized view: asserted
// directly into the base store, or inferred into the overlay by a reasoner.
type Provenance uint8

// Provenance values.
const (
	// ProvAsserted marks a triple present in the base store.
	ProvAsserted Provenance = iota
	// ProvInferred marks a triple present only in the inferred overlay.
	ProvInferred
)

// String names the provenance the way tagged snapshots spell it.
func (p Provenance) String() string {
	if p == ProvInferred {
		return "inferred"
	}
	return "asserted"
}

// NewOverlay returns a fresh empty store sharing s's symbol table: an id
// minted by either store resolves to the same name in both, so id-level
// triples and patterns can move between them without re-encoding. The overlay
// is an ordinary Store in every other respect — same indexes, same locking,
// same iterators — and package reason uses one to hold inferred triples apart
// from the asserted base.
func (s *Store) NewOverlay() *Store {
	return &Store{syms: s.syms}
}

// SharesDictionary reports whether o interns through the same symbol table as
// s (i.e. o was created by NewOverlay on s or on a store sharing s's
// dictionary), which is what makes their SymbolIDs interchangeable.
func (s *Store) SharesDictionary(o *Store) bool {
	return o != nil && s.syms == o.syms
}

// Intern interns a name into the store's dictionary and returns its id,
// minting a fresh id on first sight. Unlike SymbolID it never fails on an
// unseen name; it exists so a rule compiler can resolve head literals that no
// asserted triple mentions yet. Interning alone adds no triple. The empty
// string is rejected: no valid triple component is empty, so an empty name
// could never be matched or stored.
func (s *Store) Intern(name string) (SymbolID, error) {
	if name == "" {
		return 0, fmt.Errorf("store: cannot intern an empty name")
	}
	if id, ok := s.syms.lookup(name); ok {
		return id, nil
	}
	s.syms.mu.Lock()
	defer s.syms.mu.Unlock()
	before := len(s.syms.names)
	id := s.syms.internLocked(name)
	s.syms.journalGrowthLocked(before)
	return id, nil
}

// ContainsID reports whether the id triple is present. It is the id-level
// twin of Contains: three ids that were never interned simply match nothing.
func (s *Store) ContainsID(t IDTriple) bool {
	sh := s.spo.shard(t.S)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.containsLocked(t.S, t.P, t.O)
}

// validID reports whether every component id has actually been minted by the
// store's dictionary.
func (s *Store) validID(t IDTriple) bool {
	n := SymbolID(len(s.syms.snapshot()))
	return t.S < n && t.P < n && t.O < n
}

// AddID inserts a dictionary-encoded triple, reporting whether it was newly
// inserted. All three ids must have been minted by the store's dictionary
// (an overlay sharing the dictionary qualifies); unknown ids are rejected
// with an error, since they name nothing. It is the id-level twin of Add —
// the materialization engine derives triples as ids and stores them without
// ever resolving a string.
func (s *Store) AddID(t IDTriple) (bool, error) {
	if !s.validID(t) {
		return false, fmt.Errorf("store: AddID: triple %v has an id the dictionary never minted", t)
	}
	l := s.lockTriple(t)
	added := l.spo.insertLocked(t.S, t.P, t.O)
	if added {
		l.pos.insertLocked(t.P, t.O, t.S)
		l.osp.insertLocked(t.O, t.S, t.P)
	}
	l.unlock()
	if added {
		s.size.Add(1)
		if j := s.getJournal(); j != nil {
			j.JournalAdd([]IDTriple{t})
			if err := commitJournal(j); err != nil {
				return true, err
			}
		}
	}
	return added, nil
}

// RemoveID deletes a dictionary-encoded triple, reporting whether it was
// present. Unknown ids simply match nothing. It is the id-level twin of
// Remove, used by the overdeletion pass of incremental maintenance.
func (s *Store) RemoveID(t IDTriple) bool {
	if !s.validID(t) {
		return false
	}
	l := s.lockTriple(t)
	removed := l.spo.removeLocked(t.S, t.P, t.O)
	if removed {
		l.pos.removeLocked(t.P, t.O, t.S)
		l.osp.removeLocked(t.O, t.S, t.P)
	}
	l.unlock()
	if removed {
		s.size.Add(-1)
		if j := s.getJournal(); j != nil {
			j.JournalRemove(t)
			_ = commitJournal(j) // sticky in the journal; no error slot here
		}
	}
	return removed
}

// View is the read-only union of a base store (asserted triples) and an
// overlay store (inferred triples) sharing one dictionary. It satisfies the
// query layer's Source interface, so BGPs evaluate over the materialized
// union exactly as over a single store. Every read relies on the
// disjointness contract of NewView: counts are sums of the members' counts,
// and iterators read the base, then the overlay, with no duplicate probe.
//
// A View holds no locks of its own: each probe reads the two stores under
// their own shard read-locks, so, like Store's iterators, a result set is
// only guaranteed consistent against quiescent members.
type View struct {
	base    *Store
	overlay *Store
}

// NewView returns the union view of base and overlay. The two stores must
// share a dictionary (see NewOverlay); ids from one would be meaningless in
// the other otherwise.
//
// Disjointness contract: the caller keeps base∩overlay = ∅ — the invariant
// package reason maintains (inferred triples are exactly the derivable
// non-asserted ones). The view does not check it: Len, CountID and StatsID
// sum the members' own figures, and the iterators skip any per-triple
// duplicate probe. If the contract is transiently violated (e.g.
// mid-maintenance, between a base insert and the matching overlay
// retirement), reads overlapping that window may see the affected triple
// twice and counts may double-count it; quiescent views are exact.
func NewView(base, overlay *Store) (*View, error) {
	if base == nil || overlay == nil {
		return nil, fmt.Errorf("store: NewView needs both a base and an overlay store")
	}
	if !base.SharesDictionary(overlay) {
		return nil, fmt.Errorf("store: view members do not share a dictionary; create the overlay with NewOverlay")
	}
	return &View{base: base, overlay: overlay}, nil
}

// Base returns the asserted member of the view.
func (v *View) Base() *Store { return v.base }

// Overlay returns the inferred member of the view.
func (v *View) Overlay() *Store { return v.overlay }

// Len returns the number of triples visible through the view: the sum of
// the members' counters.
func (v *View) Len() int {
	return v.base.Len() + v.overlay.Len()
}

// SymbolID returns the dictionary id of a name (the dictionary is shared, so
// it answers for both members).
func (v *View) SymbolID(name string) (SymbolID, bool) {
	return v.base.SymbolID(name)
}

// NewResolver returns a resolver over the shared dictionary.
func (v *View) NewResolver() Resolver {
	return v.base.NewResolver()
}

// Contains reports whether the triple is visible through the view.
func (v *View) Contains(t Triple) bool {
	return v.base.Contains(t) || v.overlay.Contains(t)
}

// Provenance reports how the triple entered the view: ProvAsserted when it is
// in the base store (even if an overlay copy shadows it), ProvInferred when it
// is only in the overlay; ok is false when the view does not contain it.
func (v *View) Provenance(t Triple) (Provenance, bool) {
	if v.base.Contains(t) {
		return ProvAsserted, true
	}
	if v.overlay.Contains(t) {
		return ProvInferred, true
	}
	return ProvAsserted, false
}

// CountID returns the number of union triples matching the id pattern: the
// sum of the members' counts.
func (v *View) CountID(p IDPattern) int {
	return v.base.CountID(p) + v.overlay.CountID(p)
}

// StatsID returns cardinality statistics for the id pattern over the union.
// Counts are exact; the distinct widths are the sums of the two members'
// widths — an upper bound when a value occurs on both sides — which is
// accurate enough for the planner's selectivity ordering.
func (v *View) StatsID(p IDPattern) IDStats {
	bs, os := v.base.StatsID(p), v.overlay.StatsID(p)
	return IDStats{
		Count:     bs.Count + os.Count,
		DistinctS: bs.DistinctS + os.DistinctS,
		DistinctP: bs.DistinctP + os.DistinctP,
		DistinctO: bs.DistinctO + os.DistinctO,
	}
}

// Triples returns every triple visible through the view in the store's
// canonical sorted export order.
func (v *View) Triples() []Triple {
	return sortedTriples(v.base.syms, v.ScanParts(IDPattern{}, 1), make([]Triple, 0, v.Len()))
}

// ForEachSubject streams the subjects of union triples with the given
// predicate and object, stopping early when yield returns false — the
// materialized-retrieval hot path: one POS set read per member, no join
// machinery, no per-subject allocation. The order is unspecified; the same
// no-writes-from-yield rule as Store.ForEachSubject applies.
func (v *View) ForEachSubject(predicate, object string, yield func(string) bool) {
	if pid, oid, ok := v.base.subjectIDs(predicate, object); ok {
		res := newResolver(v.base.syms)
		if v.base.eachSubject(pid, oid, res, yield) {
			v.overlay.eachSubject(pid, oid, res, yield)
		}
	}
}

// TaggedTriple is one triple of a materialized view together with its
// provenance; it is the record type of provenance-tagged snapshots.
type TaggedTriple struct {
	Subject    string
	Predicate  string
	Object     string
	Provenance string
}

// SnapshotProvenance writes every distinct triple of the view to w, one JSON
// object per line in the canonical sorted order of Triples, each tagged
// "asserted" or "inferred" — the provenance-preserving export. Two views
// holding the same tagged triples produce byte-identical output. It returns
// the number of triples written.
func (v *View) SnapshotProvenance(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	triples := v.Triples()
	for _, t := range triples {
		prov := ProvInferred
		if v.base.Contains(t) {
			prov = ProvAsserted
		}
		if err := enc.Encode(TaggedTriple{t.Subject, t.Predicate, t.Object, prov.String()}); err != nil {
			return 0, fmt.Errorf("store: encoding tagged snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("store: flushing tagged snapshot: %w", err)
	}
	return len(triples), nil
}

// Snapshot writes every distinct triple of the view to w in the plain
// snapshot format of Store.Snapshot (no provenance tags), so a materialized
// union can be re-read by Restore like any store snapshot. It returns the
// number of triples written.
func (v *View) Snapshot(w io.Writer) (int, error) {
	return writeSnapshot(w, v.Triples(), "view snapshot")
}
