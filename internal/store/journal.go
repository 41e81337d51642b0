package store

import (
	"errors"
	"fmt"
)

// This file is the store's durability hook: a Journal interface the mutation
// path reports to, at dictionary-id level, so a write-ahead log (package
// repro/internal/durable) can make every acknowledged mutation replayable
// without the store knowing anything about files, fsync or record formats.
//
// The contract between the store and a journal is ordering: dictionary-growth
// notifications are emitted under the symbol-table lock, in id order, so a
// journal that appends them to a log in call order is guaranteed that every
// id is defined before any triple notification references it. Triple
// notifications for concurrent batches may interleave in any order — adds
// commute under set semantics — but a racing Add and Remove of the same
// triple may be journaled in either order (the store documents that race as
// unspecified; callers that need a deterministic log, like the serving
// stack's reasoner, already serialize mutations behind one lock).

// ErrJournal marks a mutation that was applied to the in-memory indexes but
// whose journal commit failed: the triples are visible to readers of this
// process yet are not guaranteed durable. Callers that promise durability
// (the HTTP serving layer) should report such errors as server-side failures,
// not client errors.
var ErrJournal = errors.New("journal commit failed")

// Journal receives the store's mutation stream at dictionary-id level. A
// journal is attached with SetJournal; afterwards every mutating method
// reports what it changed and blocks in JournalCommit until the journal calls
// the change durable. Implementations must be safe for concurrent use — the
// store calls them from every writing goroutine — and may retain the slices
// they are handed (the store never mutates them afterwards).
type Journal interface {
	// JournalDict reports freshly minted dictionary ids: names[i] was
	// assigned id first+i. It is called under the symbol-table lock, so
	// calls arrive in ascending id order and before any JournalAdd or
	// JournalRemove that references the new ids; it must be fast and must
	// not call back into the store.
	JournalDict(first SymbolID, names []string)
	// JournalAdd reports triples newly inserted by one mutation (duplicates
	// already present are excluded). Every component id has been reported by
	// an earlier JournalDict call or belongs to the dictionary state the
	// journal was opened over.
	JournalAdd(batch []IDTriple)
	// JournalRemove reports one removed triple.
	JournalRemove(t IDTriple)
	// JournalCommit blocks until every change this goroutine journaled so
	// far is durable, and returns the journal's sticky error if durability
	// has failed. The store calls it once per acknowledged mutation, after
	// the in-memory apply, so group-committing journals see concurrent
	// mutations pile up and can amortize one fsync across all of them.
	JournalCommit() error
}

// SetJournal attaches a journal to the store's mutation path, or detaches it
// with nil. The journal observes dictionary growth for every store sharing
// this store's symbol table (overlays included — their ids must be defined
// too), and triple changes for this store only, which is what lets a serving
// stack journal the asserted base while the reasoner's derived overlay stays
// ephemeral.
//
// SetJournal is safe to call while mutations are in flight: the field is an
// atomic pointer the mutation path loads once per mutation, so a concurrent
// detach (durable.Engine.Close) is not a data race — a racing mutation either
// journals and commits through the old journal or skips journaling entirely.
// Once attached, a mutation returns only after JournalCommit; if the commit
// fails the mutation is still applied in memory and the error (wrapping
// ErrJournal where the signature allows) tells the caller durability is gone.
// Remove and RemoveID have no error return; their commit failures are only
// visible through the journal's own sticky-error reporting, so durability
// monitors must watch the journal, not the store.
func (s *Store) SetJournal(j Journal) {
	if j == nil {
		s.journal.Store(nil)
	} else {
		s.journal.Store(&j)
	}
	s.syms.setJournal(j)
}

// getJournal loads the attached journal, nil when none is attached. Mutation
// paths call it exactly once per mutation and thread the loaded value through
// to the commit, so a concurrent SetJournal cannot split one mutation across
// two journals.
func (s *Store) getJournal() Journal {
	if p := s.journal.Load(); p != nil {
		return *p
	}
	return nil
}

// DictLen returns the number of names interned in the store's dictionary —
// the exclusive upper bound of every minted SymbolID. A checkpointer pairs it
// with NewResolver to dump the id→name mapping: every id below DictLen
// resolves, and ids minted later refer to names the dump does not need.
func (s *Store) DictLen() int {
	return len(s.syms.snapshot())
}

// commitJournal runs j's commit, wrapping failures in ErrJournal. Callers
// pass the journal they already loaded for this mutation (see getJournal).
func commitJournal(j Journal) error {
	if err := j.JournalCommit(); err != nil {
		return fmt.Errorf("store: mutation applied in memory but not durable: %w: %w", ErrJournal, err)
	}
	return nil
}

// AddIDBatch inserts a batch of dictionary-encoded triples and returns the
// newly inserted ones (duplicates, within the batch or against the store,
// excluded; in unspecified order, in new storage that is read-only — an
// attached journal may retain it; ts itself is left untouched) — the id-level
// twin of AddBatch, used by recovery to bulk-load replayed log records and
// by the materialization engine to insert derived heads without resolving a
// single string. Validation is all-or-nothing exactly as AddBatch: every
// component id must have been minted by the store's dictionary, and if any
// was not, an error identifying the first offending triple is returned and
// nothing is inserted. Like AddBatch it visits each index shard at most once
// per family pass, and shares its in-flight visibility caveats and its
// journal contract (a commit failure returns the fresh triples with an
// error wrapping ErrJournal).
func (s *Store) AddIDBatch(ts []IDTriple) ([]IDTriple, error) {
	n := SymbolID(s.DictLen())
	for i, t := range ts {
		if t.S >= n || t.P >= n || t.O >= n {
			return nil, fmt.Errorf("store: batch id triple %d %v has an id the dictionary never minted; batch not inserted", i, t)
		}
	}
	if len(ts) == 0 {
		return nil, nil
	}
	fresh := s.insertBatch(ts)
	if j := s.getJournal(); j != nil && len(fresh) > 0 {
		j.JournalAdd(fresh)
		if err := commitJournal(j); err != nil {
			return fresh, err
		}
	}
	return fresh, nil
}
