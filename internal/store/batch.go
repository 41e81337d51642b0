package store

import "fmt"

// AddBatch inserts a batch of triples, returning how many were newly
// inserted (duplicates, within the batch or against the store, are counted
// once). Validation is all-or-nothing: the batch is checked up front and if
// any triple has an empty component an error identifying its position is
// returned and nothing at all is inserted. A successful AddBatch therefore
// inserted every valid new triple, and a failed one inserted none — there are
// no partial counts to misread.
//
// The fast path over per-triple Add: all strings of the batch are interned
// under one symbol-table lock, and each index shard is then locked at most
// once per family pass instead of once per triple. See the package
// documentation for what concurrent readers may observe while a batch is in
// flight.
//
// With a journal attached (SetJournal) the batch is acknowledged durable
// before returning: the freshly inserted triples are journaled and the call
// blocks in JournalCommit. A commit failure is returned wrapping ErrJournal —
// the batch is applied in memory but not durable.
func (s *Store) AddBatch(ts []Triple) (int, error) {
	for i, t := range ts {
		if !t.valid() {
			return 0, fmt.Errorf("store: batch triple %d %v has an empty component; batch not inserted", i, t)
		}
	}
	if len(ts) == 0 {
		return 0, nil
	}
	enc := s.syms.internBatch(ts, make([]IDTriple, 0, len(ts)))
	fresh := s.insertBatch(enc)
	if j := s.getJournal(); j != nil && len(fresh) > 0 {
		j.JournalAdd(fresh)
		if err := commitJournal(j); err != nil {
			return len(fresh), err
		}
	}
	return len(fresh), nil
}

// insertBatch applies an encoded batch to the three index families and the
// size counter, returning the triples that were actually absent (the batch's
// fresh subset, in new storage; enc is only read). It is the shared body of
// AddBatch and AddIDBatch. Each family pass groups the batch by shard once
// (a counting sort into one scratch slice) and locks every touched shard
// once.
func (s *Store) insertBatch(enc []IDTriple) []IDTriple {
	// Pass 1 — SPO, the arbiter of newness: keep only the triples that were
	// actually absent, compacting them to the front of the grouped copy (the
	// write position never passes the read position).
	grouped := make([]IDTriple, len(enc))
	bounds := shardGroup(grouped, enc, rotSPO)
	fresh := grouped[:0]
	for i := range s.spo {
		part := grouped[bounds[i]:bounds[i+1]]
		if len(part) == 0 {
			continue
		}
		sh := &s.spo[i]
		sh.mu.Lock()
		sh.reserve(len(part))
		for _, e := range part {
			if sh.insertLocked(e.S, e.P, e.O) {
				fresh = append(fresh, e)
			}
		}
		sh.mu.Unlock()
	}
	// Passes 2 and 3 — POS and OSP for the fresh triples only.
	scratch := make([]IDTriple, len(fresh))
	s.pos.insertGrouped(scratch, fresh, rotPOS)
	s.osp.insertGrouped(scratch, fresh, rotOSP)
	s.size.Add(int64(len(fresh)))
	return fresh
}

// insertGrouped inserts ts into the family, rotated into its frame, locking
// each touched shard once. scratch (len(ts) long) holds the shard-grouped
// copy.
func (f *indexFamily) insertGrouped(scratch, ts []IDTriple, rot rotation) {
	bounds := shardGroup(scratch, ts, rot)
	for i := range f {
		part := scratch[bounds[i]:bounds[i+1]]
		if len(part) == 0 {
			continue
		}
		sh := &f[i]
		sh.mu.Lock()
		if rot != rotPOS {
			// POS leads are predicates — a handful per batch — so sizing
			// its maps by the batch would over-allocate.
			sh.reserve(len(part))
		}
		for _, e := range part {
			r := rotate(e, rot)
			sh.insertLocked(r.S, r.P, r.O)
		}
		sh.mu.Unlock()
	}
}

// FilterAbsentID compacts ts in place to the triples neither member of the
// view holds and returns that prefix, in unspecified order. The batch is
// partitioned by SPO shard once, in place (no scratch allocation), and each
// shard's part is probed against the base and then the overlay, each under
// that member shard's read lock alone — instead of one lock round trip per
// triple, as repeated ContainsID calls would take. The materialization
// engine filters every chunk of derived heads through it, so heads already
// in the view never reach the overlay's write-locked insert path.
func (v *View) FilterAbsentID(ts []IDTriple) []IDTriple {
	var bounds [numShards + 1]int
	for _, t := range ts {
		bounds[shardOf(t.S)+1]++
	}
	for i := 0; i < numShards; i++ {
		bounds[i+1] += bounds[i]
	}
	// Cycle each misplaced triple into its shard's region (an in-place
	// counting sort): next[b] is the first slot of region b not yet known
	// to hold a shard-b triple.
	next := bounds
	for b := 0; b < numShards; b++ {
		for next[b] < bounds[b+1] {
			t := ts[next[b]]
			for d := shardOf(t.S); d != uint32(b); d = shardOf(t.S) {
				t, ts[next[d]] = ts[next[d]], t
				next[d]++
			}
			ts[next[b]] = t
			next[b]++
		}
	}
	// Compact the absent triples to the front; every write position stays
	// at or before the read position, so the in-place appends never
	// overwrite an unread triple.
	out := ts[:0]
	for i := 0; i < numShards; i++ {
		part := ts[bounds[i]:bounds[i+1]]
		for _, m := range [2]*Store{v.base, v.overlay} {
			if len(part) == 0 {
				break
			}
			sh := &m.spo[i]
			kept := part[:0]
			sh.mu.RLock()
			for _, t := range part {
				if !sh.containsLocked(t.S, t.P, t.O) {
					kept = append(kept, t)
				}
			}
			sh.mu.RUnlock()
			part = kept
		}
		out = append(out, part...)
	}
	return out
}

// shardGroup copies ts into dst (len(dst) == len(ts)) grouped by the shard
// of each triple's leading component in the rot frame — a stable counting
// sort — and returns the group boundaries: shard i's triples are
// dst[bounds[i]:bounds[i+1]], still in their original (unrotated) form.
func shardGroup(dst, ts []IDTriple, rot rotation) (bounds [numShards + 1]int) {
	for _, t := range ts {
		bounds[shardOf(rotate(t, rot).S)+1]++
	}
	for i := 0; i < numShards; i++ {
		bounds[i+1] += bounds[i]
	}
	next := bounds
	for _, t := range ts {
		sh := shardOf(rotate(t, rot).S)
		dst[next[sh]] = t
		next[sh]++
	}
	return bounds
}
