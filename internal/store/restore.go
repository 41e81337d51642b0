package store

import (
	"fmt"
	"sync"
)

// This file is the bulk-load fast path: RestoreSorted rebuilds an empty store
// from the dictionary and triple set a durable-segment chain recovers, and
// BuildSorted fills an empty store that already has its dictionary — the
// materialization engine's freshly created overlay — without going through
// the mutation path at all. The per-triple path (AddIDBatch → insertBatch)
// exists to be safe against concurrent readers and duplicate inserts; a bulk
// load needs neither — the store is private until the load returns and the
// input carries each triple exactly once, already sorted — so every index
// level is built by direct append: no per-triple lock acquisition, no dedup
// probing, no incremental spill-map growth. Load cost becomes three
// bucket-and-append passes.

// RestoreSorted bulk-loads an empty store from a recovered dictionary and a
// sorted triple set. dict[i] becomes the name of SymbolID i (reproducing the
// interning order a segment chain recorded), and triples must be strictly
// ascending in (S, P, O) order — therefore duplicate-free — with every
// component id below len(dict). The slices are retained; callers must not
// mutate them afterwards.
//
// The store must be empty and journal-free: restore bypasses the mutation
// path, so nothing is journaled (recovery runs before the engine attaches
// its journal) and no locks are relied on for visibility. The caller owns
// the store exclusively until RestoreSorted returns; afterwards it is safe
// for concurrent use as usual.
func (s *Store) RestoreSorted(dict []string, triples []IDTriple) error {
	if s.Len() != 0 || s.DictLen() != 0 {
		return fmt.Errorf("store: RestoreSorted needs an empty store, not %d triples and %d dictionary entries", s.Len(), s.DictLen())
	}
	if err := s.checkBulkLoad(triples, SymbolID(len(dict))); err != nil {
		return err
	}
	if err := s.installDict(dict); err != nil {
		return err
	}
	s.buildIndexes(triples)
	return nil
}

// BuildSorted bulk-loads a store that holds no triples from a strictly
// (S, P, O)-ascending, duplicate-free triple set whose ids the store's
// dictionary has already minted — the index half of RestoreSorted, for a
// store whose dictionary is already in place (an overlay sharing its base's
// symbol table). The materialization engine builds its first round of
// inferred triples this way. The slice is only read (the indexes copy what
// they keep). The same exclusivity contract as RestoreSorted applies: no
// journal, and no concurrent user of the store until BuildSorted returns.
func (s *Store) BuildSorted(triples []IDTriple) error {
	if s.Len() != 0 {
		return fmt.Errorf("store: BuildSorted needs a store without triples, not %d", s.Len())
	}
	if err := s.checkBulkLoad(triples, SymbolID(s.DictLen())); err != nil {
		return err
	}
	s.buildIndexes(triples)
	return nil
}

// checkBulkLoad validates a bulk load's input against a dictionary of n
// names: no journal attached, strict (S, P, O) order, every id below n.
func (s *Store) checkBulkLoad(triples []IDTriple, n SymbolID) error {
	if s.getJournal() != nil {
		return fmt.Errorf("store: a bulk load bypasses the mutation path and would not journal; detach the journal first")
	}
	for i, t := range triples {
		if t.S >= n || t.P >= n || t.O >= n {
			return fmt.Errorf("store: bulk-load triple %d %v references an id outside the %d-name dictionary", i, t, n)
		}
		if i > 0 && !idTripleLess(triples[i-1], t) {
			return fmt.Errorf("store: bulk-load triples not in strict (S, P, O) order at index %d: %v after %v", i, t, triples[i-1])
		}
	}
	return nil
}

// installDict installs dict as the store's whole dictionary, rejecting
// empty and repeated names. Callers have checked the dictionary is empty.
func (s *Store) installDict(dict []string) error {
	// One map operation per name: insert unconditionally and let the final
	// length expose duplicates (a repeated name collapses two inserts into
	// one entry). Probing for the duplicate up front would double the string
	// hashing on the hot path to improve only the error message, so the
	// second pass that names the offender runs only after a failure.
	ids := make(map[string]uint32, len(dict))
	for i, name := range dict {
		if name == "" {
			return fmt.Errorf("store: restore dictionary id %d is the empty string", i)
		}
		ids[name] = uint32(i)
	}
	if len(ids) != len(dict) {
		seen := make(map[string]uint32, len(dict))
		for i, name := range dict {
			if prev, dup := seen[name]; dup {
				return fmt.Errorf("store: restore dictionary repeats %q as ids %d and %d", name, prev, i)
			}
			seen[name] = uint32(i)
		}
	}
	s.syms.mu.Lock()
	s.syms.ids = ids
	s.syms.names = dict
	s.syms.mu.Unlock()
	return nil
}

// buildIndexes builds the three permutation families of an empty store from
// a validated sorted triple set, each family's shards in parallel, and sets
// the size. Bucketing rotates every triple into the family's own (lead, mid,
// trail) frame up front, so the sort and build loops touch plain struct
// fields instead of calling accessor closures per element — on a
// multi-million-triple load those calls are the difference between
// memory-bound and call-bound. The SPO family receives the input ordering
// directly (bucketing is stable, so each bucket stays (lead, mid)-sorted);
// POS and OSP buckets are re-sorted inside the shard's goroutine.
func (s *Store) buildIndexes(triples []IDTriple) {
	var wg sync.WaitGroup
	build := func(fam *indexFamily, rot rotation, presorted bool) {
		buckets := bucketByShard(triples, rot)
		for i := range fam {
			wg.Add(1)
			go func(sh *shard, bucket []IDTriple) {
				defer wg.Done()
				if !presorted {
					radixSortByLeadMid(bucket)
				}
				buildShardSorted(sh, bucket)
			}(&fam[i], buckets[i])
		}
	}
	build(&s.spo, rotSPO, true)
	build(&s.pos, rotPOS, false)
	build(&s.osp, rotOSP, false)
	wg.Wait()
	s.size.Store(int64(len(triples)))
}

// idTripleLess orders id triples by (S, P, O).
func idTripleLess(a, b IDTriple) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
}

// rotation names the component permutation a family's buckets are built in:
// which original component becomes the (lead, mid, trail) = (S, P, O) frame.
type rotation int

const (
	rotSPO rotation = iota // identity: lead S, mid P, trail O
	rotPOS                 // lead P, mid O, trail S
	rotOSP                 // lead O, mid S, trail P
)

// rotate permutes t into the rot frame: the family's (lead, mid, trail)
// land in (S, P, O).
func rotate(t IDTriple, rot rotation) IDTriple {
	switch rot {
	case rotPOS:
		return IDTriple{S: t.P, P: t.O, O: t.S}
	case rotOSP:
		return IDTriple{S: t.O, P: t.S, O: t.P}
	}
	return t
}

// bucketByShard splits ts into numShards slices by the shard of the permuted
// leading component, rotating every triple into the family's frame on the way
// in and preserving relative order. Two counted passes, so every bucket is
// allocated at its exact final size. The rotation is dispatched once per pass
// rather than per element — a closure call per triple here costs more than
// the copy itself.
func bucketByShard(ts []IDTriple, rot rotation) [numShards][]IDTriple {
	var counts [numShards]int
	switch rot {
	case rotSPO:
		for _, t := range ts {
			counts[shardOf(t.S)]++
		}
	case rotPOS:
		for _, t := range ts {
			counts[shardOf(t.P)]++
		}
	case rotOSP:
		for _, t := range ts {
			counts[shardOf(t.O)]++
		}
	}
	var buckets [numShards][]IDTriple
	for i := range buckets {
		buckets[i] = make([]IDTriple, 0, counts[i])
	}
	switch rot {
	case rotSPO:
		for _, t := range ts {
			i := shardOf(t.S)
			buckets[i] = append(buckets[i], t)
		}
	case rotPOS:
		for _, t := range ts {
			i := shardOf(t.P)
			buckets[i] = append(buckets[i], IDTriple{S: t.P, P: t.O, O: t.S})
		}
	case rotOSP:
		for _, t := range ts {
			i := shardOf(t.O)
			buckets[i] = append(buckets[i], IDTriple{S: t.O, P: t.S, O: t.P})
		}
	}
	return buckets
}

// radixSortByLeadMid sorts a permuted bucket by (lead, mid) = (S, P) — an
// LSD byte-radix sort, stable, so runs equal in (lead, mid) keep their input
// order and the trailing sets of a pre-sorted input come out sorted too.
func radixSortByLeadMid(ts []IDTriple) { radixSortIDs(ts, false) }

// SortIDTriples sorts ts in place into strict (S, P, O) order, dropping
// duplicates, and returns the deduplicated prefix — the input form
// BuildSorted and RestoreSorted require. It is the same radix sort the bulk
// loaders run, extended to the trailing component.
func SortIDTriples(ts []IDTriple) []IDTriple {
	radixSortIDs(ts, true)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// radixSortIDs is an LSD byte-radix sort of ts by (S, P), or by (S, P, O)
// when full. Comparison sorting here is the bulk loaders' biggest CPU sink
// (a comparator closure per decision); counting passes replace it with O(n)
// per byte, and passes whose byte is constant across the input (the common
// case for the high bytes of 32-bit ids) are skipped entirely.
func radixSortIDs(ts []IDTriple, full bool) {
	n := len(ts)
	if n < 2 {
		return
	}
	first := 4
	if full {
		first = 0
	}
	src, dst := ts, make([]IDTriple, n)
	// Passes 0-3 take the bytes of O, 4-7 of P, 8-11 of S, least
	// significant first.
	for pass := first; pass < 12; pass++ {
		shift := (pass % 4) * 8
		comp := pass / 4
		digit := func(t IDTriple) byte {
			switch comp {
			case 0:
				return byte(t.O >> shift)
			case 1:
				return byte(t.P >> shift)
			}
			return byte(t.S >> shift)
		}
		var counts [256]int
		for _, t := range src {
			counts[digit(t)]++
		}
		if counts[digit(src[0])] == n {
			continue // every key shares this byte; the pass is a no-op
		}
		sum := 0
		for d := range counts {
			c := counts[d]
			counts[d] = sum
			sum += c
		}
		// The placement loops are specialized per component: a closure
		// call per triple here costs more than the copy itself.
		switch comp {
		case 0:
			for _, t := range src {
				d := byte(t.O >> shift)
				dst[counts[d]] = t
				counts[d]++
			}
		case 1:
			for _, t := range src {
				d := byte(t.P >> shift)
				dst[counts[d]] = t
				counts[d]++
			}
		default:
			for _, t := range src {
				d := byte(t.S >> shift)
				dst[counts[d]] = t
				counts[d]++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}

// buildShardSorted populates one empty shard from its permuted bucket, which
// is sorted by (lead, mid) = (S, P) with the trail in O. Runs sharing a lead
// become one leadEntry, runs sharing (lead, mid) one trailing set, and every
// level is carved out of three arena allocations sized by a counting pass —
// for a family like OSP, whose lead is near-unique, per-entry allocation
// would mean millions of tiny objects for the GC to trace. Each sub-slice
// ends at its own region of the arena (arena[i:j:j+headroom(j-i)-(j-i)]),
// so a later append on a live entry either grows into its headroom or
// reallocates, never clobbering its neighbor. Spill indexes are built once,
// after each level's final size is known, instead of incrementally as the
// mutation path must.
func buildShardSorted(sh *shard, bucket []IDTriple) {
	// The shard is not shared until the bulk load returns, but take the
	// lock anyway: it is one acquisition per shard and keeps the builder
	// honest under the race detector if a caller ever leaks the store early.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Counting pass: the number of leads, and the arena capacity the mid
	// and trail levels need with every run's headroom included.
	leads, midCap, elemCap := 0, 0, 0
	run, mids := 0, 0 // length of the current (lead, mid) run; mids of the current lead
	var prev IDTriple
	for i, t := range bucket {
		if i > 0 && t.S == prev.S && t.P == prev.P {
			run++
			continue
		}
		elemCap += headroom(run)
		run = 1
		if i == 0 || t.S != prev.S {
			leads++
			midCap += headroom(mids)
			mids = 0
		}
		mids++
		prev = t
	}
	elemCap += headroom(run)
	midCap += headroom(mids)
	leadArena := make([]leadEntry, leads)
	midArena := make([]midTrail, midCap)
	elemArena := make([]uint32, elemCap)
	sh.m = make(map[uint32]*leadEntry, leads)
	li, mi, ei := 0, 0, 0
	for i := 0; i < len(bucket); {
		l := bucket[i].S
		j := i
		for j < len(bucket) && bucket[j].S == l {
			j++
		}
		e := &leadArena[li]
		li++
		m0 := mi
		for k := i; k < j; {
			m := bucket[k].P
			k2 := k
			// The run scan already touches each triple; peel the trail
			// column into the element arena on the way past rather than in
			// a separate pass (the run's region is at least its length).
			for k2 < j && bucket[k2].P == m {
				elemArena[ei+k2-k] = bucket[k2].O
				k2++
			}
			n := k2 - k
			set := idSet{elems: elemArena[ei : ei+n : ei+headroom(n)]}
			ei += headroom(n)
			if n > setSpill {
				set.idx = make(map[uint32]int32, n)
				for p, v := range set.elems {
					set.idx[v] = int32(p)
				}
			}
			midArena[mi] = midTrail{mid: m, trail: set}
			mi++
			k = k2
		}
		mids := mi - m0
		e.entries = midArena[m0 : mi : m0+headroom(mids)]
		mi = m0 + headroom(mids)
		if mids > midSpill {
			e.idx = make(map[uint32]int32, mids)
			for p := range e.entries {
				e.idx[e.entries[p].mid] = int32(p)
			}
		}
		sh.m[l] = e
		i = j
	}
}

// headroom is the arena capacity a bulk-built run of n elements gets: a
// quarter more than it holds, so the first appends after a bulk load —
// which, on a freshly materialized overlay, land on the largest runs first
// (a new instance joins every ancestor class's subject set) — grow in place
// instead of copying the whole run. Incrementally built runs carry
// comparable slack from append's doubling.
func headroom(n int) int {
	return n + n/4
}
