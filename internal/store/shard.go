package store

import "sync"

// The engine keeps the three canonical permutation indexes (SPO, POS, OSP)
// as families of shards. Each family is sharded by a hash of its leading
// component's id, and each shard carries its own RWMutex, so writers touching
// different subjects (or predicates, or objects) proceed in parallel instead
// of serializing behind one store-wide lock.
//
// Inside a shard the two inner levels are adaptive rather than nested maps:
// a lead's middle components live in a small linear-scanned slice that gains
// a map index only past midSpill entries, and each trailing set is a small
// unsorted uint32 slice that spills to a map past setSpill entries. Real
// triple data is extremely skewed — most (subject, predicate) pairs have a
// handful of objects while a few (predicate, object) pairs have thousands of
// subjects — so almost all inserts touch only small pointer-free slices,
// which cost a fraction of a map insert and are invisible to the garbage
// collector.

// numShards is the shard count per index family. A power of two so the shard
// selector is a mask; 16 is enough to spread institution-scale ingest across
// cores without bloating small stores.
const numShards = 16

// midSpill is how many middle components a lead holds before linear scans
// are replaced by a map index; setSpill is how many trailing ids a set holds
// before spilling from a slice to a map.
const (
	midSpill = 8
	setSpill = 32
)

// shardOf maps a leading-component id to its shard. Ids are dense sequential
// integers, so a Fibonacci mix spreads consecutive ids across shards.
func shardOf(id uint32) uint32 {
	return (id * 2654435761) >> 16 & (numShards - 1)
}

// idSet is an adaptive set of ids. Its members always live in the unsorted
// elems slice — enumeration is a contiguous array walk whatever the size,
// which is what the batched scan and probe paths stream from — and past
// setSpill members a value→position map is added so membership tests and
// swap-deletes stay O(1) instead of going linear. The slice-plus-index
// layout costs a little more memory than a bare map once spilled, but every
// read path (scans, probes, batch fills) iterates elems at cache speed
// rather than walking map buckets.
type idSet struct {
	elems []uint32
	idx   map[uint32]int32 // value -> position in elems; nil while small
}

func (s *idSet) add(c uint32) bool {
	if s.idx != nil {
		if _, ok := s.idx[c]; ok {
			return false
		}
		s.idx[c] = int32(len(s.elems))
		s.elems = append(s.elems, c)
		return true
	}
	for _, v := range s.elems {
		if v == c {
			return false
		}
	}
	s.elems = append(s.elems, c)
	if len(s.elems) > setSpill {
		s.idx = make(map[uint32]int32, 2*setSpill)
		for i, v := range s.elems {
			s.idx[v] = int32(i)
		}
	}
	return true
}

func (s *idSet) remove(c uint32) bool {
	if s.idx != nil {
		pos, ok := s.idx[c]
		if !ok {
			return false
		}
		last := len(s.elems) - 1
		moved := s.elems[last]
		s.elems[pos] = moved
		s.elems = s.elems[:last]
		if int(pos) != last {
			s.idx[moved] = pos
		}
		delete(s.idx, c)
		return true
	}
	for i, v := range s.elems {
		if v == c {
			last := len(s.elems) - 1
			s.elems[i] = s.elems[last]
			s.elems = s.elems[:last]
			return true
		}
	}
	return false
}

func (s *idSet) contains(c uint32) bool {
	if s.idx != nil {
		_, ok := s.idx[c]
		return ok
	}
	for _, v := range s.elems {
		if v == c {
			return true
		}
	}
	return false
}

func (s *idSet) len() int {
	return len(s.elems)
}

// midTrail couples one middle component with its trailing set.
type midTrail struct {
	mid   uint32
	trail idSet
}

// leadEntry is everything indexed under one leading component: the list of
// (middle, trailing-set) pairs, linear-scanned while short, map-indexed once
// it outgrows midSpill.
type leadEntry struct {
	entries []midTrail
	idx     map[uint32]int32 // mid -> position in entries; nil while short
}

// find returns the trailing set of mid, or nil. The pointer is valid until
// the next mutation of the entry.
func (e *leadEntry) find(mid uint32) *idSet {
	if e.idx != nil {
		if i, ok := e.idx[mid]; ok {
			return &e.entries[i].trail
		}
		return nil
	}
	for i := range e.entries {
		if e.entries[i].mid == mid {
			return &e.entries[i].trail
		}
	}
	return nil
}

// findOrCreate returns mid's trailing set, appending an empty one (and
// building or maintaining the spill index) on first sight.
func (e *leadEntry) findOrCreate(mid uint32) *idSet {
	if set := e.find(mid); set != nil {
		return set
	}
	e.entries = append(e.entries, midTrail{mid: mid})
	i := len(e.entries) - 1
	if e.idx != nil {
		e.idx[mid] = int32(i)
	} else if len(e.entries) > midSpill {
		e.idx = make(map[uint32]int32, 2*midSpill)
		for j := range e.entries {
			e.idx[e.entries[j].mid] = int32(j)
		}
	}
	return &e.entries[i].trail
}

// removeMid drops mid's (emptied) trailing set by swap-delete, keeping the
// spill index consistent.
func (e *leadEntry) removeMid(mid uint32) {
	pos := -1
	if e.idx != nil {
		i, ok := e.idx[mid]
		if !ok {
			return
		}
		pos = int(i)
	} else {
		for i := range e.entries {
			if e.entries[i].mid == mid {
				pos = i
				break
			}
		}
		if pos < 0 {
			return
		}
	}
	last := len(e.entries) - 1
	e.entries[pos] = e.entries[last]
	e.entries[last] = midTrail{}
	e.entries = e.entries[:last]
	if e.idx != nil {
		delete(e.idx, mid)
		if pos < last {
			e.idx[e.entries[pos].mid] = int32(pos)
		}
	}
}

// size returns the number of triples indexed under the entry: the total
// length of its trailing sets.
func (e *leadEntry) size() int {
	n := 0
	for i := range e.entries {
		n += len(e.entries[i].trail.elems)
	}
	return n
}

// shard is one lock-protected slice of a permutation index, mapping leading
// components to their leadEntry.
type shard struct {
	mu sync.RWMutex
	m  map[uint32]*leadEntry
}

// reserve sizes the lead map for about n upcoming leads; a no-op once the
// map exists. Called by the batch path so the first big ingest does not grow
// the map incrementally.
func (sh *shard) reserve(n int) {
	if sh.m == nil {
		sh.m = make(map[uint32]*leadEntry, n)
	}
}

// insertLocked adds (a, b, c), reporting whether it was absent. Callers hold mu.
func (sh *shard) insertLocked(a, b, c uint32) bool {
	e := sh.m[a]
	if e == nil {
		if sh.m == nil {
			sh.m = make(map[uint32]*leadEntry)
		}
		e = &leadEntry{}
		sh.m[a] = e
	}
	return e.findOrCreate(b).add(c)
}

// removeLocked deletes (a, b, c), reporting whether it was present, and
// prunes emptied levels. Callers hold mu.
func (sh *shard) removeLocked(a, b, c uint32) bool {
	e := sh.m[a]
	if e == nil {
		return false
	}
	set := e.find(b)
	if set == nil || !set.remove(c) {
		return false
	}
	if set.len() == 0 {
		e.removeMid(b)
		if len(e.entries) == 0 {
			delete(sh.m, a)
		}
	}
	return true
}

// containsLocked reports whether (a, b, c) is present. Callers hold mu (read
// or write).
func (sh *shard) containsLocked(a, b, c uint32) bool {
	e := sh.m[a]
	if e == nil {
		return false
	}
	set := e.find(b)
	return set != nil && set.contains(c)
}

// indexFamily is one permutation index: numShards shards addressed by the
// leading component.
type indexFamily [numShards]shard

func (f *indexFamily) shard(lead uint32) *shard {
	return &f[shardOf(lead)]
}

// tripleLocker acquires the three shard locks a single-triple write needs —
// the subject's SPO shard, the predicate's POS shard and the object's OSP
// shard — always in family order (SPO, POS, OSP), so concurrent writers
// cannot deadlock and every Add/Remove updates all three indexes atomically
// with respect to other single-triple writers.
type tripleLocker struct {
	spo, pos, osp *shard
}

func (s *Store) lockTriple(e IDTriple) tripleLocker {
	l := tripleLocker{
		spo: s.spo.shard(e.S),
		pos: s.pos.shard(e.P),
		osp: s.osp.shard(e.O),
	}
	l.spo.mu.Lock() //ontolint:ignore lockcheck held across return by design; the caller releases all three via tripleLocker.unlock
	l.pos.mu.Lock() //ontolint:ignore lockcheck fixed family order (SPO, POS, OSP) makes the nested acquisition deadlock-free
	l.osp.mu.Lock() //ontolint:ignore lockcheck fixed family order (SPO, POS, OSP) makes the nested acquisition deadlock-free
	return l
}

func (l tripleLocker) unlock() {
	l.osp.mu.Unlock()
	l.pos.mu.Unlock()
	l.spo.mu.Unlock()
}
