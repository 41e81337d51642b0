package store

import "sync"

// This file is the store's batched read surface: the hooks the vectorized
// operator runtime in repro/internal/query/exec pulls triples through, and
// the one way anything in the store walks a pattern's matches. A ScanPart is
// a resumable cursor that fills caller-provided slices under one shard
// read-lock per refill, and QueryIDBatch answers a whole batch of same-shape
// probes while visiting each index shard at most once. The amortization is
// the point: a tuple-at-a-time join pays a lock round trip and a callback per
// probe, a batched one pays them per thousand triples. The string-level
// helpers (Query, QueryFunc, Triples, ForEachSubject, Subjects) are thin
// wrappers that drain a cursor.

// Index families a ScanPart can walk, in the lead/mid/trail vocabulary of
// shard.go: famSPO has subjects leading, famPOS predicates, famOSP objects.
const (
	famSPO = iota
	famPOS
	famOSP
)

// tripleOf reassembles an IDTriple from a family's (lead, mid, trail)
// coordinates.
func tripleOf(fam uint8, lead, mid, trail uint32) IDTriple {
	switch fam {
	case famPOS:
		return IDTriple{S: trail, P: lead, O: mid}
	case famOSP:
		return IDTriple{S: mid, P: trail, O: lead}
	default:
		return IDTriple{S: lead, P: mid, O: trail}
	}
}

// leadOf returns the pattern component that leads in the family.
func leadOf(p IDPattern, fam uint8) uint32 {
	switch fam {
	case famPOS:
		return p.P
	case famOSP:
		return p.O
	default:
		return p.S
	}
}

// Cursor shapes: which index levels a ScanPart binds.
const (
	shapeAll       = iota // nothing bound: every SPO shard, lead by lead
	shapeLead             // the lead only: every (mid, trail) of one entry
	shapeLeadTrail        // lead and trail (S ? O): one membership test per mid
	shapeLeadMid          // lead and mid: one trailing set
	shapePoint            // all three: one membership test
)

// ScanPart is a resumable cursor over the triples of one store matching a
// pattern. Obtain cursors with ScanParts and drain each by calling NextBatch
// until it reports done; a cursor must not be shared between goroutines.
//
// Like every store iterator, a cursor overlapping concurrent writers is
// well-formed but not snapshot-consistent: a triple inserted or removed while
// the scan is between refills may be seen or missed (or, when a swap-delete
// moves an unseen element behind the cursor's position, seen twice), and
// results are only guaranteed exact against quiescent stores. NextBatch never
// blocks writers for longer than one refill.
type ScanPart struct {
	owner *Store
	fam   uint8
	shape uint8
	lead  uint32
	mid   uint32
	trail uint32

	// Cursor state. A refill resumes at entry midPos of the current lead
	// and position trailPos in that entry's trailing element slice —
	// trailing sets keep their members in an indexable slice whatever their
	// size, so a refill stops exactly at the batch boundary and resumes by
	// position (re-clamped each refill, since the entry may have mutated in
	// between). A full scan also walks shard by shard, over a snapshot of
	// the current shard's lead entries taken under its first refill's lock.
	midPos    int
	trailPos  int
	shard     int
	leads     []leadRef
	haveLeads bool
	leadPos   int
	done      bool
}

// leadRef is one lead entry of a full scan's shard snapshot. An entry
// deleted after the snapshot is empty, so a stale reference yields nothing.
type leadRef struct {
	lead uint32
	e    *leadEntry
}

// NextBatch fills out with the cursor's next triples, returning how many were
// written and whether the cursor is exhausted (done true means no further
// call will produce anything). A refill holds one shard read-lock, released
// before NextBatch returns, so the caller may write to the store between
// calls.
func (pt *ScanPart) NextBatch(out []IDTriple) (int, bool) {
	if pt.done || len(out) == 0 {
		return 0, pt.done
	}
	var n int
	if pt.shape == shapeAll {
		n = pt.fillAll(out)
	} else {
		n = pt.fillLead(out)
	}
	return n, pt.done
}

// fillAll advances a full scan: SPO shards in order, each shard's lead
// entries snapshotted on entering it.
func (pt *ScanPart) fillAll(out []IDTriple) int {
	n := 0
	for pt.shard < numShards && n < len(out) {
		sh := &pt.owner.spo[pt.shard]
		sh.mu.RLock()
		if !pt.haveLeads {
			pt.haveLeads = true
			for k, e := range sh.m {
				//ontolint:ignore maporder ScanPart enumeration order is documented unspecified; sorted forms sort after materializing
				pt.leads = append(pt.leads, leadRef{k, e})
			}
		}
		for pt.leadPos < len(pt.leads) && n < len(out) {
			ref := pt.leads[pt.leadPos]
			var finished bool
			if n, finished = pt.fillEntry(out, n, ref.lead, ref.e); !finished {
				break
			}
			pt.leadPos++
			pt.midPos, pt.trailPos = 0, 0
		}
		finished := pt.leadPos >= len(pt.leads)
		sh.mu.RUnlock()
		if finished {
			pt.shard++
			pt.leadPos = 0
			pt.haveLeads = false
			clear(pt.leads) // drop the entry pointers before reusing the buffer
			pt.leads = pt.leads[:0]
		}
	}
	if pt.shard >= numShards {
		pt.done = true
	}
	return n
}

// fillEntry writes lead's (mid, trail) pairs from the cursor's position on,
// reporting whether the entry is finished (false means out filled first).
// Callers hold the entry's shard read-lock.
func (pt *ScanPart) fillEntry(out []IDTriple, n int, lead uint32, e *leadEntry) (int, bool) {
	for pt.midPos < len(e.entries) {
		mt := &e.entries[pt.midPos]
		if pt.shape == shapeLeadTrail {
			if n == len(out) {
				return n, false
			}
			if mt.trail.contains(pt.trail) {
				out[n] = tripleOf(pt.fam, lead, mt.mid, pt.trail)
				n++
			}
			pt.midPos++
			continue
		}
		n = pt.fillElems(out, n, lead, mt.mid, mt.trail.elems)
		if pt.trailPos < len(mt.trail.elems) {
			return n, false
		}
		pt.midPos++
		pt.trailPos = 0
	}
	return n, true
}

// fillElems writes one triple per trailing element from trailPos on, until
// out is full: a direct loop over the element slice with the family dispatch
// hoisted out of it, because this is where every scan spends its time.
func (pt *ScanPart) fillElems(out []IDTriple, n int, lead, mid uint32, elems []uint32) int {
	i := min(pt.trailPos, len(elems))
	k := min(len(elems)-i, len(out)-n)
	src, dst := elems[i:i+k], out[n:n+k]
	switch pt.fam {
	case famPOS:
		for j, v := range src {
			dst[j] = IDTriple{S: v, P: lead, O: mid}
		}
	case famOSP:
		for j, v := range src {
			dst[j] = IDTriple{S: mid, P: v, O: lead}
		}
	default:
		for j, v := range src {
			dst[j] = IDTriple{S: lead, P: mid, O: v}
		}
	}
	pt.trailPos = i + k
	return n + k
}

// family returns the store's index family fam.
func (s *Store) family(fam uint8) *indexFamily {
	switch fam {
	case famPOS:
		return &s.pos
	case famOSP:
		return &s.osp
	default:
		return &s.spo
	}
}

// fillLead advances a cursor with a bound lead. The lead entry is looked up
// afresh under each refill's read-lock, since it may have mutated in between.
func (pt *ScanPart) fillLead(out []IDTriple) int {
	sh := pt.owner.family(pt.fam).shard(pt.lead)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.m[pt.lead]
	if e == nil {
		pt.done = true
		return 0
	}
	n := 0
	switch pt.shape {
	case shapePoint:
		if set := e.find(pt.mid); set != nil && set.contains(pt.trail) {
			out[0] = tripleOf(pt.fam, pt.lead, pt.mid, pt.trail)
			n = 1
		}
		pt.done = true
	case shapeLeadMid:
		set := e.find(pt.mid)
		if set == nil {
			pt.done = true
			return 0
		}
		n = pt.fillElems(out, 0, pt.lead, pt.mid, set.elems)
		pt.done = pt.trailPos >= len(set.elems)
	default:
		n, pt.done = pt.fillEntry(out, 0, pt.lead, e)
	}
	return n
}

// partPool recycles ScanPart cursors (with their lead snapshot buffers) so
// steady-state scans allocate nothing per cursor.
var partPool = sync.Pool{New: func() any { return new(ScanPart) }}

// maxPooledLeads bounds the lead snapshot a released cursor may park in the
// pool, so one scan over a pathological shard does not pin its peak
// footprint forever.
const maxPooledLeads = 1 << 15

// Release returns an exhausted or abandoned cursor to the pool; the caller
// must not touch it afterwards. Releasing is optional — an unreleased cursor
// is garbage-collected like anything else — but the batched evaluator
// releases every cursor it drains so scan-heavy serving reuses their
// snapshot buffers instead of reallocating them per query.
func (pt *ScanPart) Release() {
	leads := pt.leads
	clear(leads)
	if cap(leads) > maxPooledLeads {
		leads = nil
	}
	*pt = ScanPart{leads: leads[:0]}
	partPool.Put(pt)
}

// openScan draws a pooled cursor over the pattern's matches, picking the
// permutation family by the pattern's bound components: a bound subject
// leads in SPO, else a bound predicate in POS, else a bound object in OSP.
func (s *Store) openScan(p IDPattern) *ScanPart {
	pt := partPool.Get().(*ScanPart)
	pt.owner = s
	switch {
	case p.BoundS && p.BoundP && p.BoundO:
		pt.fam, pt.shape, pt.lead, pt.mid, pt.trail = famSPO, shapePoint, p.S, p.P, p.O
	case p.BoundS && p.BoundP:
		pt.fam, pt.shape, pt.lead, pt.mid = famSPO, shapeLeadMid, p.S, p.P
	case p.BoundP && p.BoundO:
		pt.fam, pt.shape, pt.lead, pt.mid = famPOS, shapeLeadMid, p.P, p.O
	case p.BoundS && p.BoundO:
		pt.fam, pt.shape, pt.lead, pt.trail = famSPO, shapeLeadTrail, p.S, p.O
	case p.BoundS:
		pt.fam, pt.shape, pt.lead = famSPO, shapeLead, p.S
	case p.BoundP:
		pt.fam, pt.shape, pt.lead = famPOS, shapeLead, p.P
	case p.BoundO:
		pt.fam, pt.shape, pt.lead = famOSP, shapeLead, p.O
	default:
		pt.fam, pt.shape = famSPO, shapeAll
	}
	return pt
}

// ScanParts returns the cursors that together cover the pattern's matches:
// for a Store exactly one. The max argument is unused; it remains so callers
// written against the View's two-cursor form need no change.
func (s *Store) ScanParts(p IDPattern, max int) []*ScanPart {
	return []*ScanPart{s.openScan(p)}
}

// ScanParts is the View form of Store.ScanParts: a cursor over the base's
// matches followed by one over the overlay's. Under the view's disjointness
// contract (see NewView) the two cover each union triple exactly once. The
// max argument is unused, as for Store.ScanParts.
func (v *View) ScanParts(p IDPattern, max int) []*ScanPart {
	return []*ScanPart{v.base.openScan(p), v.overlay.openScan(p)}
}

// drainBatch is drain's refill size: large enough that the per-refill lock
// and entry lookup vanish per triple.
const drainBatch = 1024

// drainPool recycles drain's refill buffer: handing it to a callback would
// otherwise move it to the heap on every call.
var drainPool = sync.Pool{New: func() any { return new([drainBatch]IDTriple) }}

// drain hands the cursors' triples to yield one refill at a time, in order,
// stopping early when yield returns false, and releases every cursor. yield
// runs outside any shard lock; its slice is valid only until it returns.
func drain(parts []*ScanPart, yield func([]IDTriple) bool) {
	buf := drainPool.Get().(*[drainBatch]IDTriple)
	defer drainPool.Put(buf)
	stopped := false
	for _, pt := range parts {
		for !stopped {
			n, done := pt.NextBatch(buf[:])
			stopped = n > 0 && !yield(buf[:n])
			if done {
				break
			}
		}
		pt.Release()
	}
}

// orderPool recycles the probe-ordering scratch QueryIDBatch uses for its
// counting sort, so steady-state batched joins allocate nothing per batch
// (array pointers, not slices, so Put does not box a header).
var orderPool = sync.Pool{New: func() any { return new([batchOrderSize]int32) }}

// batchOrderSize is the largest probe batch the pooled scratch covers; the
// rare larger batch allocates its own.
const batchOrderSize = 1024

// QueryIDBatch streams the matches of a batch of probe patterns to yield,
// each tagged with the index of the pattern it answers, stopping early when
// yield returns false. All patterns of one call must share the same bound
// shape (the same Bound flags — the form a batched join produces, where every
// probe of a batch binds the same components); the batch is grouped by index
// shard and each shard is locked once for all its probes, instead of once per
// probe. Matches arrive grouped by shard, not in pattern order. yield runs
// under a shard read-lock and must not write to the store.
func (s *Store) QueryIDBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	if len(ps) == 0 {
		return
	}
	shape := ps[0]
	if !shape.BoundS && !shape.BoundP && !shape.BoundO {
		// Unbound probes (a cartesian stage): no lead to group by; fall back
		// to one full scan per pattern.
		for i := range ps {
			stopped := false
			drain(s.ScanParts(ps[i], 1), func(ts []IDTriple) bool {
				for _, t := range ts {
					if stopped = !yield(i, t); stopped {
						break
					}
				}
				return !stopped
			})
			if stopped {
				return
			}
		}
		return
	}
	// The two most common join shapes — (S P ?) answering objects and
	// (? P O) answering subjects, the forms a join's bound lead plus one
	// more bound component produces — run fully specialized loops: map
	// lookup, entry find and element walk are all inlined with no per-probe
	// dispatch, because this is the innermost loop of every batched join.
	// Everything else goes through the general per-probe dispatch.
	switch {
	case shape.BoundS && shape.BoundP && !shape.BoundO:
		s.batchProbeSP(ps, yield)
	case shape.BoundP && shape.BoundO && !shape.BoundS:
		s.batchProbePO(ps, yield)
	default:
		fam := uint8(famOSP)
		switch {
		case shape.BoundS:
			fam = famSPO
		case shape.BoundP:
			fam = famPOS
		}
		order, counts, pooled := groupByShard(ps, fam)
		defer putOrder(pooled)
		fams := s.family(fam)
		for shIdx := 0; shIdx < numShards; shIdx++ {
			lo, hi := counts[shIdx], counts[shIdx+1]
			if lo == hi {
				continue
			}
			sh := &fams[shIdx]
			sh.mu.RLock()
			for _, pi := range order[lo:hi] {
				if !probeShardLocked(sh, ps[pi], int(pi), yield) {
					sh.mu.RUnlock()
					return
				}
			}
			sh.mu.RUnlock()
		}
	}
}

// groupByShard counting-sorts the probe indexes by the shard of their lead
// component in the family: one pass to size the buckets, one to place, so
// each shard is visited exactly once. The scratch comes from a pool; hand
// pooled to putOrder when done with the order slice.
func groupByShard(ps []IDPattern, fam uint8) (order []int32, counts [numShards + 1]int32, pooled *[batchOrderSize]int32) {
	for i := range ps {
		counts[shardOf(leadOf(ps[i], fam))+1]++
	}
	for i := 0; i < numShards; i++ {
		counts[i+1] += counts[i]
	}
	if len(ps) <= batchOrderSize {
		pooled = orderPool.Get().(*[batchOrderSize]int32)
		order = pooled[:len(ps)]
	} else {
		order = make([]int32, len(ps))
	}
	var next [numShards]int32
	for i := range ps {
		sh := shardOf(leadOf(ps[i], fam))
		order[counts[sh]+next[sh]] = int32(i)
		next[sh]++
	}
	return order, counts, pooled
}

// putOrder returns groupByShard's pooled scratch, if it drew one.
func putOrder(pooled *[batchOrderSize]int32) {
	if pooled != nil {
		orderPool.Put(pooled)
	}
}

// batchProbeSP answers a batch of (S P ?) probes: SPO family, objects out.
func (s *Store) batchProbeSP(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	order, counts, pooled := groupByShard(ps, famSPO)
	defer putOrder(pooled)
	for shIdx := 0; shIdx < numShards; shIdx++ {
		lo, hi := counts[shIdx], counts[shIdx+1]
		if lo == hi {
			continue
		}
		sh := &s.spo[shIdx]
		sh.mu.RLock()
		for _, pi := range order[lo:hi] {
			p := ps[pi]
			e := sh.m[p.S]
			if e == nil {
				continue
			}
			set := e.find(p.P)
			if set == nil {
				continue
			}
			for _, v := range set.elems {
				if !yield(int(pi), IDTriple{S: p.S, P: p.P, O: v}) {
					sh.mu.RUnlock()
					return
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// batchProbePO answers a batch of (? P O) probes: POS family, subjects out.
func (s *Store) batchProbePO(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	order, counts, pooled := groupByShard(ps, famPOS)
	defer putOrder(pooled)
	for shIdx := 0; shIdx < numShards; shIdx++ {
		lo, hi := counts[shIdx], counts[shIdx+1]
		if lo == hi {
			continue
		}
		sh := &s.pos[shIdx]
		sh.mu.RLock()
		for _, pi := range order[lo:hi] {
			p := ps[pi]
			e := sh.m[p.P]
			if e == nil {
				continue
			}
			set := e.find(p.O)
			if set == nil {
				continue
			}
			for _, v := range set.elems {
				if !yield(int(pi), IDTriple{S: v, P: p.P, O: p.O}) {
					sh.mu.RUnlock()
					return
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// probeShardLocked answers one probe from its (already read-locked) shard,
// reporting false when yield stopped the enumeration. The branch structure
// mirrors openScan's family dispatch, minus the locking; trailing sets
// are walked with explicit loops over the adaptive representation rather
// than forEach closures — this is the innermost loop of every batched join,
// and a closure per probe is exactly the per-binding cost batching exists
// to remove.
func probeShardLocked(sh *shard, p IDPattern, pi int, yield func(int, IDTriple) bool) bool {
	switch {
	case p.BoundS:
		e := sh.m[p.S]
		if e == nil {
			return true
		}
		if p.BoundP {
			set := e.find(p.P)
			if set == nil {
				return true
			}
			if p.BoundO {
				if set.contains(p.O) {
					return yield(pi, IDTriple{S: p.S, P: p.P, O: p.O})
				}
				return true
			}
			return emitSet(set, pi, yield, famSPO, p.S, p.P)
		}
		for i := range e.entries {
			mt := &e.entries[i]
			if p.BoundO {
				if mt.trail.contains(p.O) && !yield(pi, IDTriple{S: p.S, P: mt.mid, O: p.O}) {
					return false
				}
				continue
			}
			if !emitSet(&mt.trail, pi, yield, famSPO, p.S, mt.mid) {
				return false
			}
		}
		return true
	case p.BoundP:
		e := sh.m[p.P]
		if e == nil {
			return true
		}
		if p.BoundO {
			set := e.find(p.O)
			if set == nil {
				return true
			}
			return emitSet(set, pi, yield, famPOS, p.P, p.O)
		}
		for i := range e.entries {
			mt := &e.entries[i]
			if !emitSet(&mt.trail, pi, yield, famPOS, p.P, mt.mid) {
				return false
			}
		}
		return true
	default: // BoundO
		e := sh.m[p.O]
		if e == nil {
			return true
		}
		for i := range e.entries {
			mt := &e.entries[i]
			if !emitSet(&mt.trail, pi, yield, famOSP, p.O, mt.mid) {
				return false
			}
		}
		return true
	}
}

// emitSet yields one triple per member of a trailing set, reassembled from
// the family's (lead, mid, trail) coordinates, as a direct loop over the
// set's element slice (no per-set closure).
func emitSet(set *idSet, pi int, yield func(int, IDTriple) bool, fam uint8, lead, mid uint32) bool {
	for _, v := range set.elems {
		if !yield(pi, tripleOf(fam, lead, mid, v)) {
			return false
		}
	}
	return true
}

// QueryIDBatch is the View form of Store.QueryIDBatch: each probe answers
// from the base, then from the overlay. The same same-shape and
// no-writes-from-yield rules apply.
func (v *View) QueryIDBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	stopped := false
	v.base.QueryIDBatch(ps, func(pi int, t IDTriple) bool {
		stopped = !yield(pi, t)
		return !stopped
	})
	if !stopped {
		v.overlay.QueryIDBatch(ps, yield)
	}
}
