// Package exec is the batched (vectorized) operator runtime under the query
// layer: bindings flow through a tree of pull-based operators as columnar
// batches of dictionary ids instead of one solution at a time. The query
// evaluator (repro/internal/query.Eval) compiles a planned BGP onto this
// tree, and the materialization engine (repro/internal/reason) compiles its
// semi-naive rule bodies onto the same operators, so every layer above the
// store shares one execution engine.
//
// The operator vocabulary is small:
//
//	NewScan      a leaf reading a pattern's matches off a Source, in batches,
//	             by draining the pattern's resumable store cursors in turn
//	NewSliceScan a leaf over an in-memory triple slice — the semi-naive
//	             engine's "one atom ranges over the delta" stage
//	NewSeed      a one-row leaf of pre-bound variables — the rederivation
//	             test's "head variables already known" stage
//	NewJoin      an index-nested-loop join probing batch-at-a-time: the
//	             child's rows become probe patterns, grouped by index shard
//	             so each shard is locked once per batch (QueryIDBatch)
//
// A Batch is columnar — one []store.SymbolID per variable slot — and owned by
// the operator that returned it: it is valid until that operator's next Next
// call, and buffers are reused throughout, so steady-state evaluation
// allocates nothing per binding. Operators tolerate and may produce empty
// batches (N == 0); callers skip them.
package exec

import (
	"errors"
	"sync"

	"repro/internal/store"
)

// BatchSize is the target number of rows per batch: large enough to amortize
// per-batch costs (shard lock round trips, interrupt polls, virtual calls)
// over a thousand bindings, small enough that a batch's columns stay resident
// in cache.
const BatchSize = 1024

// ErrInterrupted is the error an operator tree reports when its Ctx's
// Interrupt hook cancelled the evaluation. repro/internal/query re-exports it
// as query.ErrInterrupted.
var ErrInterrupted = errors.New("query: evaluation interrupted")

// Batch is one columnar batch of variable bindings: Cols[slot][row] is the
// value row binds for the variable occupying slot. Only the slots the
// pipeline has bound so far hold meaningful values; a leaf fills its
// pattern's slots, each join adds its new ones. A Batch is owned by the
// operator that returned it and is valid until that operator's next Next.
type Batch struct {
	// Cols holds one column per variable slot.
	Cols [][]store.SymbolID
	// N is the number of valid rows.
	N int
	// colsArr backs Cols for the common few-slot case, and block is the one
	// pooled allocation the columns slice — one pool round trip per batch
	// instead of one per column.
	colsArr [blockSlots][]store.SymbolID
	block   *[blockSlots * BatchSize]store.SymbolID
}

// The pools below recycle the fixed-size buffers every evaluation needs —
// batch columns, probe batches, triple buffers — across operator trees.
// Evaluating a small query would otherwise pay tens of kilobytes of
// allocate-and-zero per Eval call, dwarfing the query itself; with the pools
// a drained evaluation gives every buffer back and steady-state serving
// allocates almost nothing. The pools hold pointers to fixed-size arrays,
// not slices: putting a slice into a sync.Pool boxes its header onto the
// heap, which would put an allocation right back on the per-batch path the
// pools exist to clear. Operators release their buffers when their stream
// ends (exhaustion or error); an abandoned iterator simply leaves them to
// the garbage collector.
// blockSlots is how many columns a pooled batch block carries; batches with
// more variable slots (rare, deep BGPs) fall back to per-column pooling.
const blockSlots = 8

var (
	blockPool = sync.Pool{New: func() any { return new([blockSlots * BatchSize]store.SymbolID) }}
	colPool   = sync.Pool{New: func() any { return new([BatchSize]store.SymbolID) }}
	probePool = sync.Pool{New: func() any { return new([BatchSize]store.IDPattern) }}
	tripPool  = sync.Pool{New: func() any { return new([BatchSize]store.IDTriple) }}
	rowPool   = sync.Pool{New: func() any { return new([BatchSize]int32) }}
	batchPool = sync.Pool{New: func() any { return new(Batch) }}
	scanPool  = sync.Pool{New: func() any { return new(scan) }}
	joinPool  = sync.Pool{New: func() any { return new(join) }}
)

// maxPooledCap bounds what grown buffers go back to the pools: a
// pathological fan-out would otherwise pin its peak footprint forever.
const maxPooledCap = 1 << 16

// newBatch builds a batch with nslots pooled columns of BatchSize capacity.
// The Batch struct itself is pooled too: release hands it back, and the next
// evaluation's newBatch reuses it. That is safe because a released batch is
// only ever reachable through an operator whose stream has ended, and every
// consumer (the Solutions adapter, parent joins) stops touching batches the
// moment a stream ends.
func newBatch(nslots int) *Batch {
	b := batchPool.Get().(*Batch)
	*b = Batch{}
	if nslots <= blockSlots {
		b.block = blockPool.Get().(*[blockSlots * BatchSize]store.SymbolID)
		poolGets.Add(2) // batch + block
		for i := 0; i < nslots; i++ {
			b.colsArr[i] = b.block[i*BatchSize : (i+1)*BatchSize : (i+1)*BatchSize]
		}
		b.Cols = b.colsArr[:nslots]
		return b
	}
	poolGets.Add(1 + int64(nslots)) // batch + one column each
	b.Cols = make([][]store.SymbolID, nslots)
	for i := range b.Cols {
		b.Cols[i] = colPool.Get().(*[BatchSize]store.SymbolID)[:]
	}
	return b
}

// release returns the batch's columns to the pool. The caller must not touch
// the batch afterwards.
func (b *Batch) release() {
	if b.block != nil {
		blockPool.Put(b.block)
		poolPuts.Add(1)
	} else {
		for i := range b.Cols {
			if c := b.Cols[i]; c != nil && cap(c) >= BatchSize {
				colPool.Put((*[BatchSize]store.SymbolID)(c[:BatchSize]))
				poolPuts.Add(1)
			}
		}
	}
	*b = Batch{}
	batchPool.Put(b)
	poolPuts.Add(1)
}

// takeTrips pops a pooled triple buffer of length BatchSize.
func takeTrips() []store.IDTriple {
	poolGets.Add(1)
	return tripPool.Get().(*[BatchSize]store.IDTriple)[:]
}

// putTrips returns a triple buffer to the pool (first BatchSize entries of a
// grown buffer; callers bound what they hand back with maxPooledCap).
func putTrips(buf []store.IDTriple) {
	if cap(buf) >= BatchSize {
		tripPool.Put((*[BatchSize]store.IDTriple)(buf[:BatchSize]))
		poolPuts.Add(1)
	}
}

// Ctx carries the per-evaluation state every operator of one tree shares:
// the cancellation hook and its polling throttle. The zero value (no hook)
// is an uncancellable evaluation.
type Ctx struct {
	// Interrupt is polled periodically; once it returns true the evaluation
	// stops and the tree reports ErrInterrupted. Nil means uncancellable.
	Interrupt func() bool
	ticks     uint
}

// tickMask throttles the Interrupt hook to one poll per tickMask+1 steps.
const tickMask = 255

// Cancelled polls the Interrupt hook, throttled; exported so the Solutions
// adapter in package query can share the tree's poll budget between batches.
func (c *Ctx) Cancelled() bool {
	if c.Interrupt == nil {
		return false
	}
	if c.ticks++; c.ticks&tickMask != 0 {
		return false
	}
	return c.Interrupt()
}

// Source is the batched id-level read surface operators evaluate over,
// satisfied by both *store.Store and *store.View: resumable scan cursors for
// leaves and shard-grouped batch probes for joins.
type Source interface {
	// ScanParts returns the cursors covering a pattern's matches, drained
	// in order (see store.ScanParts).
	ScanParts(p store.IDPattern, max int) []*store.ScanPart
	// QueryIDBatch answers a batch of same-shape probes, each match tagged
	// with its probe's index (see store.QueryIDBatch).
	QueryIDBatch(ps []store.IDPattern, yield func(pi int, t store.IDTriple) bool)
}

// Term is one component of an operator pattern: a literal id, or a variable
// identified by its slot index in the tree's batches.
type Term struct {
	// Slot is the variable's column index, when IsVar.
	Slot int
	// ID is the literal's dictionary id, when !IsVar.
	ID store.SymbolID
	// IsVar distinguishes the two.
	IsVar bool
}

// Lit builds a literal term.
func Lit(id store.SymbolID) Term { return Term{ID: id} }

// Var builds a variable term for the given slot.
func Var(slot int) Term { return Term{Slot: slot, IsVar: true} }

// Pattern is one triple pattern over slots: subject, predicate, object.
type Pattern [3]Term

// Op is one operator of the tree. Next returns the operator's next batch —
// owned by the operator, valid until its next Next call — or (nil, nil) when
// the stream is exhausted, or an error (ErrInterrupted is the only one
// operators produce). A returned batch may have N == 0; callers skip those
// and pull again.
type Op interface {
	Next(ctx *Ctx) (*Batch, error)
}

// Close releases an operator tree's pooled buffers without draining it —
// for callers that stop early by design (the rederivation test abandons its
// pipeline at the first surviving row). It must only be called on a tree
// whose stream has NOT ended: once Next has returned nil or an error every
// operator has already released itself, and a second release would poison
// the pools. Closing is optional — an abandoned tree is garbage-collected
// like anything else — but hot abandon-early paths reclaim their buffers
// with it.
func Close(op Op) {
	for op != nil {
		switch t := op.(type) {
		case *join:
			child := t.child
			t.close()
			op = child
		case *scan:
			t.close()
			op = nil
		case *sliceScan:
			t.close()
			op = nil
		case *seed:
			if t.out != nil {
				t.out.release()
				t.out = nil
			}
			op = nil
		default:
			op = nil
		}
	}
}

// rowPlan is the compiled shape shared by every operator that turns matched
// triples into batch rows: which triple positions write which slots, and
// which positions must agree because they name the same (newly bound)
// variable twice.
type rowPlan struct {
	// outSlot[i] is the slot position i writes, or -1 when position i is a
	// literal, probe-bound, or a repeat of an earlier position.
	outSlot [3]int
	// eq lists (i, j) pairs of positions that must hold equal ids: a slot's
	// second and later occurrences within one pattern.
	eq [][2]int
}

// planRow compiles the row plan of a pattern given which slots the input
// already binds (nil for a leaf: nothing bound yet).
func planRow(pat Pattern, boundBefore []bool) rowPlan {
	rp := rowPlan{outSlot: [3]int{-1, -1, -1}}
	for i, t := range pat {
		if !t.IsVar {
			continue
		}
		if boundBefore != nil && boundBefore[t.Slot] {
			continue // probe-bound: the store already guaranteed equality
		}
		first := -1
		for j := 0; j < i; j++ {
			if pat[j].IsVar && pat[j].Slot == t.Slot && (boundBefore == nil || !boundBefore[pat[j].Slot]) {
				first = j
				break
			}
		}
		if first >= 0 {
			rp.eq = append(rp.eq, [2]int{first, i})
			continue
		}
		rp.outSlot[i] = t.Slot
	}
	return rp
}

// admit applies the plan's equality filters to one triple.
func (rp *rowPlan) admit(t store.IDTriple) bool {
	vals := [3]store.SymbolID{t.S, t.P, t.O}
	for _, pair := range rp.eq {
		if vals[pair[0]] != vals[pair[1]] {
			return false
		}
	}
	return true
}

// write writes one admitted triple's new bindings into row r of b.
func (rp *rowPlan) write(b *Batch, r int, t store.IDTriple) {
	vals := [3]store.SymbolID{t.S, t.P, t.O}
	for i, slot := range rp.outSlot {
		if slot >= 0 {
			b.Cols[slot][r] = vals[i]
		}
	}
}

// idPattern builds the literal template of a pattern: literals become bound
// components, variables wildcards.
func idPattern(pat Pattern) store.IDPattern {
	var ip store.IDPattern
	if !pat[0].IsVar {
		ip.S, ip.BoundS = pat[0].ID, true
	}
	if !pat[1].IsVar {
		ip.P, ip.BoundP = pat[1].ID, true
	}
	if !pat[2].IsVar {
		ip.O, ip.BoundO = pat[2].ID, true
	}
	return ip
}

// scan is the leaf operator over a Source: it drains the pattern's cursors
// one after another into a pooled triple buffer and converts each fill into
// a columnar batch.
type scan struct {
	src    Source
	ip     store.IDPattern
	rp     rowPlan
	expand []store.SymbolID // candidate object ids; nil when not expanded

	parts   []*store.ScanPart
	started bool
	candIdx int

	out      *Batch
	tbuf     []store.IDTriple
	done     bool
	released bool
	stat     *OpStat // span statistics, when instrumented (see stats.go)
}

// close releases the scan's pooled buffers — and the scan itself — once its
// stream has ended. A closed operator must not be used again; the Solutions
// adapter and the join's child handling both stop at the first nil/error.
func (s *scan) close() {
	if s.released {
		return
	}
	s.released = true
	s.out.release()
	for _, pt := range s.parts {
		pt.Release()
	}
	s.parts = nil
	if s.tbuf != nil {
		putTrips(s.tbuf)
		s.tbuf = nil
	}
	scanPool.Put(s)
	poolPuts.Add(1)
}

// NewScan builds a leaf scanning the pattern's matches off src. nslots sizes
// the batches (the total variable count of the tree); expand, when non-nil,
// replaces the object position with each candidate id in turn (the query
// layer's ontology expansion).
func NewScan(src Source, pat Pattern, expand []store.SymbolID, nslots int) Op {
	poolGets.Add(1)
	s := scanPool.Get().(*scan)
	*s = scan{
		src:    src,
		ip:     idPattern(pat),
		rp:     planRow(pat, nil),
		expand: expand,
		out:    newBatch(nslots),
	}
	if expand != nil {
		s.ip.BoundO = true
	}
	return s
}

// Next pulls the scan's next batch, accounting the pull when instrumented.
// The stat pointer and clock are captured before the inner call: the scan
// struct is pooled and may be recycled the moment next ends its stream, so
// nothing touches s afterwards.
func (s *scan) Next(ctx *Ctx) (*Batch, error) {
	st := s.stat
	if st == nil {
		return s.next(ctx)
	}
	start := nanotime()
	b, err := s.next(ctx)
	st.Nanos += nanotime() - start
	if b != nil {
		st.Batches++
		st.Rows += int64(b.N)
	}
	return b, err
}

// next is the uninstrumented pull: it refills from the first live cursor,
// moving to the next cursor (and then the next expansion candidate) as each
// is exhausted.
func (s *scan) next(ctx *Ctx) (*Batch, error) {
	if s.done {
		return nil, nil
	}
	if !s.started {
		s.started = true
		s.tbuf = takeTrips()
		s.openParts()
	}
	for {
		if ctx.Cancelled() {
			s.done = true
			s.close()
			return nil, ErrInterrupted
		}
		if len(s.parts) == 0 {
			if s.nextCandidate() {
				continue
			}
			s.done = true
			s.close()
			return nil, nil
		}
		n, exhausted := s.parts[0].NextBatch(s.tbuf)
		if exhausted {
			s.parts[0].Release()
			s.parts = s.parts[1:]
		}
		if n == 0 {
			continue
		}
		s.convert(s.tbuf[:n])
		return s.out, nil
	}
}

// openParts opens the cursors for the current candidate (or the plain
// pattern when no expansion is in play).
func (s *scan) openParts() {
	ip := s.ip
	if s.expand != nil {
		ip.O = s.expand[s.candIdx]
	}
	s.parts = s.src.ScanParts(ip, 1)
}

// nextCandidate advances expansion to the next candidate class, reporting
// false when all are exhausted.
func (s *scan) nextCandidate() bool {
	if s.expand == nil || s.candIdx+1 >= len(s.expand) {
		return false
	}
	s.candIdx++
	s.openParts()
	return true
}

// convert turns a triple buffer into the output batch.
func (s *scan) convert(ts []store.IDTriple) {
	r := 0
	for _, t := range ts {
		if !s.rp.admit(t) {
			continue
		}
		s.rp.write(s.out, r, t)
		r++
	}
	s.out.N = r
}

// sliceScan is the leaf over an in-memory triple slice: the delta stage of
// semi-naive evaluation. Literal components filter; variable components
// bind.
type sliceScan struct {
	ts  []store.IDTriple
	lit [3]struct {
		bound bool
		id    store.SymbolID
	}
	rp       rowPlan
	out      *Batch
	pos      int
	done     bool
	released bool
}

// NewSliceScan builds a leaf over ts matching pat, with nslots-column
// batches. The slice is not copied; it must stay unchanged while the tree
// runs.
func NewSliceScan(ts []store.IDTriple, pat Pattern, nslots int) Op {
	ss := &sliceScan{ts: ts, rp: planRow(pat, nil), out: newBatch(nslots)}
	for i, t := range pat {
		if !t.IsVar {
			ss.lit[i].bound = true
			ss.lit[i].id = t.ID
		}
	}
	return ss
}

// close releases the slice scan's pooled columns.
func (ss *sliceScan) close() {
	if !ss.released {
		ss.released = true
		ss.out.release()
	}
}

// Next pulls the slice scan's next batch.
func (ss *sliceScan) Next(ctx *Ctx) (*Batch, error) {
	if ss.done {
		return nil, nil
	}
	if ctx.Cancelled() {
		ss.done = true
		ss.close()
		return nil, ErrInterrupted
	}
	r := 0
	for ss.pos < len(ss.ts) && r < BatchSize {
		t := ss.ts[ss.pos]
		ss.pos++
		vals := [3]store.SymbolID{t.S, t.P, t.O}
		ok := true
		for i := range ss.lit {
			if ss.lit[i].bound && ss.lit[i].id != vals[i] {
				ok = false
				break
			}
		}
		if !ok || !ss.rp.admit(t) {
			continue
		}
		ss.rp.write(ss.out, r, t)
		r++
	}
	if ss.pos >= len(ss.ts) && r == 0 {
		ss.done = true
		ss.close()
		return nil, nil
	}
	ss.out.N = r
	return ss.out, nil
}

// seed is the one-row leaf: a single binding of pre-set slots, used when an
// evaluation starts from known values (the rederivation test binds a rule's
// head variables before probing its body).
type seed struct {
	out  *Batch
	done bool
}

// NewSeed builds a leaf emitting exactly one row that binds slot i to
// vals[i] for every i with bound[i] set. nslots is the tree's slot count;
// vals and bound are indexed by slot and copied.
func NewSeed(vals []store.SymbolID, bound []bool, nslots int) Op {
	s := &seed{out: newBatch(nslots)}
	for i := 0; i < nslots && i < len(vals); i++ {
		if i < len(bound) && bound[i] {
			s.out.Cols[i][0] = vals[i]
		}
	}
	s.out.N = 1
	return s
}

// Next emits the single seeded row, then exhaustion.
func (s *seed) Next(ctx *Ctx) (*Batch, error) {
	if s.done {
		if s.out != nil {
			s.out.release()
			s.out = nil
		}
		return nil, nil
	}
	s.done = true
	return s.out, nil
}

// join is the batched index-nested-loop join: each child row instantiates
// the pattern into a probe (literals and already-bound slots become bound
// components), the whole batch of probes is answered by one QueryIDBatch
// call (each index shard locked once), and every match emits one output row
// — the child's bound columns copied across plus the pattern's new slots.
type join struct {
	child  Op
	src    Source
	pat    Pattern
	ipBase store.IDPattern
	rp     rowPlan
	expand []store.SymbolID

	// probeSlot[i] is the slot position i reads its probe value from, or -1
	// when the position is a literal (or expansion-bound object).
	probeSlot [3]int
	// copySlots are the slots bound before this join, copied child→out per
	// output row.
	copySlots []int

	out         *Batch
	probes      []store.IDPattern
	matchRows   []int32
	matchTrips  []store.IDTriple
	emitPos     int
	childBatch  *Batch
	done        bool
	interrupted bool
	released    bool
	stat        *OpStat // span statistics, when instrumented (see stats.go)
}

// close releases the join's pooled buffers once its stream has ended.
func (j *join) close() {
	if j.released {
		return
	}
	j.released = true
	j.out.release()
	if j.probes != nil && cap(j.probes) >= BatchSize {
		probePool.Put((*[BatchSize]store.IDPattern)(j.probes[:BatchSize]))
		poolPuts.Add(1)
	}
	j.probes = nil
	if j.matchTrips != nil && cap(j.matchTrips) >= BatchSize && cap(j.matchTrips) <= maxPooledCap {
		putTrips(j.matchTrips)
	}
	j.matchTrips = nil
	if j.matchRows != nil && cap(j.matchRows) >= BatchSize && cap(j.matchRows) <= maxPooledCap {
		rowPool.Put((*[BatchSize]int32)(j.matchRows[:BatchSize]))
		poolPuts.Add(1)
	}
	j.matchRows = nil
	j.child, j.childBatch, j.src = nil, nil, nil
	joinPool.Put(j)
	poolPuts.Add(1)
}

// NewJoin builds a join of child against src on pat. boundBefore flags, per
// slot, the variables the child's batches already bind: those become probe
// components, the rest output columns. nslots sizes the output batches;
// expand, when non-nil, probes each candidate object id in turn.
func NewJoin(child Op, src Source, pat Pattern, expand []store.SymbolID, boundBefore []bool, nslots int) Op {
	poolGets.Add(2) // join + probe buffer
	j := joinPool.Get().(*join)
	*j = join{
		child:     child,
		src:       src,
		pat:       pat,
		ipBase:    idPattern(pat),
		rp:        planRow(pat, boundBefore),
		expand:    expand,
		out:       newBatch(nslots),
		probeSlot: [3]int{-1, -1, -1},
		probes:    probePool.Get().(*[BatchSize]store.IDPattern)[:],
	}
	if expand != nil {
		j.ipBase.BoundO = true
	}
	for i, t := range pat {
		if t.IsVar && boundBefore[t.Slot] {
			j.probeSlot[i] = t.Slot
			switch i {
			case 0:
				j.ipBase.BoundS = true
			case 1:
				j.ipBase.BoundP = true
			case 2:
				j.ipBase.BoundO = true
			}
		}
	}
	for slot, b := range boundBefore {
		if b {
			j.copySlots = append(j.copySlots, slot)
		}
	}
	return j
}

// Next pulls the join's next batch, accounting the pull when instrumented.
// Nanos is inclusive of child pulls; the stat pointer and clock are captured
// before the inner call because the join struct is pooled and may be
// recycled the moment next ends its stream.
func (j *join) Next(ctx *Ctx) (*Batch, error) {
	st := j.stat
	if st == nil {
		return j.next(ctx)
	}
	start := nanotime()
	b, err := j.next(ctx)
	st.Nanos += nanotime() - start
	if b != nil {
		st.Batches++
		st.Rows += int64(b.N)
	}
	return b, err
}

// next is the uninstrumented pull.
func (j *join) next(ctx *Ctx) (*Batch, error) {
	if j.done {
		return nil, nil
	}
	for {
		if j.emitPos < len(j.matchRows) {
			return j.emit(), nil
		}
		if j.interrupted || ctx.Cancelled() {
			j.done = true
			j.close()
			return nil, ErrInterrupted
		}
		cb, err := j.child.Next(ctx)
		if err != nil {
			j.done = true
			j.close()
			return nil, err
		}
		if cb == nil {
			j.done = true
			j.close()
			return nil, nil
		}
		if cb.N == 0 {
			continue
		}
		j.childBatch = cb
		j.collect(ctx, cb)
		if j.interrupted && len(j.matchRows) == 0 {
			j.done = true
			j.close()
			return nil, ErrInterrupted
		}
	}
}

// collect probes one child batch and buffers the matches. Matches are
// buffered rather than emitted from inside the store callback so no output
// work happens under shard read-locks and so the output batch boundary is
// free to fall anywhere.
func (j *join) collect(ctx *Ctx, cb *Batch) {
	if j.matchTrips == nil {
		j.matchTrips = takeTrips()
		j.matchRows = rowPool.Get().(*[BatchSize]int32)[:]
		poolGets.Add(1)
	}
	j.matchRows = j.matchRows[:0]
	j.matchTrips = j.matchTrips[:0]
	j.emitPos = 0
	for r := 0; r < cb.N; r++ {
		p := j.ipBase
		if s := j.probeSlot[0]; s >= 0 {
			p.S = cb.Cols[s][r]
		}
		if s := j.probeSlot[1]; s >= 0 {
			p.P = cb.Cols[s][r]
		}
		if s := j.probeSlot[2]; s >= 0 {
			p.O = cb.Cols[s][r]
		}
		j.probes[r] = p
	}
	yield := func(pi int, t store.IDTriple) bool {
		if ctx.Cancelled() {
			j.interrupted = true
			return false
		}
		if !j.rp.admit(t) {
			return true
		}
		j.matchRows = append(j.matchRows, int32(pi))
		j.matchTrips = append(j.matchTrips, t)
		return true
	}
	if j.expand != nil {
		for _, cand := range j.expand {
			for r := 0; r < cb.N; r++ {
				j.probes[r].O = cand
			}
			if j.stat != nil {
				j.stat.Probes += int64(cb.N)
			}
			j.src.QueryIDBatch(j.probes[:cb.N], yield)
			if j.interrupted {
				return
			}
		}
		return
	}
	if j.stat != nil {
		j.stat.Probes += int64(cb.N)
	}
	j.src.QueryIDBatch(j.probes[:cb.N], yield)
}

// emit converts up to BatchSize buffered matches into the output batch.
func (j *join) emit() *Batch {
	n := len(j.matchRows) - j.emitPos
	if n > BatchSize {
		n = BatchSize
	}
	for k := 0; k < n; k++ {
		row := int(j.matchRows[j.emitPos+k])
		for _, slot := range j.copySlots {
			j.out.Cols[slot][k] = j.childBatch.Cols[slot][row]
		}
		j.rp.write(j.out, k, j.matchTrips[j.emitPos+k])
	}
	j.emitPos += n
	j.out.N = n
	if j.emitPos >= len(j.matchRows) {
		// Shrink pathological fan-out buffers back down so one huge probe
		// does not pin memory for the rest of the evaluation.
		const keep = 1 << 16
		if cap(j.matchTrips) > keep {
			j.matchRows = nil
			j.matchTrips = nil
		}
	}
	return j.out
}
