package query

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/query/exec"
	"repro/internal/store"
)

// ErrInterrupted is the error a Solutions iterator reports through Err when
// an Interrupt hook cancelled the evaluation before it was exhausted.
// Callers wrapping a context deadline should match it with errors.Is. It is
// the same value as exec.ErrInterrupted — the operator runtime produces it,
// this package re-exports it.
var ErrInterrupted = exec.ErrInterrupted

// Source is the id-level store surface Eval evaluates over, satisfied by
// both *store.Store (a single store) and *store.View (the asserted∪inferred
// union of a materialized store): dictionary lookups and cardinality
// statistics for the planner, plus the batched scan/probe hooks the operator
// runtime (repro/internal/query/exec) executes with. Anything exposing these
// six methods can sit under a BGP.
type Source interface {
	// SymbolID returns the dictionary id of a name; ok is false for names
	// never interned (a pattern bound to one matches nothing).
	SymbolID(name string) (store.SymbolID, bool)
	// QueryIDBatch answers a batch of same-shape probes, grouped by index
	// shard (see store.QueryIDBatch) — the join operators' probe hook.
	QueryIDBatch(ps []store.IDPattern, yield func(pi int, t store.IDTriple) bool)
	// ScanParts returns the resumable cursors covering a pattern's matches
	// (see store.ScanParts) — the leaf operators' scan hook.
	ScanParts(p store.IDPattern, max int) []*store.ScanPart
	// CountID returns the number of triples matching the id pattern.
	CountID(p store.IDPattern) int
	// StatsID returns cardinality statistics for the id pattern.
	StatsID(p store.IDPattern) store.IDStats
	// NewResolver returns a resolver from ids back to names.
	NewResolver() store.Resolver
}

// interruptTickMask mirrors the operator runtime's interrupt-poll throttle
// (exec polls its Ctx hook once every interruptTickMask+1 steps, and the
// Solutions adapter shares that budget); tests use it to bound how many
// solutions a cancelled iteration may still produce.
const interruptTickMask = 255

// config collects Eval's options.
type config struct {
	oi           *store.OntologyIndex
	materialized bool
	interrupt    func() bool
	trace        *Trace
}

// Option configures one Eval call.
type Option func(*config)

// Expand makes type-patterns ontology-aware: every pattern whose predicate is
// the literal store.TypePredicate and whose object is a literal class is
// rewritten into the union of the same pattern over each of the class's
// subsumees (the class itself included), so asking for "roadvehicle" also
// retrieves subjects annotated "car" or "pickup". Patterns whose object is a
// variable are not rewritten — there is no class to expand — and match type
// annotations literally.
func Expand(oi *store.OntologyIndex) Option {
	return func(c *config) { c.oi = oi }
}

// Interrupt installs a cancellation hook on the evaluation: cancelled is
// polled periodically (every few hundred execution steps, so long scans
// cannot run away unobserved) and, once it returns true, the iteration stops
// — Next returns false and Err reports ErrInterrupted. The hook is how a
// server maps a request context's deadline onto an in-flight join:
//
//	sols := query.Eval(src, bgp, query.Interrupt(func() bool {
//		return ctx.Err() != nil
//	}))
//
// cancelled is called from whatever goroutine drives Next (never
// concurrently with itself) and must be cheap and non-blocking; a closure
// over a context or an atomic flag both qualify. A nil hook means the
// evaluation is uncancellable, the zero-cost default.
func Interrupt(cancelled func() bool) Option {
	return func(c *config) { c.interrupt = cancelled }
}

// Materialized marks the source as a materialized store — one whose
// entailments a reasoner (repro/internal/reason) has already derived into the
// triples themselves — and therefore suppresses Expand rewriting: a type
// pattern is evaluated literally, because the subsumee annotations Expand
// would union over are already present as inferred type triples. It takes
// precedence over Expand, so callers can pass both unconditionally and let
// the presence of a reasoner decide (reason's equivalence tests prove the two
// modes return identical answers on the E5 corpus).
func Materialized() Option {
	return func(c *config) { c.materialized = true }
}

// comp is one compiled pattern component: a literal resolved to its
// dictionary id, or a reference into the variable table.
type comp struct {
	isVar  bool
	varIdx int            // variable-table index, when isVar
	id     store.SymbolID // literal id, when !isVar
}

// level is one pattern of the join, in evaluation order: its compiled
// components and its expansion candidates. The planner orders levels; the
// builder then lowers them onto the operator tree.
type level struct {
	comps  [3]comp
	expand []store.SymbolID // expanded object candidates; nil when not expanded
	orig   int              // the pattern's index in the request BGP (trace labeling)
}

// Solutions streams the solutions of a BGP. The iteration protocol is
//
//	sols := query.Eval(s, bgp)
//	for sols.Next() {
//		... sols.Bind() or sols.Value(...) ...
//	}
//	if err := sols.Err(); err != nil { ... }
//
// Under the hood the solutions are produced in columnar batches by the
// operator tree in repro/internal/query/exec; Next walks the current batch
// row by row, so the tuple-at-a-time surface costs one virtual call and one
// bounds check per solution. Batch-aware consumers (the HTTP server's ndjson
// streamer) can take whole batches through NextBatch instead.
//
// A Solutions is single-use and not safe for concurrent use. It holds no
// locks between Next calls; each batch refill reads the store under the
// store's own shard read-locks, so a concurrent writer interleaving with the
// iteration may be reflected in some batches and not others (the solution
// set is only guaranteed consistent against a quiescent store).
type Solutions struct {
	src  Source
	res  store.Resolver
	vars []string
	root exec.Op
	ctx  exec.Ctx
	cur  *exec.Batch
	row  int
	// onRow is true while the iterator is positioned on a valid solution
	// (between a true Next and the following call).
	onRow bool
	err   error
	done  bool
}

// Eval plans and evaluates a BGP over a Source — a *store.Store, or a
// *store.View when querying a materialized union — returning a Solutions
// iterator. Planning is selectivity-ordered: each pattern's cardinality and
// per-component distinct widths with only its literals bound are read off
// the source's indexes (StatsID), and the join order minimizing the
// estimated total work under a cardinality-propagation model is chosen —
// exhaustively for BGPs of up to 6 patterns, greedily cheapest-next-probe
// beyond. The planner's output is then lowered onto a batched operator tree
// (repro/internal/query/exec): the most selective pattern becomes the leaf
// scan, draining the store's resumable cursors, and every later pattern a
// batch-at-a-time index-nested-loop join whose probes are grouped by index
// shard. Everything runs on dictionary ids; solutions resolve back to
// strings only when read.
//
// A BGP that mentions an empty-named variable or an empty literal is
// reported through Err; a literal the store has never seen simply yields no
// solutions. An empty BGP yields exactly one empty solution.
func Eval(src Source, bgp BGP, opts ...Option) *Solutions {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.materialized {
		cfg.oi = nil
	}
	sol := &Solutions{src: src, res: src.NewResolver(), vars: bgpVars(bgp)}
	sol.ctx.Interrupt = cfg.interrupt
	// Variable-table lookups are linear: BGPs have a handful of variables,
	// and a map would cost more to build than every lookup it would serve.
	varIdx := func(name string) int {
		for i, v := range sol.vars {
			if v == name {
				return i
			}
		}
		return -1
	}

	unsat := false
	levels := make([]level, 0, len(bgp))
	for pi, p := range bgp {
		lv := level{orig: pi}
		expanded := cfg.oi != nil && !p.Predicate.IsVar && p.Predicate.Value == store.TypePredicate && !p.Object.IsVar
		for i, t := range p.terms() {
			if t.IsVar {
				if t.Value == "" {
					sol.err = fmt.Errorf("query: pattern (%s) names a variable with an empty name", p)
					sol.done = true
					return sol
				}
				lv.comps[i] = comp{isVar: true, varIdx: varIdx(t.Value)}
				continue
			}
			if t.Value == "" {
				sol.err = fmt.Errorf("query: pattern (%s) has an empty literal; no triple can match it", p)
				sol.done = true
				return sol
			}
			if expanded && i == 2 {
				// The object literal is replaced by the expansion candidates
				// below; the zero comp is never consulted.
				continue
			}
			id, ok := src.SymbolID(t.Value)
			if !ok {
				unsat = true
			}
			lv.comps[i] = comp{id: id}
		}
		if expanded {
			for _, sub := range cfg.oi.Subsumees(p.Object.Value) {
				if id, ok := src.SymbolID(sub); ok {
					lv.expand = append(lv.expand, id)
				}
			}
			if len(lv.expand) == 0 {
				unsat = true
			}
		}
		levels = append(levels, lv)
	}
	if unsat {
		sol.done = true
		return sol
	}
	if len(levels) == 0 {
		// The empty BGP: no operator tree; Next synthesizes the one empty
		// solution.
		return sol
	}
	ordered := plan(src, levels, len(sol.vars), cfg.trace)
	if tr := cfg.trace; tr != nil {
		for i := range tr.Levels {
			tr.Levels[i].Pattern = bgp[tr.Levels[i].Index].String()
		}
	}
	sol.root = build(src, ordered, len(sol.vars), cfg.trace)
	return sol
}

// bgpVars collects the BGP's variable names in order of first appearance
// with linear dedup — BGP.Vars without the map, for the few-variable BGPs
// every query is.
func bgpVars(b BGP) []string {
	var out []string
	for _, p := range b {
		for _, t := range p.terms() {
			if !t.IsVar {
				continue
			}
			seen := false
			for _, v := range out {
				if v == t.Value {
					seen = true
					break
				}
			}
			if !seen {
				out = append(out, t.Value)
			}
		}
	}
	return out
}

// build lowers the planned levels onto the operator tree: the first level
// becomes the leaf scan, every later level a batched probe join. With a
// trace attached, each lowered operator is instrumented with its level's
// OpStat.
func build(src Source, ordered []level, nvars int, tr *Trace) exec.Op {
	bound := make([]bool, nvars)
	var root exec.Op
	for li := range ordered {
		lv := &ordered[li]
		var pat exec.Pattern
		for i, c := range lv.comps {
			if c.isVar {
				pat[i] = exec.Var(c.varIdx)
			} else {
				pat[i] = exec.Lit(c.id)
			}
		}
		if root == nil {
			root = exec.NewScan(src, pat, lv.expand, nvars)
		} else {
			root = exec.NewJoin(root, src, pat, lv.expand, append([]bool(nil), bound...), nvars)
		}
		if tr != nil && li < len(tr.Levels) {
			exec.Instrument(root, &tr.Levels[li].Stat)
		}
		for _, c := range lv.comps {
			if c.isVar {
				bound[c.varIdx] = true
			}
		}
	}
	return root
}

// pstats are one pattern's planning statistics with only its literal
// components bound: the match count and, per component position, the number
// of distinct values the position takes among the matches (expanded patterns
// aggregate over their candidate classes).
type pstats struct {
	count    float64
	distinct [3]float64
}

// levelStats reads the pattern's statistics off the store's indexes.
func levelStats(src Source, lv *level) pstats {
	var ip store.IDPattern
	if !lv.comps[0].isVar {
		ip.S, ip.BoundS = lv.comps[0].id, true
	}
	if !lv.comps[1].isVar {
		ip.P, ip.BoundP = lv.comps[1].id, true
	}
	if lv.expand != nil {
		ip.BoundO = true
		var st pstats
		st.distinct[1] = 1
		for _, oid := range lv.expand {
			ip.O = oid
			is := src.StatsID(ip)
			st.count += float64(is.Count)
			st.distinct[0] += float64(is.DistinctS)
			st.distinct[2]++
		}
		return st
	}
	if !lv.comps[2].isVar {
		ip.O, ip.BoundO = lv.comps[2].id, true
	}
	is := src.StatsID(ip)
	return pstats{
		count:    float64(is.Count),
		distinct: [3]float64{float64(is.DistinctS), float64(is.DistinctP), float64(is.DistinctO)},
	}
}

// probeEstimate estimates how many matches one probe of the pattern yields
// given which variables the plan has already bound: the pattern's count,
// divided by the distinct width of every join-bound position. A position
// bound to one concrete value selects about count/distinct of the matches —
// a subject-bound probe into a predicate pattern is near a point lookup,
// while an object-bound probe into the same pattern keeps count/|objects|.
func probeEstimate(lv *level, st pstats, bound []bool) float64 {
	m := st.count
	for i, c := range lv.comps {
		if c.isVar && bound[c.varIdx] {
			if d := st.distinct[i]; d > 1 {
				m /= d
			}
		}
	}
	return m
}

// planCost simulates evaluating the levels in the given order, propagating
// the estimated number of partial solutions: each step costs one probe plus
// its estimated matches per surviving partial solution. bound is scratch
// space (one flag per variable), reset here.
func planCost(levels []level, stats []pstats, order []int, bound []bool) float64 {
	for i := range bound {
		bound[i] = false
	}
	solutions, work := 1.0, 0.0
	for _, idx := range order {
		m := probeEstimate(&levels[idx], stats[idx], bound)
		work += solutions * (1 + m)
		solutions *= m
		for _, c := range levels[idx].comps {
			if c.isVar {
				bound[c.varIdx] = true
			}
		}
	}
	return work
}

// maxExhaustive is the largest BGP whose join orders are searched
// exhaustively (6! = 720 candidate plans); larger BGPs fall back to a greedy
// cheapest-next-step ordering under the same cost model.
const maxExhaustive = 6

// planScratchVars bounds the stack-allocated planning scratch: BGPs with at
// most this many distinct variables (every realistic query) plan without
// heap allocation for their bound-flag vector.
const planScratchVars = 24

// plan orders the levels for the join by estimated total work under the
// count/distinct cost model: selectivity-ordered, cheapest plan first. The
// model naturally evaluates selective patterns before unselective ones and
// follows join-bound variables through their most selective probe direction;
// disconnected pattern groups end up cheapest-first, keeping the unavoidable
// cartesian product as small as possible. The returned order is what build
// lowers onto the operator tree. A non-nil tr records every candidate order
// costed and the chosen order's per-level estimates (see trace.go).
func plan(src Source, levels []level, nvars int, tr *Trace) []level {
	n := len(levels)
	if n == 1 {
		// One level has one order; its statistics only feed the trace.
		if tr != nil {
			stats := []pstats{levelStats(src, &levels[0])}
			bound := make([]bool, nvars)
			order := []int{0}
			c := planCost(levels, stats, order, bound)
			tr.recordCandidate(levels, order, c)
			tr.finishPlan(levels, stats, order, c, bound, true)
		}
		return levels
	}
	// The scratch below lives in fixed-size arrays when the BGP is small —
	// the overwhelmingly common case — so planning itself allocates nothing.
	var statsArr [maxExhaustive]pstats
	var stats []pstats
	if n <= maxExhaustive {
		stats = statsArr[:n]
	} else {
		stats = make([]pstats, n)
	}
	for i := range levels {
		stats[i] = levelStats(src, &levels[i])
	}
	var boundArr [planScratchVars]bool
	var bound []bool
	if nvars <= planScratchVars {
		bound = boundArr[:nvars]
	} else {
		bound = make([]bool, nvars)
	}
	var bestArr, permArr [maxExhaustive]int
	var best []int
	if n <= maxExhaustive {
		best = bestArr[:0]
		perm := permArr[:n]
		for i := range perm {
			perm[i] = i
		}
		bestCost := math.Inf(1)
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				c := planCost(levels, stats, perm, bound)
				if tr != nil {
					tr.recordCandidate(levels, perm, c)
				}
				if c < bestCost {
					bestCost = c
					best = append(best[:0], perm...)
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		if tr != nil {
			tr.finishPlan(levels, stats, best, bestCost, bound, true)
		}
	} else {
		used := make([]bool, n)
		solutions := 1.0
		for len(best) < n {
			bi, bc := -1, math.Inf(1)
			for i := 0; i < n; i++ {
				if used[i] {
					continue
				}
				if c := solutions * (1 + probeEstimate(&levels[i], stats[i], bound)); c < bc {
					bi, bc = i, c
				}
			}
			used[bi] = true
			solutions *= probeEstimate(&levels[bi], stats[bi], bound)
			best = append(best, bi)
			for _, c := range levels[bi].comps {
				if c.isVar {
					bound[c.varIdx] = true
				}
			}
		}
		if tr != nil {
			c := planCost(levels, stats, best, bound)
			tr.recordCandidate(levels, best, c)
			tr.finishPlan(levels, stats, best, c, bound, false)
		}
	}
	ordered := make([]level, 0, n)
	for _, idx := range best {
		ordered = append(ordered, levels[idx])
	}
	return ordered
}

// Next advances to the next solution, reporting whether one exists. After
// Next returns true, Bind and Value read the solution; after it returns
// false, Err reports whether the iteration ended in an error.
func (sol *Solutions) Next() bool {
	sol.onRow = false
	if sol.err != nil || sol.done {
		return false
	}
	if sol.root == nil {
		// The empty BGP: one empty solution, then exhaustion.
		sol.done = true
		sol.onRow = true
		return true
	}
	if sol.cur != nil && sol.row+1 < sol.cur.N {
		// The interrupt hook is polled here too (throttled), so a
		// cancellation observed mid-batch stops the iteration without
		// draining the batch's remaining rows.
		if sol.ctx.Cancelled() {
			sol.err = ErrInterrupted
			sol.done = true
			return false
		}
		sol.row++
		sol.onRow = true
		return true
	}
	for {
		b, err := sol.root.Next(&sol.ctx)
		if err != nil {
			sol.err = err
			sol.done = true
			return false
		}
		if b == nil {
			sol.done = true
			return false
		}
		if b.N == 0 {
			continue
		}
		sol.cur, sol.row, sol.onRow = b, 0, true
		return true
	}
}

// Err returns the error that ended the iteration, or nil. The only errors
// today are malformed BGPs (empty literals, empty variable names), unknown
// projection variables, and ErrInterrupted when an Interrupt hook cancelled
// the evaluation; evaluation itself cannot fail.
func (sol *Solutions) Err() error {
	return sol.err
}

// Vars returns the BGP's variable names in order of first appearance.
func (sol *Solutions) Vars() []string {
	return append([]string(nil), sol.vars...)
}

// Resolver returns the resolver the iterator reads names through — the hook
// batch-aware consumers (NextBatch) use to resolve column ids themselves.
func (sol *Solutions) Resolver() store.Resolver {
	return sol.res
}

// Value returns the current solution's value for one variable without
// allocating. It is only meaningful after Next returned true; ok is false
// for unknown variables or outside a solution.
func (sol *Solutions) Value(name string) (string, bool) {
	if !sol.onRow || sol.cur == nil {
		return "", false
	}
	for i, v := range sol.vars {
		if v == name {
			return sol.res.Name(sol.cur.Cols[i][sol.row]), true
		}
	}
	return "", false
}

// Bind materializes the current solution as a fresh Binding. It is only
// meaningful after Next returned true. Use Value to read a single variable
// without the allocation.
func (sol *Solutions) Bind() Binding {
	b := make(Binding, len(sol.vars))
	if !sol.onRow || sol.cur == nil {
		return b
	}
	for i, name := range sol.vars {
		b[name] = sol.res.Name(sol.cur.Cols[i][sol.row])
	}
	return b
}

// SolutionBatch is one columnar window of solutions, handed out by
// Solutions.NextBatch: Len rows over the iterator's variables (Vars order),
// each cell a dictionary id resolvable through Solutions.Resolver. A batch
// is owned by the iterator and valid only until the next NextBatch call.
type SolutionBatch struct {
	cols [][]store.SymbolID
	n    int
}

// Len returns the number of rows in the batch.
func (sb SolutionBatch) Len() int { return sb.n }

// ID returns the dictionary id bound by row for the col'th variable of the
// iterator's Vars.
func (sb SolutionBatch) ID(col, row int) store.SymbolID { return sb.cols[col][row] }

// NextBatch advances the iteration one whole batch at a time — the bulk form
// of Next for consumers that stream many solutions (the HTTP server's ndjson
// writer): no per-solution virtual call, no Binding map, just columns of ids
// to resolve and format. ok is false when the iteration is exhausted or
// failed (check Err, exactly as after Next). A non-empty iteration never
// yields an empty batch; the empty BGP yields one single-row batch whose row
// binds nothing. Do not mix NextBatch and Next on one iterator — each
// consumes the stream the other would have seen.
func (sol *Solutions) NextBatch() (SolutionBatch, bool) {
	sol.onRow = false
	if sol.err != nil || sol.done {
		return SolutionBatch{}, false
	}
	if sol.root == nil {
		// The empty BGP: one batch holding the single empty solution.
		sol.done = true
		return SolutionBatch{n: 1}, true
	}
	for {
		b, err := sol.root.Next(&sol.ctx)
		if err != nil {
			sol.err = err
			sol.done = true
			return SolutionBatch{}, false
		}
		if b == nil {
			sol.done = true
			return SolutionBatch{}, false
		}
		if b.N == 0 {
			continue
		}
		return SolutionBatch{cols: b.Cols, n: b.N}, true
	}
}

// All drains the iterator and returns every remaining solution. The order of
// solutions is unspecified (it follows the plan, not the BGP).
func (sol *Solutions) All() ([]Binding, error) {
	var out []Binding
	for sol.Next() {
		out = append(out, sol.Bind())
	}
	return out, sol.Err()
}

// Instances answers the canonical class-retrieval query every experiment and
// audit asks: the sorted distinct subjects annotated (via
// store.TypePredicate) with the class — expanded through the ontology
// index's subsumees when oi is non-nil, literal annotations only when it is
// nil. It is the one-pattern BGP {?x type class} projected to ?x. Over a
// materialized view pass a nil oi (or use reason.Reasoner.Instances, the
// allocation-light direct form): the inferred type triples already carry the
// expansion.
func Instances(src Source, oi *store.OntologyIndex, class string) ([]string, error) {
	bgp := BGP{Pat(Var("x"), Lit(store.TypePredicate), Lit(class))}
	var opts []Option
	if oi != nil {
		opts = append(opts, Expand(oi))
	}
	return Eval(src, bgp, opts...).Project("x")
}

// Project drains the iterator and returns the distinct values the named
// variable takes across the remaining solutions, sorted — the shape every
// retrieval experiment consumes. Deduplication happens at the dictionary-id
// level; only the distinct ids are resolved to strings.
func (sol *Solutions) Project(name string) ([]string, error) {
	var out []string
	err := sol.ProjectFunc(name, func(v string) bool {
		out = append(out, v)
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// ProjectFunc drains the iterator, streaming the distinct values the named
// variable takes across the remaining solutions to yield and stopping early
// when yield returns false. It is Project without the materialized slice and
// the sort: deduplication still happens at the dictionary-id level, the
// enumeration order is unspecified, and only the distinct ids are resolved
// to strings — the serving-shaped form of class retrieval the E5c experiment
// times against materialized reads.
func (sol *Solutions) ProjectFunc(name string, yield func(string) bool) error {
	idx := -1
	for i, v := range sol.vars {
		if v == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		if sol.err == nil {
			sol.err = fmt.Errorf("query: projection variable ?%s does not occur in the pattern", name)
		}
		return sol.err
	}
	seen := make(map[store.SymbolID]struct{})
	for sol.Next() {
		id := sol.cur.Cols[idx][sol.row]
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		if !yield(sol.res.Name(id)) {
			break
		}
	}
	return sol.err
}
