package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/server"
	"repro/internal/store"
)

// span is one timed call into a layer. Spans of one replayed request share
// Req; Parent indexes the enclosing span (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// The replay is single-threaded, so it needs no locking.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return t.dur(i)
}

func (t *tracer) dur(i int) time.Duration { return time.Duration(t.spans[i].End - t.spans[i].Start) }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the time its direct children cover
// (children of one span never overlap in the single-threaded replay).
func (t *tracer) selfTime(i int, children map[int][]int) time.Duration {
	d := t.dur(i)
	for _, c := range children[i] {
		d -= t.dur(c)
	}
	return d
}

// timedSource is a query.Source around the reasoner's view that records a
// span around every index probe batch and statistics call.
type timedSource struct {
	query.Source
	t          *tracer
	parent     int
	req        int
	statsCalls int
}

func (s *timedSource) QueryIDBatch(ps []store.IDPattern, yield func(int, store.IDTriple) bool) {
	sp := s.t.begin("store.probe", s.parent, s.req)
	s.Source.QueryIDBatch(ps, yield)
	s.t.end(sp)
}

func (s *timedSource) StatsID(p store.IDPattern) store.IDStats {
	s.statsCalls++
	sp := s.t.begin("store.stats", s.parent, s.req)
	st := s.Source.StatsID(p)
	s.t.end(sp)
	return st
}

func (s *timedSource) CountID(p store.IDPattern) int {
	s.statsCalls++
	sp := s.t.begin("store.stats", s.parent, s.req)
	n := s.Source.CountID(p)
	s.t.end(sp)
	return n
}

// replayItem is one operation of the traced replay: a query, or a mutation
// batch applied through the reasoner.
type replayItem struct {
	bgp         string
	limit       int
	add, remove []store.Triple
}

// discardWriter is a ResponseWriter that counts and drops the body, so the
// handler span measures the handler, not a buffering recorder.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Flush()                      {}

// queryAgg accumulates the per-query layer figures of the replay.
type queryAgg struct {
	queries, results                          int
	parse, plan, exec, scan, probe, encode    time.Duration
	statsCalls, candidates, levelRows, probes int64
	qerrSum                                   float64
	qerrN                                     int
	mutations                                 int
	maintain                                  time.Duration
}

// traceReplay is the traced run's in-process half. It materializes base
// with a span around reason.Materialize, then replays items serially
// through the layers' public functions: query.ParseBGP, query.Eval over a
// timing Source, the drain of the operator tree, a direct drain of the leaf
// pattern's ScanParts, and the server handler (cache off) for the same
// request; mutations go through Reasoner.AddBatch/Remove. The Go runtime's
// GC pauses and allocation are read over the replay.
func (b *bench) traceReplay(base *store.Store, items []replayItem) error {
	t := b.tr
	sp := t.begin("reason.materialize", -1, -1)
	if _, err := reason.Materialize(base, reason.RDFSRules()); err != nil {
		return err
	}
	b.rep.set("reason.materialize_s", t.end(sp).Seconds())

	srv, err := server.New(server.Config{Base: base, CacheMaxBytes: -1})
	if err != nil {
		return err
	}
	rz := srv.Reasoner()
	view := rz.View()
	h := srv.Handler()
	runtime.GC()
	rt0 := readRuntime()

	var a queryAgg
	for i, it := range items {
		root := t.begin("request", -1, i)
		if it.bgp == "" {
			ms := t.begin("reason.maintain", root, i)
			if len(it.add) > 0 {
				if _, err := rz.AddBatch(it.add); err != nil {
					return err
				}
			}
			for _, tr := range it.remove {
				rz.Remove(tr)
			}
			a.maintain += t.end(ms)
			a.mutations++
		} else if err := b.traceQuery(&a, h, view, it, root, i); err != nil {
			return err
		}
		t.end(root)
	}
	rt1 := readRuntime()

	ops := float64(len(items))
	if ops > 0 {
		b.rep.set("runtime.gc_pause_ms", (rt1.pauseS-rt0.pauseS)*1e3)
		b.rep.set("runtime.alloc_mb_per_op", (rt1.allocB-rt0.allocB)/ops/1e6)
	}
	if a.mutations > 0 {
		b.rep.set("reason.maintain_ms", ms(a.maintain)/float64(a.mutations))
	}
	if a.queries > 0 {
		q := float64(a.queries)
		b.rep.set("query.parse_us", float64(a.parse)/q/1e3)
		b.rep.set("query.plan_us", float64(a.plan)/q/1e3)
		b.rep.set("query.plan_candidates", float64(a.candidates)/q)
		b.rep.set("exec.self_ms", ms(a.exec)/q)
		b.rep.set("exec.probes_per_query", float64(a.probes)/q)
		b.rep.set("exec.rows_examined_per_result", float64(a.levelRows)/math.Max(1, float64(a.results)))
		b.rep.set("store.scan_ms", ms(a.scan)/q)
		b.rep.set("store.probe_ms", ms(a.probe)/q)
		b.rep.set("store.stats_calls_per_query", float64(a.statsCalls)/q)
		b.rep.set("server.encode_ms", ms(a.encode)/q)
		if a.qerrN > 0 {
			b.rep.set("query.est_error", a.qerrSum/float64(a.qerrN))
		}
	}
	b.rep.note("traced replay: %d queries, %d mutations, %d spans", a.queries, a.mutations, len(t.spans))
	return nil
}

func (b *bench) traceQuery(a *queryAgg, h http.Handler, view *store.View, it replayItem, root, req int) error {
	t := b.tr
	sp := t.begin("query.parse", root, req)
	bgp, err := query.ParseBGP(it.bgp)
	parse := t.end(sp)
	if err != nil {
		return err
	}
	src := &timedSource{Source: view, t: t, req: req}
	var qt query.Trace
	plan := t.begin("query.plan", root, req)
	src.parent = plan
	sols := query.Eval(src, bgp, query.Materialized(), query.WithTrace(&qt))
	t.end(plan)
	ex := t.begin("exec", root, req)
	src.parent = ex
	rows := 0
	for it.limit == 0 || rows < it.limit {
		sb, ok := sols.NextBatch()
		if !ok {
			break
		}
		rows += sb.Len()
	}
	t.end(ex)
	if err := sols.Err(); err != nil {
		return err
	}

	// The leaf's own store cost: its pattern's cursors drained directly.
	var scan time.Duration
	if len(qt.Levels) > 0 {
		if ip, ok := idPattern(view, bgp[qt.Levels[0].Index]); ok {
			sc := t.begin("store.scan", root, req)
			buf := make([]store.IDTriple, 1024)
			for _, part := range view.ScanParts(ip, 1) {
				for {
					_, done := part.NextBatch(buf)
					if done {
						break
					}
				}
				part.Release()
			}
			scan = t.end(sc)
		}
	}

	body, _ := json.Marshal(struct {
		BGP   string `json:"bgp"`
		Limit int    `json:"limit,omitempty"`
	}{it.bgp, it.limit})
	hr := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	dw := &discardWriter{h: http.Header{}}
	hs := t.begin("server", root, req)
	h.ServeHTTP(dw, hr)
	handler := t.end(hs)

	children := map[int][]int{}
	for i := plan; i < len(t.spans); i++ {
		if p := t.spans[i].Parent; p == plan || p == ex {
			children[p] = append(children[p], i)
		}
	}
	var probe time.Duration
	for _, c := range children[ex] {
		probe += t.dur(c)
	}
	a.queries++
	a.results += rows
	a.parse += parse
	a.plan += t.selfTime(plan, children)
	a.exec += max(0, t.dur(ex)-probe-scan)
	a.scan += scan
	a.probe += probe
	a.encode += max(0, handler-parse-t.dur(plan)-t.dur(ex))
	a.statsCalls += int64(src.statsCalls)
	a.candidates += int64(qt.Considered)
	for li, lv := range qt.Levels {
		a.levelRows += lv.Stat.Rows
		a.probes += lv.Stat.Probes
		actual := float64(lv.Stat.Rows)
		if li > 0 && lv.Stat.Probes > 0 {
			actual /= float64(lv.Stat.Probes)
		}
		est := math.Max(lv.EstRows, 1)
		actual = math.Max(actual, 1)
		a.qerrSum += math.Max(est/actual, actual/est)
		a.qerrN++
	}
	return nil
}

// idPattern encodes a pattern's literals against the view's dictionary.
func idPattern(v *store.View, p query.TriplePattern) (store.IDPattern, bool) {
	var ip store.IDPattern
	terms := [3]query.Term{p.Subject, p.Predicate, p.Object}
	ids := [3]*store.SymbolID{&ip.S, &ip.P, &ip.O}
	bound := [3]*bool{&ip.BoundS, &ip.BoundP, &ip.BoundO}
	for i, term := range terms {
		if term.IsVar {
			continue
		}
		id, ok := v.SymbolID(term.Value)
		if !ok {
			return ip, false
		}
		*ids[i], *bound[i] = id, true
	}
	return ip, true
}

type runtimeSample struct{ pauseS, allocB float64 }

// readRuntime reads cumulative GC pause time (from the pause histogram,
// bucket midpoints) and heap allocation from runtime/metrics.
func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/pauses:seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		hist := s[0].Value.Float64Histogram()
		for i, n := range hist.Counts {
			lo, hi := hist.Buckets[i], hist.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			out.pauseS += float64(n) * (lo + hi) / 2
		}
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocB = float64(s[1].Value.Uint64())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replayLimit caps the traced replay's length.
func replayLimit(smoke bool) int {
	if smoke {
		return 200
	}
	return 3000
}

// readItems turns read ops into replay items.
func readItems(c *corpus, ops []op, limit int) []replayItem {
	if len(ops) > limit {
		ops = ops[:limit]
	}
	items := make([]replayItem, len(ops))
	for i, o := range ops {
		items[i] = replayItem{bgp: c.bgpOf(o)}
		if o.kind != kPoint {
			items[i].limit = pageRows
		}
	}
	return items
}

// corpusStore loads a corpus into a fresh in-memory store.
func corpusStore(c *corpus) (*store.Store, error) {
	st := store.New()
	batch := make([]store.Triple, 0, 1<<14)
	var err error
	flush := func() {
		if err == nil && len(batch) > 0 {
			_, err = st.AddBatch(batch)
		}
		batch = batch[:0]
	}
	c.each(func(t store.Triple) {
		batch = append(batch, t)
		if len(batch) == cap(batch) {
			flush()
		}
	})
	flush()
	if err != nil {
		return nil, fmt.Errorf("loading the corpus in process: %w", err)
	}
	return st, nil
}
