package repro

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/store"
	"repro/internal/workload"
)

// The benchmarks below regenerate, one per table, the experiments recorded in
// EXPERIMENTS.md with their default parameters. Each benchmark reports the
// experiment's headline figure as a custom metric so the shape of the result
// is visible directly in the -bench output, alongside the usual time and
// allocation figures.
//
//	go test -bench=. -benchmem
//
// cmd/benchrunner prints the full tables instead of timing them.

// metric parses a numeric cell from an experiment table for ReportMetric.
func metric(b *testing.B, tbl *experiments.Table, row int, column string) float64 {
	b.Helper()
	cell := tbl.Cell(row, column)
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("experiment %s: cell (%d, %s) = %q is not numeric", tbl.ID, row, column, cell)
	}
	return v
}

// BenchmarkE1Definitions regenerates the E1 table: acceptance rates of the
// three definitions of "ontonomy" over a mixed artifact population.
func BenchmarkE1Definitions(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.E1(experiments.DefaultE1Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "discrimination"), "functional-discrimination")
	b.ReportMetric(metric(b, tbl, 2, "discrimination"), "structural-discrimination")
}

// BenchmarkE2Isomorphism regenerates the E2 figure: structural-meaning
// collision rate vs definition size.
func BenchmarkE2Isomorphism(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.E2(experiments.DefaultE2Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "collision rate"), "collision-rate-smallest-k")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "collision rate"), "collision-rate-largest-k")
}

// BenchmarkE3Differentiation regenerates the E3 figure: collisions remaining
// vs unfolding depth.
func BenchmarkE3Differentiation(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.E3(experiments.DefaultE3Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "colliding pairs"), "collisions-depth0-smallest-vocab")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "mean unfolded size"), "mean-size-deepest")
}

// BenchmarkE4SemanticFields regenerates the E4 table: atomistic vs
// field-relative translation loss.
func BenchmarkE4SemanticFields(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.E4(experiments.DefaultE4Params())
	}
	rows := len(tbl.Rows)
	b.ReportMetric(metric(b, tbl, rows-2, "atomistic error"), "doorknob-atomistic-error")
	b.ReportMetric(metric(b, tbl, rows-2, "field-relative error"), "doorknob-field-error")
}

// BenchmarkE5Pragmatics regenerates the E5 table: retrieval quality vs
// annotation drift with and without ontology expansion.
func BenchmarkE5Pragmatics(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.E5(experiments.DefaultE5Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "expanded F1"), "expanded-F1-no-drift")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "expanded F1"), "expanded-F1-max-drift")
}

// BenchmarkE5bEvolution regenerates the E5b table: a fixed ontonomy against
// evolving usage categories.
func BenchmarkE5bEvolution(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.E5b(experiments.DefaultE5bParams())
	}
	b.ReportMetric(metric(b, tbl, 0, "ontology macro F1"), "ontology-F1-no-splits")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "ontology macro F1"), "ontology-F1-max-splits")
}

// BenchmarkE6Hermeneutic regenerates the E6 table: interpretation accuracy
// with and without reader context.
func BenchmarkE6Hermeneutic(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.E6(experiments.DefaultE6Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "mean accuracy"), "accuracy-no-context")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "mean accuracy"), "accuracy-rich-context")
}

// BenchmarkE7Transmission regenerates the E7 table: fidelity along a chain of
// readers under situated vs policed readings.
func BenchmarkE7Transmission(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.E7(experiments.DefaultE7Params())
	}
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "situated fidelity"), "situated-fidelity-end-of-chain")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "override rate"), "override-rate-end-of-chain")
}

// BenchmarkA1Subsumption regenerates the A1 ablation: subsumption query cost
// across hierarchy shapes and reasoning procedures.
func BenchmarkA1Subsumption(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.A1(experiments.DefaultA1Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "mean µs/query"), "structural-tree-us-per-query")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "mean µs/query"), "tableau-dag-us-per-query")
}

// storeWorkload builds n distinct type-annotation triples shaped like the
// E5/E5b corpora: many instances over a few hundred classes.
func storeWorkload(n int) []store.Triple {
	ts := make([]store.Triple, n)
	for i := range ts {
		ts[i] = store.Triple{
			Subject:   fmt.Sprintf("inst-%d", i),
			Predicate: store.TypePredicate,
			Object:    fmt.Sprintf("class-%d", i%317),
		}
	}
	return ts
}

// BenchmarkStoreIngest measures the storage layer's bulk ingest at
// experiment scale; internal/store's own benchmarks compare it against the
// nested string-map engine it replaced.
func BenchmarkStoreIngest(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		ts := storeWorkload(n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := store.New()
				if _, err := s.AddBatch(ts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
		})
	}
}

// BenchmarkStoreQuery measures the E5-shaped read path — one class's
// instances streamed off the POS index — over 10⁵ triples.
func BenchmarkStoreQuery(b *testing.B) {
	const n = 100_000
	s := store.New()
	if _, err := s.AddBatch(storeWorkload(n)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	matched := 0
	for i := 0; i < b.N; i++ {
		s.ForEachSubject(store.TypePredicate, fmt.Sprintf("class-%d", i%317), func(string) bool {
			matched++
			return true
		})
	}
	if matched == 0 {
		b.Fatal("no instances matched")
	}
	b.ReportMetric(float64(matched)/float64(b.N), "instances/query")
}

// reasonCorpus builds the E5c-shaped materialization workload: n type
// annotations round-robin over a random 120-class hierarchy, the hierarchy's
// subsumption closure as subClassOf triples, and the classified ontology
// index for the query-time-expansion baseline.
func reasonCorpus(b *testing.B, n int) ([]store.Triple, *store.OntologyIndex, []string) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	tb := workload.RandomHierarchyTBox(rng, workload.HierarchyParams{Classes: 120, MaxParents: 2})
	oi, err := store.NewOntologyIndex(tb)
	if err != nil {
		b.Fatal(err)
	}
	classes := tb.DefinedNames()
	sort.Strings(classes)
	ts := make([]store.Triple, 0, n)
	for i := 0; i < n; i++ {
		class := classes[i%len(classes)]
		ts = append(ts, store.Triple{
			Subject:   fmt.Sprintf("%s/item-%d", class, i),
			Predicate: store.TypePredicate,
			Object:    class,
		})
	}
	ts = append(ts, reason.OntologyTriples(oi)...)
	return ts, oi, classes
}

// BenchmarkMaterialize1e5 measures the one-off cost the serving-time speedup
// is bought with: the semi-naive RDFS fixpoint over 10⁵ type annotations
// under a 120-class hierarchy (store ingest excluded from the timing).
func BenchmarkMaterialize1e5(b *testing.B) {
	ts, _, _ := reasonCorpus(b, 100_000)
	b.ReportAllocs()
	inferred := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := store.New()
		if _, err := s.AddBatch(ts); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r, err := reason.Materialize(s, reason.RDFSRules())
		if err != nil {
			b.Fatal(err)
		}
		inferred = r.InferredCount()
	}
	if inferred == 0 {
		b.Fatal("nothing was inferred")
	}
	b.ReportMetric(float64(inferred), "inferred-triples")
}

// BenchmarkMaterializedVsExpandedQuery measures the E5-style class retrieval
// of EXPERIMENTS.md's E5c table at 10⁵ triples both ways, in the streaming
// form a read-heavy service runs: "expanded" is the query-time rewrite
// through the ontology index ({?x type class} under query.Expand, distinct
// subjects streamed via ProjectFunc), "materialized" streams the same
// distinct subjects off the reasoner's materialized POS indexes
// (Reasoner.InstancesFunc). The acceptance figure is the ns/op ratio between
// the two sub-benchmarks.
func BenchmarkMaterializedVsExpandedQuery(b *testing.B) {
	ts, oi, classes := reasonCorpus(b, 100_000)
	s := store.New()
	if _, err := s.AddBatch(ts); err != nil {
		b.Fatal(err)
	}
	r, err := reason.Materialize(s, reason.RDFSRules())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("expanded", func(b *testing.B) {
		b.ReportAllocs()
		matched := 0
		for i := 0; i < b.N; i++ {
			bgp := query.BGP{query.Pat(query.Var("x"), query.Lit(store.TypePredicate), query.Lit(classes[i%len(classes)]))}
			err := query.Eval(s, bgp, query.Expand(oi)).ProjectFunc("x", func(string) bool {
				matched++
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		if matched == 0 {
			b.Fatal("no instances matched")
		}
		b.ReportMetric(float64(matched)/float64(b.N), "instances/query")
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		matched := 0
		for i := 0; i < b.N; i++ {
			r.InstancesFunc(classes[i%len(classes)], func(string) bool {
				matched++
				return true
			})
		}
		if matched == 0 {
			b.Fatal("no instances matched")
		}
		b.ReportMetric(float64(matched)/float64(b.N), "instances/query")
	})
}

// joinWorkload builds exactly n distinct triples with join structure on top
// of the type annotations: each instance carries a type triple and a
// locatedIn triple placing it in one of 89 sites, and every site sits in one
// of 7 regions, so 2- and 3-pattern BGPs have real work to do.
func joinWorkload(n int) []store.Triple {
	ts := make([]store.Triple, 0, n)
	for j := 0; j < 89 && len(ts) < n; j++ {
		ts = append(ts, store.Triple{Subject: fmt.Sprintf("site-%d", j), Predicate: "partOf", Object: fmt.Sprintf("region-%d", j%7)})
	}
	for i := 0; len(ts) < n; i++ {
		inst := fmt.Sprintf("inst-%d", i)
		ts = append(ts, store.Triple{Subject: inst, Predicate: store.TypePredicate, Object: fmt.Sprintf("class-%d", i%317)})
		if len(ts) < n {
			ts = append(ts, store.Triple{Subject: inst, Predicate: "locatedIn", Object: fmt.Sprintf("site-%d", i%89)})
		}
	}
	return ts
}

// benchJoin measures one BGP over the 10⁵-triple join corpus, reporting
// solutions per query so plan regressions show up as a metric change, not
// just a time change.
func benchJoin(b *testing.B, bgp query.BGP) {
	s := store.New()
	if _, err := s.AddBatch(joinWorkload(100_000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	solutions := 0
	for i := 0; i < b.N; i++ {
		sols := query.Eval(s, bgp)
		for sols.Next() {
			solutions++
		}
		if err := sols.Err(); err != nil {
			b.Fatal(err)
		}
	}
	if solutions == 0 {
		b.Fatal("join produced no solutions")
	}
	b.ReportMetric(float64(solutions)/float64(b.N), "solutions/query")
}

// BenchmarkQueryJoin2 measures a 2-pattern BGP join at 10⁵ triples: the
// instances of one class together with their sites.
func BenchmarkQueryJoin2(b *testing.B) {
	benchJoin(b, query.MustParseBGP("?x type class-5 . ?x locatedIn ?site"))
}

// BenchmarkQueryJoin3 measures a 3-pattern BGP join at 10⁵ triples: the
// same, extended through the site→region edge.
func BenchmarkQueryJoin3(b *testing.B) {
	benchJoin(b, query.MustParseBGP("?x type class-5 . ?x locatedIn ?site . ?site partOf ?region"))
}

// BenchmarkQueryJoin3At1e6 is the 3-pattern join at 10⁶ triples — the
// million-triple row of EXPERIMENTS.md's batched-execution table.
func BenchmarkQueryJoin3At1e6(b *testing.B) {
	s := store.New()
	if _, err := s.AddBatch(joinWorkload(1_000_000)); err != nil {
		b.Fatal(err)
	}
	bgp := query.MustParseBGP("?x type class-5 . ?x locatedIn ?site . ?site partOf ?region")
	b.ReportAllocs()
	b.ResetTimer()
	solutions := 0
	for i := 0; i < b.N; i++ {
		sols := query.Eval(s, bgp)
		for sols.Next() {
			solutions++
		}
		if err := sols.Err(); err != nil {
			b.Fatal(err)
		}
	}
	if solutions == 0 {
		b.Fatal("join produced no solutions")
	}
	b.ReportMetric(float64(solutions)/float64(b.N), "solutions/query")
}

// BenchmarkObsOverhead guards the observability tax. The query pair runs
// the 3-pattern join of BenchmarkQueryJoin3 with tracing off (the default
// every production query takes: per-operator stat pointers nil, one branch
// per Next) and with a full execution trace attached; the acceptance bar is
// traced within 3% of plain. The ingest pair journals the same batch
// through a durable engine with and without a metrics registry (WAL frame
// counters and fsync histograms live on that path). registry-hotpath pins
// the primitives themselves: Counter.Inc plus Histogram.Observe must stay
// allocation-free.
func BenchmarkObsOverhead(b *testing.B) {
	s := store.New()
	if _, err := s.AddBatch(joinWorkload(100_000)); err != nil {
		b.Fatal(err)
	}
	bgp := query.MustParseBGP("?x type class-5 . ?x locatedIn ?site . ?site partOf ?region")
	runJoin := func(b *testing.B, traced bool) {
		b.ReportAllocs()
		solutions := 0
		for i := 0; i < b.N; i++ {
			var opts []query.Option
			if traced {
				var tr query.Trace
				opts = append(opts, query.WithTrace(&tr))
			}
			sols := query.Eval(s, bgp, opts...)
			for sols.Next() {
				solutions++
			}
			if err := sols.Err(); err != nil {
				b.Fatal(err)
			}
		}
		if solutions == 0 {
			b.Fatal("join produced no solutions")
		}
		b.ReportMetric(float64(solutions)/float64(b.N), "solutions/query")
	}
	b.Run("query-plain", func(b *testing.B) { runJoin(b, false) })
	b.Run("query-traced", func(b *testing.B) { runJoin(b, true) })

	ingest := func(b *testing.B, metered bool) {
		ts := storeWorkload(50_000)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			base := store.New()
			opts := durable.Options{Dir: b.TempDir(), Fsync: durable.FsyncOff}
			if metered {
				opts.Metrics = obs.NewRegistry()
			}
			eng, err := durable.Open(base, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := base.AddBatch(ts); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.Run("ingest-plain", func(b *testing.B) { ingest(b, false) })
	b.Run("ingest-metered", func(b *testing.B) { ingest(b, true) })

	b.Run("registry-hotpath", func(b *testing.B) {
		reg := obs.NewRegistry()
		c := reg.Counter("bench_ops_total", "Hot-path counter under benchmark.")
		h := reg.Histogram("bench_op_seconds", "Hot-path histogram under benchmark.", obs.LatencyBuckets())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(float64(i&1023) * 1e-6)
		}
	})
}

// BenchmarkLeafScan measures the leaf scan alone: a consumer pulling whole
// batches (Solutions.NextBatch) off the scan cursors of ?s ?p ?o (a full
// scan) and ?s locatedIn ?o (one POS lead entry) over the 10⁵-triple join
// corpus. These two shapes are the ones the shard-parallel scan was tried
// and rejected on (EXPERIMENTS.md, "The leaf scan").
func BenchmarkLeafScan(b *testing.B) {
	s := store.New()
	if _, err := s.AddBatch(joinWorkload(100_000)); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, bgp string
		rows      int
	}{
		{"full", "?s ?p ?o", 100_000},
		{"locatedIn", "?s locatedIn ?o", s.Count(store.Pattern{Predicate: "locatedIn"})},
	} {
		bgp := query.MustParseBGP(c.bgp)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sols := query.Eval(s, bgp)
				n := 0
				for {
					sb, ok := sols.NextBatch()
					if !ok {
						break
					}
					n += sb.Len()
				}
				if err := sols.Err(); err != nil {
					b.Fatal(err)
				}
				if n != c.rows {
					b.Fatalf("scanned %d rows, want %d", n, c.rows)
				}
			}
			b.ReportMetric(float64(c.rows)*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
		})
	}
}
