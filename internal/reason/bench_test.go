package reason

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// benchCorpus builds n type annotations spread round-robin over a random
// 120-class DAG hierarchy, plus the hierarchy's subClassOf closure — the
// shape of the root package's BenchmarkMaterialize1e5 corpus.
func benchCorpus(b *testing.B, n int) ([]store.Triple, []string) {
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
		ts = append(ts, store.Triple{Subject: fmt.Sprintf("%s/item-%d", class, i), Predicate: store.TypePredicate, Object: class})
	}
	return append(ts, OntologyTriples(oi)...), classes
}

// BenchmarkReasonAddBatch guards the tiny-delta maintenance path a serving
// mutation takes: one 10-triple AddBatch of fresh type annotations into a
// materialized 1e5-triple corpus, so per-batch fixed costs (chunk buffers,
// shard grouping, base probes) show up against a realistically sized store.
func BenchmarkReasonAddBatch(b *testing.B) {
	ts, classes := benchCorpus(b, 100_000)
	base := store.New()
	if _, err := base.AddBatch(ts); err != nil {
		b.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		b.Fatal(err)
	}
	const batch = 10
	batches := make([][]store.Triple, b.N)
	for i := range batches {
		batches[i] = make([]store.Triple, batch)
		for j := range batches[i] {
			k := i*batch + j
			batches[i][j] = store.Triple{Subject: fmt.Sprintf("new-%d", k), Predicate: store.TypePredicate, Object: classes[k%len(classes)]}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AddBatch(batches[i]); err != nil {
			b.Fatal(err)
		}
	}
}
