// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against cmd/ontoserve processes over loopback TCP, checks every
// answer against an oracle it computes itself, and prints every metric by
// name with its unit; the last line of standard output is one JSON object
// with the metrics BENCHMARK.json names. Linux only (it reads /proc and
// ties server lifetimes to its own).
//
// Usage (from the repository root, through the wrapper that builds both
// binaries):
//
//	bash perfbench/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	read-mix       in-memory primary, result cache on, open-loop class
//	               retrievals, class×region joins and point lookups
//	write-durable  durable primary (-fsync always) plus one replica, open-loop
//	               mutation batches, reads and checkpoints
//	cold-boot      a 5e5-triple data directory with a segment chain and a WAL
//	               tail: repeated cold starts, a replica bootstrap, a query
//	               window and a gap re-sync
//
// With --trace 0 the JSON carries the end-to-end metrics. With --trace 1 the
// same server run is made, its /metrics and /stats deltas are scraped, and
// the seeded operation sequence is replayed in process through the layers'
// public functions with a span around each call; the JSON then carries the
// per-layer metrics and the spans are written to
// <work>/spans-<workload>-<seed>.jsonl.
//
// A run whose load generator fell behind its own schedule, or whose
// workload's background work (checkpoints, merges, tail replay) did not
// happen, is invalid: it exits 3 without a result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	smoke      bool
	bin        string
	work       string
	manifest   string
	proxyDelay time.Duration
	prepare    string
	triples    int
}

// bench is one run's state.
type bench struct {
	opt     options
	cl      *client
	pool    []*worker
	servers []*node
	h       *hierarchy
	nproc   int
	rep     *report
	tr      *tracer
}

// report accumulates a run's metrics, failure counts and notes.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	invalid   []string
	notes     []string
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) invalidate(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// check records a final correctness check: one attempt, failed if err.
func (r *report) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note("error: %s: %v", what, err)
	}
}

// units names every metric perfbench can produce, with its unit.
var units = map[string]string{
	"setup_s": "s", "boot_s": "s", "query_p50_ms": "ms", "query_p99_ms": "ms",
	"capacity_ops_s": "1/s", "rss_mb": "MB", "cpu_ms_per_op": "ms",
	"mutation_p50_ms": "ms", "mutation_p99_ms": "ms",
	"replica_visible_p50_ms": "ms", "replica_visible_p99_ms": "ms",
	"replica_boot_s": "s", "resync_s": "s", "disk_bytes_per_triple": "B", "error_rate": "ratio",

	"server.query_handler_ms": "ms", "server.response_bytes": "B", "server.encode_ms": "ms",
	"server.cache_hit_ratio": "ratio", "server.cache_invalidations": "count", "server.mutation_handler_ms": "ms",
	"query.parse_us": "us", "query.plan_us": "us", "query.plan_candidates": "count", "query.est_error": "ratio",
	"exec.self_ms": "ms", "exec.rows_examined_per_result": "ratio", "exec.probes_per_query": "count",
	"store.scan_ms": "ms", "store.probe_ms": "ms", "store.stats_calls_per_query": "count",
	"reason.materialize_s": "s", "reason.maintain_ms": "ms", "reason.rounds_per_mutation": "count",
	"reason.derived_per_mutation": "count", "reason.rederive_ratio": "ratio",
	"durable.fsync_ms": "ms", "durable.fsyncs_per_mutation": "ratio", "durable.checkpoint_ms": "ms",
	"durable.merge_ms": "ms", "durable.merges": "count", "durable.write_amplification": "ratio",
	"durable.recovery_s": "s",
	"repl.snapshot_s":    "s", "repl.lag_generations_p99": "count", "repl.resnapshots": "count",
	"runtime.gc_pause_ms": "ms", "runtime.alloc_mb_per_op": "MB",
}

// manifestMetric is one metric entry of BENCHMARK.json.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: read-mix, write-durable or cold-boot")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs and the operation sequence are drawn from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured open-loop window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 replays the run in process with spans and reports per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny corpora and short phases, for the benchmark's own tests")
	fs.StringVar(&o.bin, "bin", "", "path to the ontoserve binary under test")
	fs.StringVar(&o.work, "work", "", "directory for corpora, data directories, logs and spans")
	fs.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "benchmark manifest naming the metrics to report")
	fs.DurationVar(&o.proxyDelay, "proxy-delay", 0, "read-mix only: put a proxy delaying each client→server write by this much in front of the primary (the sensitivity self-test)")
	fs.StringVar(&o.prepare, "prepare", "", "write a cold-boot data directory here and exit (used by the cold-boot set-up)")
	fs.IntVar(&o.triples, "triples", 0, "with -prepare: asserted triples in the data directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.prepare != "" {
		if err := prepareMain(o); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if o.bin == "" || o.work == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -bin, -work, -seconds ≥ 1 and -trace 0|1")
		return 2
	}
	var m manifest
	data, err := os.ReadFile(o.manifest)
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: reading the manifest: %v\n", err)
		return 2
	}
	want := m.EndToEnd
	if o.trace == 1 {
		want = m.PerLayer
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	b, err := newBench(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	start := time.Now()
	cpu0 := readCPUStat()
	err = b.run(ctx)
	b.rep.note("cpu over the run: %s", cpuShares(cpu0, readCPUStat()))
	b.stopAll()
	b.cl.close()
	if err == nil && o.trace == 1 {
		err = b.tr.write(filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	b.provenance(stdout, time.Since(start))
	for _, n := range b.rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	if len(b.rep.invalid) > 0 {
		for _, r := range b.rep.invalid {
			fmt.Fprintf(stderr, "perfbench: invalid run: %s\n", r)
		}
		return 3
	}
	names := make([]string, 0, len(b.rep.metrics))
	for n := range b.rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-32s %14.6g %s\n", n, b.rep.metrics[n], units[n])
	}

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: b.rep.failed == 0, Attempted: b.rep.attempted, Failed: b.rep.failed, Metrics: map[string]mv{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, mm := range want {
		v, ok := b.rep.metrics[mm.Name]
		if !ok && o.trace == 1 {
			// A layer this workload does not exercise recorded no work.
			v, ok = 0, true
			fmt.Fprintf(stdout, "# %s: no work on this workload\n", mm.Name)
		}
		if !ok || units[mm.Name] != mm.Unit {
			fmt.Fprintf(stderr, "perfbench: %s did not produce metric %q in unit %q\n", o.workload, mm.Name, mm.Unit)
			return 4
		}
		out.Metrics[mm.Name] = mv{Value: v, Unit: mm.Unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func newBench(o options) (*bench, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	h, err := newHierarchy()
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	b := &bench{opt: o, cl: newClient(n), h: h, nproc: n, rep: &report{metrics: map[string]float64{}}, tr: newTracer()}
	for i := 0; i < n; i++ {
		b.pool = append(b.pool, newWorker())
	}
	return b, nil
}

func (b *bench) run(ctx context.Context) error {
	switch b.opt.workload {
	case "read-mix":
		return b.readMix(ctx)
	case "write-durable":
		return b.writeDurable(ctx)
	case "cold-boot":
		return b.coldBoot(ctx)
	}
	return fmt.Errorf("unknown workload %q (want read-mix, write-durable or cold-boot)", b.opt.workload)
}

// provenance prints the hardware and configuration block every run records.
func (b *bench) provenance(w io.Writer, took time.Duration) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d smoke=%v\n",
		b.opt.workload, b.opt.seed, b.opt.seconds, b.opt.trace, b.opt.smoke)
	fmt.Fprintf(w, "# hardware nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# source %s\n", sourceDigest())
	fmt.Fprintf(w, "# run took %.1fs\n", took.Seconds())
}

// sourceDigest fingerprints the Go sources under test (the checkout is not
// necessarily a git repository, so there may be no commit id to print).
func sourceDigest() string {
	d := newDigest()
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	if len(files) == 0 {
		return "unknown (run from the repository root to fingerprint the sources)"
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(d, "%s %d\n", f, len(data))
		d.Write(data)
	}
	return fmt.Sprintf("sha256:%s over %d files", d.sum()[:16], len(files))
}
