package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// worker is one load-generator thread: it owns a response reader, the
// oracle's scratch space, and worker-local samples merged when a phase ends.
type worker struct {
	br        *bufio.Reader
	seen      []uint64 // instance bitset for duplicate detection
	samples   map[string][]float64
	series    []sampleAt
	genLate   []float64
	attempted int64
	failed    int64
	respBytes int64
	responses int64
	errs      []string
}

func newWorker() *worker {
	return &worker{br: bufio.NewReaderSize(nil, 64<<10), samples: map[string][]float64{}}
}

func (w *worker) sample(name string, d time.Duration) {
	w.samples[name] = append(w.samples[name], float64(d)/float64(time.Millisecond))
}

// sampleAt is one latency sample with the instant (seconds into its phase)
// it belongs to: the op's due time in an open loop, its completion in a
// closed one.
type sampleAt struct {
	at, ms float64
	kind   string
}

// record takes a sample and keeps it in the phase's time series.
func (w *worker) record(kind string, at, d time.Duration) {
	w.sample(kind, d)
	w.series = append(w.series, sampleAt{at: at.Seconds(), ms: float64(d) / float64(time.Millisecond), kind: kind})
}

func (w *worker) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// bits returns the cleared duplicate-detection bitset for n instances.
func (w *worker) bits(n int) []uint64 {
	words := (n + 63) / 64
	if cap(w.seen) < words {
		w.seen = make([]uint64, words)
	}
	w.seen = w.seen[:words]
	clear(w.seen)
	return w.seen
}

// testAndSet marks bit i and reports whether it was already set.
func testAndSet(bs []uint64, i int) bool {
	m := uint64(1) << (i & 63)
	was := bs[i>>6]&m != 0
	bs[i>>6] |= m
	return was
}

// opFunc runs operation i on worker w. It returns the latency class the
// operation's sample goes to and the instant the operation completed from
// its caller's point of view (zero means "now"); a non-nil error marks the
// operation failed (transport error, bad status or wrong answer).
type opFunc func(ctx context.Context, w *worker, i int) (kind string, end time.Time, err error)

// phase is what one load phase measured.
type phase struct {
	span      time.Duration // planned length, cut into subWindows
	served    []float64     // per sub-window share of CPU demand the host served
	samples   map[string][]float64
	series    []sampleAt
	genLate   []float64
	attempted int64
	failed    int64
	ok        int64
	respBytes int64
	responses int64
	elapsed   time.Duration
	errs      []string
}

func (b *bench) collect(ws []*worker, elapsed, span time.Duration, served []float64) phase {
	p := phase{samples: map[string][]float64{}, elapsed: elapsed, span: span, served: served}
	for _, w := range ws {
		for k, v := range w.samples {
			p.samples[k] = append(p.samples[k], v...)
		}
		p.series = append(p.series, w.series...)
		p.genLate = append(p.genLate, w.genLate...)
		p.attempted += w.attempted
		p.failed += w.failed
		p.respBytes += w.respBytes
		p.responses += w.responses
		p.errs = append(p.errs, w.errs...)
	}
	p.ok = p.attempted - p.failed
	b.rep.attempted += p.attempted
	b.rep.failed += p.failed
	for _, e := range p.errs {
		b.rep.note("error: %s", e)
	}
	return p
}

// openLoop issues ops 0..n-1 on a fixed schedule (op i is due at i/rate
// seconds) over the worker pool, whatever the servers' progress: a slow
// server builds a queue and every queued op's latency counts from its due
// time, so stalls are charged to every request they delay. Ops below warm
// are issued and checked but not sampled.
//
// The generator's own lateness is recorded per op: how long after the
// later of its due time and its worker becoming free it actually started.
// That delay is the generator's, not the server's.
func (b *bench) openLoop(ctx context.Context, n, warm int, rate float64, do opFunc) phase {
	ws := b.workers()
	start := time.Now().Add(10 * time.Millisecond)
	span := time.Duration(float64(n) / rate * float64(time.Second))
	done := make(chan struct{})
	servedc := windowServed(start, span, done)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			free := time.Now()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				begin := time.Now()
				ref := due
				if free.After(due) {
					ref = free
				}
				late := begin.Sub(ref)
				kind, end, err := do(ctx, w, i)
				if end.IsZero() {
					end = time.Now()
				}
				w.attempted++
				if err != nil {
					w.fail(fmt.Errorf("op %d: %w", i, err))
				} else if i >= warm {
					// Queueing behind earlier ops counts; the generator's
					// own lateness does not (it is reported on its own).
					w.record(kind, due.Sub(start), end.Sub(due)-late)
				}
				if i >= warm {
					w.genLate = append(w.genLate, float64(late)/float64(time.Millisecond))
				}
				free = time.Now()
			}
		}(w)
	}
	wg.Wait()
	close(done)
	return b.collect(ws, time.Since(start), span, <-servedc)
}

// closedLoop runs ops back to back on every worker for d and reports how
// many completed: the saturation throughput at nproc connections.
func (b *bench) closedLoop(ctx context.Context, d time.Duration, do opFunc) phase {
	ws := b.workers()
	start := time.Now()
	stop := start.Add(d)
	done := make(chan struct{})
	servedc := windowServed(start, d, done)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				kind, end, err := do(ctx, w, i)
				if end.IsZero() {
					end = time.Now()
				}
				w.attempted++
				if err != nil {
					w.fail(fmt.Errorf("capacity op %d: %w", i, err))
				} else {
					w.record(kind, end.Sub(start), end.Sub(t0))
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	return b.collect(ws, time.Since(start), d, <-servedc)
}

func (b *bench) workers() []*worker {
	ws := make([]*worker, b.nproc)
	for i := range ws {
		ws[i] = b.pool[i]
		ws[i].samples = map[string][]float64{}
		ws[i].series = ws[i].series[:0]
		ws[i].genLate = ws[i].genLate[:0]
		ws[i].attempted, ws[i].failed, ws[i].respBytes, ws[i].responses = 0, 0, 0, 0
		ws[i].errs = nil
	}
	return ws
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// subWindows is how many equal sub-windows a phase is cut into for its
// windowed statistics.
const subWindows = 10

// windows splits a phase's samples of the kinds in want into subWindows
// equal spans of its planned length.
func (p phase) windows(want func(string) bool) [][]float64 {
	out := make([][]float64, subWindows)
	for _, s := range p.series {
		if !want(s.kind) {
			continue
		}
		k := int(s.at / p.span.Seconds() * subWindows)
		k = max(0, min(k, subWindows-1))
		out[k] = append(out[k], s.ms)
	}
	return out
}

// servedIn is sub-window k's served CPU share (1 if unmeasured).
func (p phase) servedIn(k int) float64 {
	if k < len(p.served) && p.served[k] > 0 {
		return p.served[k]
	}
	return 1
}

// quietQuantile is the q-quantile of the samples in the quieter half of
// the phase's sub-windows: those in which the host served the largest
// share of the CPU time the machine asked for. On a shared virtual machine
// the hypervisor deschedules a vCPU for milliseconds at a time, and a
// request caught by it waits that long whatever the program does; ranking
// sub-windows by steal and keeping the quieter half measures the program
// rather than its neighbours. Program-made stalls (GC, locks, fsync) are
// not steal and stay in.
func (p phase) quietQuantile(want func(string) bool, q float64) float64 {
	ws := p.windows(want)
	var idx []int
	for k, w := range ws {
		if len(w) > 0 {
			idx = append(idx, k)
		}
	}
	sort.SliceStable(idx, func(i, j int) bool { return p.servedIn(idx[i]) > p.servedIn(idx[j]) })
	var pool []float64
	for _, k := range idx[:(len(idx)+1)/2] {
		pool = append(pool, ws[k]...)
	}
	return quantile(pool, q)
}

// servedRate is completed ops per second of the CPU time the host served
// over the phase (each sub-window's span times its served share).
func (p phase) servedRate() float64 {
	var secs float64
	for k := 0; k < subWindows; k++ {
		secs += p.span.Seconds() / subWindows * p.servedIn(k)
	}
	return float64(len(p.series)) / secs
}

func isQuery(kind string) bool {
	return kind == "class" || kind == "join" || kind == "point" || kind == "query"
}

// kindNotes records each kind's sample count, median and p99.
func (b *bench) kindNotes(name string, p phase) {
	kinds := make([]string, 0, len(p.samples))
	for k := range p.samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := p.samples[k]
		b.rep.note("%s %-10s n=%-6d p50 %8.3f ms  p99 %8.3f ms", name, k, len(v), median(v), quantile(v, 0.99))
	}
}

// tail is the latency percentile reported next to the median: p99, the
// highest with at least ten samples beyond it once a phase has 1000.
const tailQ = 0.99

// checkLateness marks the run invalid when the generator itself fell
// behind its schedule: its median lateness exceeded lateP50MS, or its p99
// exceeded lateP99MS. Timer wake-ups on a shared machine overshoot by a
// millisecond or more on their own, so single late starts are expected;
// sustained lateness means the offered rate was not offered.
func (b *bench) checkLateness(name string, p phase) {
	if len(p.genLate) == 0 {
		return
	}
	p50, p99 := median(p.genLate), quantile(p.genLate, 0.99)
	b.rep.note("%s: generator lateness p50 %.3f ms, p99 %.3f ms over %d ops", name, p50, p99, len(p.genLate))
	if p50 > lateP50MS || p99 > lateP99MS {
		b.rep.invalidate("%s: the load generator fell behind its own schedule (lateness p50 %.2f ms, p99 %.2f ms; limits %.0f and %.0f ms)", name, p50, p99, lateP50MS, lateP99MS)
	}
}

const (
	lateP50MS = 2.0
	lateP99MS = 30.0
)
