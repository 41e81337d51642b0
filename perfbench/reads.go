package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Operation kinds. Each op is drawn from the seed before the run starts, so
// the untraced run and the traced replay see the same sequence.
const (
	kClass      uint8 = iota // ?x type C, C Zipf-skewed over the hierarchy
	kJoin                    // ?x type C . ?x locatedIn ?s . ?s partOf R, (C,R) Zipf-skewed
	kPoint                   // inst-N ?p ?o, N uniform
	kAdd                     // POST /triples: a batch of new typed instances
	kRemove                  // POST /triples: remove an earlier batch (DRed)
	kFresh                   // read back a just-written subject on the primary
	kCheckpoint              // POST /checkpoint
)

// kindName labels a read op's latency samples.
var kindName = [...]string{kClass: "class", kJoin: "join", kPoint: "point"}

type op struct {
	kind uint8
	a, b int32
}

// readMix is the share of each read kind in a query mix, in percent.
type readMix struct{ class, join, point int }

// zipfS is the skew of class and class×region popularity.
const zipfS = 1.1

// pageRows is the row limit class retrievals and joins ask for: clients
// page through large classes, so one request's cost stays bounded.
const pageRows = 1000

// readOps draws n read ops. Class popularity follows the hierarchy's rank
// order (most specific classes hottest); point lookups are uniform over the
// corpus's instances, so they nearly always miss the cache.
func readOps(rng *rand.Rand, c *corpus, n int, mix readMix) []op {
	zc := rand.NewZipf(rng, zipfS, 1, numClasses-1)
	zj := rand.NewZipf(rng, zipfS, 1, numClasses*numRegions-1)
	ops := make([]op, n)
	for i := range ops {
		r := rng.Intn(mix.class + mix.join + mix.point)
		switch {
		case r < mix.class:
			ops[i] = op{kind: kClass, a: int32(c.h.order[zc.Uint64()])}
		case r < mix.class+mix.join:
			k := int(zj.Uint64())
			ops[i] = op{kind: kJoin, a: int32(c.h.order[k/numRegions]), b: int32(k % numRegions)}
		default:
			ops[i] = op{kind: kPoint, a: int32(rng.Intn(len(c.class)))}
		}
	}
	return ops
}

// bgpOf is the query text of a read op.
func (c *corpus) bgpOf(o op) string {
	switch o.kind {
	case kClass:
		return "?x type " + c.h.nodes[o.a]
	case kJoin:
		return "?x type " + c.h.nodes[o.a] + " . ?x locatedIn ?s . ?s partOf " + regionName(o.b)
	default:
		return instName(o.a) + " ?p ?o"
	}
}

// parseSuffixInt parses the decimal number after prefix in b.
func parseSuffixInt(b []byte, prefix string) (int, bool) {
	if !bytes.HasPrefix(b, []byte(prefix)) || len(b) == len(prefix) {
		return 0, false
	}
	n := 0
	for _, ch := range b[len(prefix):] {
		if ch < '0' || ch > '9' || n > 1<<30 {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

// instOf parses an inst-N name against the corpus.
func (c *corpus) instOf(b []byte) (int, bool) {
	i, ok := parseSuffixInt(b, instPrefix)
	return i, ok && i < len(c.class)
}

// doRead runs one read op against base and checks every row against the
// corpus oracle. Class and join pages must hold exactly min(closure,
// pageRows) distinct members of the closure, truncated exactly when the
// closure is larger;
// a point lookup must return exactly the instance's asserted triples and
// its inferred types.
func (b *bench) doRead(ctx context.Context, w *worker, base string, c *corpus, o op) error {
	bgp := c.bgpOf(o)
	var res queryResult
	var err error
	switch o.kind {
	case kClass, kJoin:
		seen := w.bits(len(c.class))
		want := len(c.members[o.a])
		if o.kind == kJoin {
			want = c.joinCount(o.a, o.b)
		}
		res, err = b.cl.query(ctx, base, bgp, pageRows, w.br, func(r *bindRow) bool {
			i, ok := c.instOf(r.get("x"))
			if !ok || !c.h.isA(int(c.class[i]), int(o.a)) || testAndSet(seen, i) {
				return false
			}
			if o.kind == kJoin {
				k, ok := parseSuffixInt(r.get("s"), "site-")
				return ok && int32(k) == c.site[i] && regionOf(c.site[i]) == o.b
			}
			return true
		})
		if err == nil && (res.rows != min(want, pageRows) || res.truncated != (want > pageRows)) {
			err = fmt.Errorf("query %q: %d rows (truncated %v), oracle expects %d of %d", bgp, res.rows, res.truncated, min(want, pageRows), want)
		}
	default:
		res, err = b.pointQuery(ctx, w, base, bgp, c.pointRows(int(o.a)))
	}
	w.respBytes += int64(res.bytes)
	w.responses++
	return err
}

// pointRows is the oracle's answer to "inst-i ?p ?o": predicate→objects.
func (c *corpus) pointRows(i int) map[string]bool {
	want := map[string]bool{}
	for _, a := range c.h.anc[c.class[i]] {
		want[predType+" "+c.h.nodes[a]] = true
	}
	want[predLocated+" "+siteName(c.site[i])] = true
	for j := 0; j < c.links; j++ {
		want[predLinks+" "+instName(c.linkTarget(int32(i), j))] = true
	}
	return want
}

// pointQuery checks that a subject query returns exactly the want rows.
func (b *bench) pointQuery(ctx context.Context, w *worker, base, bgp string, want map[string]bool) (queryResult, error) {
	got := map[string]bool{}
	res, err := b.cl.query(ctx, base, bgp, 0, w.br, func(r *bindRow) bool {
		key := string(r.get("p")) + " " + string(r.get("o"))
		if !want[key] || got[key] {
			return false
		}
		got[key] = true
		return true
	})
	if err == nil && res.rows != len(want) {
		err = fmt.Errorf("query %q: %d rows, oracle expects %d", bgp, res.rows, len(want))
	}
	return res, err
}

// openReads runs the open-loop read window of a workload at rate (after a
// warm-up that is issued and checked but not sampled) and reports
// query_p50_ms and query_p99_ms.
func (b *bench) openReads(ctx context.Context, base string, c *corpus, rate float64, mix readMix) (phase, error) {
	warm := int(rate * warmupSeconds(b.opt.smoke))
	n := warm + int(rate*float64(b.opt.seconds))
	ops := readOps(rand.New(rand.NewSource(b.opt.seed*1000+1)), c, n, mix)
	b.rep.note("read ops: %d at %.0f/s (warm-up %d), mix class/join/point %d/%d/%d", n, rate, warm, mix.class, mix.join, mix.point)
	open := b.openLoop(ctx, n, warm, rate, func(ctx context.Context, w *worker, i int) (string, time.Time, error) {
		return kindName[ops[i].kind], time.Time{}, b.doRead(ctx, w, base, c, ops[i])
	})
	b.checkLateness("open loop", open)
	b.kindNotes("open loop", open)
	b.setQueryLatency(open)
	return open, ctx.Err()
}

// capacityReads runs the same mix closed-loop on every worker and reports
// capacity_ops_s, the saturation throughput at nproc connections.
func (b *bench) capacityReads(ctx context.Context, base string, c *corpus, mix readMix) error {
	ops := readOps(rand.New(rand.NewSource(b.opt.seed*1000+2)), c, 1<<16, mix)
	cp := b.closedLoop(ctx, capacityDuration(b.opt.smoke), func(ctx context.Context, w *worker, i int) (string, time.Time, error) {
		return kindName[ops[i%len(ops)].kind], time.Time{}, b.doRead(ctx, w, base, c, ops[i%len(ops)])
	})
	b.setCapacity(cp)
	return ctx.Err()
}

func warmupSeconds(smoke bool) float64 {
	if smoke {
		return 0.2
	}
	return 1
}

func capacityDuration(smoke bool) time.Duration {
	if smoke {
		return 300 * time.Millisecond
	}
	return 4 * time.Second
}

// setQueryLatency reports query_p50_ms (over the whole window) and
// query_p99_ms (over the quieter half of the sub-windows) from an open
// loop.
func (b *bench) setQueryLatency(p phase) {
	var q []float64
	for k, v := range p.samples {
		if isQuery(k) {
			q = append(q, v...)
		}
	}
	b.rep.set("query_p50_ms", median(q))
	b.rep.set("query_p99_ms", p.quietQuantile(isQuery, tailQ))
	b.rep.note("open loop: %d query samples; p99 over the whole window %.3f ms; served CPU share per sub-window %.3f",
		len(q), quantile(q, tailQ), p.served)
}

// setCapacity reports capacity_ops_s from a closed loop: completed ops
// per second of CPU time the host served it.
func (b *bench) setCapacity(p phase) {
	b.rep.set("capacity_ops_s", p.servedRate())
	b.rep.note("capacity: %d ops in %.2fs (%.0f/s overall), %d failed", p.ok, p.elapsed.Seconds(), float64(p.ok)/p.elapsed.Seconds(), p.failed)
}
