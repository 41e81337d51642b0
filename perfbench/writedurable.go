package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/repl"
	"repro/internal/store"
)

// write-durable: a durable primary (-fsync always, the policy that acks
// only synced writes) on the read-mix corpus plus one replica tailing it.
// The offered load is a fixed-rate mix of mutation batches (adds of new
// typed instances, which fire type propagation, and removes of earlier
// adds, which run delete-and-rederive), class retrievals, read-backs of
// just-written subjects, and a POST /checkpoint every second, so each run
// completes several checkpoints and merges. Every write touches the type
// predicate, which invalidates every cached class result: the cache hit
// ratio stays near 0, the bypass counterpart of read-mix.
const (
	writeDurableRate = 100.0 // ops/s offered: a ninth of the capacity measured on 2 quiet cores
	perBatch         = 5     // new instances per add batch (two triples each)
	visibleEvery     = 4     // every 4th add batch is probed for on the replica
	removeLag        = 8     // a remove targets a batch at least this many adds old
)

// wbatch is one add batch of new instances w-<batch>-<k> and its timeline,
// in nanoseconds since the workload started (0 = not yet).
type wbatch struct {
	class, site                                [perBatch]int32
	addSent, addAcked, removeSent, removeAcked atomic.Int64
	ok                                         atomic.Bool
	acked                                      chan struct{}
}

// wstate is the seeded write workload: its op sequence, its batches, and
// for every class the written instances the class's closure will contain.
type wstate struct {
	c       *corpus
	ops     []op
	batches []*wbatch
	byClass [][]int32 // class -> batch*perBatch+k
	t0      time.Time
}

func genWriteOps(seed int64, c *corpus, n, ckptEvery int) *wstate {
	rng := rand.New(rand.NewSource(seed))
	zc := rand.NewZipf(rng, zipfS, 1, numClasses-1)
	ws := &wstate{c: c, byClass: make([][]int32, numClasses)}
	nextRemove := 1 // odd batches are removed again, even ones stay
	addBatch := func() int32 {
		bt := &wbatch{acked: make(chan struct{})}
		id := int32(len(ws.batches))
		for k := 0; k < perBatch; k++ {
			bt.class[k] = int32(rng.Intn(numClasses))
			bt.site[k] = int32(rng.Intn(numSites))
			for _, a := range c.h.anc[bt.class[k]] {
				if a < numClasses {
					ws.byClass[a] = append(ws.byClass[a], id*perBatch+int32(k))
				}
			}
		}
		ws.batches = append(ws.batches, bt)
		return id
	}
	for i := 0; i < n; i++ {
		if ckptEvery > 0 && i%ckptEvery == ckptEvery-1 {
			ws.ops = append(ws.ops, op{kind: kCheckpoint})
			continue
		}
		r := rng.Intn(100)
		switch {
		case r < 20:
			ws.ops = append(ws.ops, op{kind: kAdd, a: addBatch()})
		case r < 30 && nextRemove+removeLag <= len(ws.batches):
			ws.ops = append(ws.ops, op{kind: kRemove, a: int32(nextRemove)})
			nextRemove += 2
		case r >= 65 && len(ws.batches) >= 3:
			last := int32(len(ws.batches) - 2)
			ws.ops = append(ws.ops, op{kind: kFresh, a: last &^ 1})
		default:
			ws.ops = append(ws.ops, op{kind: kClass, a: int32(c.h.order[zc.Uint64()])})
		}
	}
	return ws
}

func writtenName(b int32, k int) string { return fmt.Sprintf("%s%d-%d", writtenPrefix, b, k) }

// triples is the batch's asserted triples.
func (ws *wstate) triples(b int32) []wireTriple {
	bt := ws.batches[b]
	out := make([]wireTriple, 0, 2*perBatch)
	for k := 0; k < perBatch; k++ {
		s := writtenName(b, k)
		out = append(out,
			wireTriple{S: s, P: predType, O: ws.c.h.nodes[bt.class[k]]},
			wireTriple{S: s, P: predLocated, O: siteName(bt.site[k])})
	}
	return out
}

// freshRows is the oracle's answer to "w-b-0 ?p ?o".
func (ws *wstate) freshRows(b int32) map[string]bool {
	bt := ws.batches[b]
	want := map[string]bool{predLocated + " " + siteName(bt.site[0]): true}
	for _, a := range ws.c.h.anc[bt.class[0]] {
		want[predType+" "+ws.c.h.nodes[a]] = true
	}
	return want
}

func (ws *wstate) now() int64 { return int64(time.Since(ws.t0)) + 1 }

// parseWritten parses w-<batch>-<k>.
func parseWritten(x []byte) (b int32, k int, ok bool) {
	dash := bytes.LastIndexByte(x, '-')
	if dash <= len(writtenPrefix) {
		return 0, 0, false
	}
	bi, ok1 := parseSuffixInt(x[:dash], writtenPrefix)
	ki, ok2 := parseSuffixInt(x[dash:], "-")
	return int32(bi), ki, ok1 && ok2 && ki < perBatch
}

// doWrite runs one op of the write workload against the primary (and, for
// sampled adds, the replica).
func (b *bench) doWrite(ctx context.Context, w *worker, ws *wstate, prim, rep *node, o op) (string, time.Time, error) {
	switch o.kind {
	case kAdd:
		bt := ws.batches[o.a]
		bt.addSent.Store(ws.now())
		resp, err := b.cl.mutate(ctx, prim.url, ws.triples(o.a), nil)
		end := time.Now()
		if err == nil && resp.Added != 2*perBatch {
			err = fmt.Errorf("add batch %d: added %d, want %d", o.a, resp.Added, 2*perBatch)
		}
		if err == nil {
			bt.addAcked.Store(ws.now())
			bt.ok.Store(true)
		}
		close(bt.acked)
		if err != nil {
			return "mutation", end, err
		}
		if o.a%visibleEvery == 0 && rep != nil {
			vis, err := b.awaitVisible(ctx, w, rep.url, ws, o.a, end)
			if err != nil {
				return "mutation", end, err
			}
			w.sample("visible", vis)
		}
		return "mutation", end, nil
	case kRemove:
		bt := ws.batches[o.a]
		select {
		case <-bt.acked:
		case <-ctx.Done():
			return "mutation", time.Time{}, ctx.Err()
		}
		if !bt.ok.Load() {
			return "mutation", time.Time{}, fmt.Errorf("remove batch %d: its add failed", o.a)
		}
		bt.removeSent.Store(ws.now())
		resp, err := b.cl.mutate(ctx, prim.url, nil, ws.triples(o.a))
		end := time.Now()
		if err == nil && resp.Removed != 2*perBatch {
			err = fmt.Errorf("remove batch %d: removed %d, want %d", o.a, resp.Removed, 2*perBatch)
		}
		if err == nil {
			bt.removeAcked.Store(ws.now())
		}
		return "mutation", end, err
	case kFresh:
		bt := ws.batches[o.a]
		select {
		case <-bt.acked:
		case <-ctx.Done():
			return "query", time.Time{}, ctx.Err()
		}
		res, err := b.pointQuery(ctx, w, prim.url, writtenName(o.a, 0)+" ?p ?o", ws.freshRows(o.a))
		w.respBytes += int64(res.bytes)
		w.responses++
		return "query", time.Time{}, err
	case kCheckpoint:
		return "checkpoint", time.Time{}, b.cl.postJSON(ctx, prim.url+"/checkpoint", nil, nil)
	}
	return "query", time.Time{}, b.classUnderWrites(ctx, w, ws, prim.url, o.a)
}

// classUnderWrites checks a class retrieval that races with writes by
// bracketing. Every row must be a distinct member; a page that is not
// truncated must in addition hold the whole answer: corpus members must
// match the closure exactly; a written
// instance may appear only if its add was sent before the answer arrived
// and its remove had not been acknowledged before the query was sent; and
// every written member acknowledged before the query whose remove was not
// yet sent when the answer arrived must appear.
func (b *bench) classUnderWrites(ctx context.Context, w *worker, ws *wstate, base string, class int32) error {
	c := ws.c
	seen := w.bits(len(c.class) + len(ws.batches)*perBatch)
	static, written := 0, 0
	reqStart := ws.now()
	res, err := b.cl.query(ctx, base, "?x type "+c.h.nodes[class], pageRows, w.br, func(r *bindRow) bool {
		x := r.get("x")
		if i, ok := c.instOf(x); ok {
			static++
			return c.h.isA(int(c.class[i]), int(class)) && !testAndSet(seen, i)
		}
		bi, k, ok := parseWritten(x)
		if !ok || int(bi) >= len(ws.batches) {
			return false
		}
		bt := ws.batches[bi]
		if !c.h.isA(int(bt.class[k]), int(class)) || bt.addSent.Load() == 0 {
			return false
		}
		if ra := bt.removeAcked.Load(); ra != 0 && ra < reqStart {
			return false
		}
		written++
		return !testAndSet(seen, len(c.class)+int(bi)*perBatch+k)
	})
	respEnd := ws.now()
	w.respBytes += int64(res.bytes)
	w.responses++
	if err != nil || res.truncated {
		return err // a full page of valid, distinct members is all a page can show
	}
	if static != len(c.members[class]) {
		return fmt.Errorf("class %s: %d corpus members, oracle expects %d", c.h.nodes[class], static, len(c.members[class]))
	}
	required := 0
	for _, idx := range ws.byClass[class] {
		bt := ws.batches[idx/perBatch]
		aa, rs := bt.addAcked.Load(), bt.removeSent.Load()
		if aa != 0 && aa < reqStart && (rs == 0 || rs > respEnd) {
			required++
		}
	}
	if written < required {
		return fmt.Errorf("class %s: %d written members, at least %d were acknowledged before the query", c.h.nodes[class], written, required)
	}
	return nil
}

// awaitVisible polls the replica until a just-acknowledged batch's first
// instance is fully visible and returns the time since the ack.
func (b *bench) awaitVisible(ctx context.Context, w *worker, base string, ws *wstate, bi int32, acked time.Time) (time.Duration, error) {
	want := ws.freshRows(bi)
	bgp := writtenName(bi, 0) + " ?p ?o"
	deadline := acked.Add(20 * time.Second)
	for {
		res, err := b.cl.query(ctx, base, bgp, 0, w.br, func(r *bindRow) bool {
			return want[string(r.get("p"))+" "+string(r.get("o"))]
		})
		if err != nil {
			return 0, fmt.Errorf("replica read-back of batch %d: %w", bi, err)
		}
		if res.rows == len(want) {
			return time.Since(acked), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("batch %d not visible on the replica 20s after its ack", bi)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitConverged waits until the replica has applied the primary's latest
// generation.
func (b *bench) waitConverged(ctx context.Context, prim, rep *node, minResnapshots int64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ps, err := b.stats(ctx, prim)
		if err != nil {
			return err
		}
		rs, err := b.replicaStatus(ctx, rep)
		if err == nil && rs.AppliedGeneration == ps.Engine.Generation && rs.Resnapshots >= minResnapshots {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not converge within %v (applied %d, primary %d)", limit, rs.AppliedGeneration, ps.Engine.Generation)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sameSnapshot checks that two servers serve byte-identical /snapshot
// streams.
func (b *bench) sameSnapshot(ctx context.Context, x, y *node) error {
	hx, nx, err := b.cl.hashBody(ctx, x.url+"/snapshot")
	if err != nil {
		return err
	}
	hy, ny, err := b.cl.hashBody(ctx, y.url+"/snapshot")
	if err != nil {
		return err
	}
	if hx != hy {
		return fmt.Errorf("%s /snapshot (%d bytes, %s) differs from %s's (%d bytes, %s)", x.name, nx, hx[:12], y.name, ny, hy[:12])
	}
	return nil
}

// lagSampler samples a replica's lag every 50ms until stop is closed.
func (b *bench) lagSampler(ctx context.Context, rep *node, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var lags []float64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- lags
				return
			case <-t.C:
				if rs, err := b.replicaStatus(ctx, rep); err == nil {
					lags = append(lags, float64(rs.Lag))
				}
			}
		}
	}()
	return out
}

func (b *bench) writeDurable(ctx context.Context) error {
	size := readMixTriples
	rate := writeDurableRate
	if b.opt.smoke {
		size, rate = 3000, 100
	}
	dir := filepath.Join(b.opt.work, "write-durable.data")
	var c *corpus
	var prim, rep *node
	var setups, boots, rss []float64
	for r := 0; r < setupRepeats; r++ {
		if prim != nil {
			b.stop(rep)
			b.stop(prim)
		}
		t0, cpu0 := time.Now(), readCPUStat()
		c = newCorpus(b.h, b.opt.seed, size, 0)
		path, err := b.writeCorpus("write-durable.ndjson", c)
		if err == nil {
			err = os.RemoveAll(dir)
		}
		if err != nil {
			return err
		}
		prim, err = b.startServer("wd-primary", "-data-dir", dir, "-fsync", "always", "-checkpoint-mib", "-1", "-annotations", path)
		if err != nil {
			return err
		}
		boot, err := b.waitQuery(ctx, prim, "inst-0 ?p ?o")
		if err != nil {
			return err
		}
		if err := b.cl.postJSON(ctx, prim.url+"/checkpoint", nil, nil); err != nil {
			return fmt.Errorf("folding the seeded corpus into a segment: %w", err)
		}
		if rep, err = b.startServer("wd-replica", "-replicate-from", prim.url); err != nil {
			return err
		}
		if err := b.waitConverged(ctx, prim, rep, 0, 60*time.Second); err != nil {
			return err
		}
		setups = append(setups, unstolen(time.Since(t0), cpu0, readCPUStat()).Seconds())
		boots = append(boots, boot.Seconds())
		rss = append(rss, float64(peakRSSKB(prim.cmd.Process.Pid)+peakRSSKB(rep.cmd.Process.Pid))/1024)
	}
	b.rep.set("setup_s", median(setups))
	b.rep.set("boot_s", median(boots))
	b.rep.set("rss_mb", median(rss))

	warm := int(rate * warmupSeconds(b.opt.smoke))
	n := warm + int(rate*float64(b.opt.seconds))
	ckptPeriod := 1.0 // seconds of offered load between checkpoints
	if b.opt.smoke {
		ckptPeriod = 0.25
	}
	ckptEvery := int(rate * ckptPeriod)
	ws := genWriteOps(b.opt.seed*1000+3, c, n+40_000, ckptEvery)
	ws.t0 = time.Now()
	b.rep.note("write ops: %d at %.0f/s (warm-up %d), checkpoint every %d ops, %d instances per batch", n, rate, warm, ckptEvery, perBatch)

	m0, s0, err := b.snap(ctx, prim)
	if err != nil {
		return err
	}
	r0, err := b.replicaStatus(ctx, rep)
	if err != nil {
		return err
	}
	var lagStop chan struct{}
	var lagc <-chan []float64
	if b.opt.trace == 1 {
		lagStop = make(chan struct{})
		lagc = b.lagSampler(ctx, rep, lagStop)
	}
	cpu0 := cpuTime(prim, rep)
	open := b.openLoop(ctx, n, warm, rate, func(ctx context.Context, w *worker, i int) (string, time.Time, error) {
		return b.doWrite(ctx, w, ws, prim, rep, ws.ops[i])
	})
	b.setCPUPerOp(cpuTime(prim, rep)-cpu0, open)
	if lagStop != nil {
		close(lagStop)
		lags := <-lagc
		b.rep.set("repl.lag_generations_p99", quantile(lags, 0.99))
	}
	b.checkLateness("open loop", open)
	m1, s1, err := b.snap(ctx, prim)
	if err != nil {
		return err
	}
	b.serverLayers(m0, m1, s0, s1, open)
	b.kindNotes("open loop", open)
	b.setQueryLatency(open)
	vis := open.samples["visible"]
	b.rep.set("mutation_p50_ms", median(open.samples["mutation"]))
	b.rep.set("mutation_p99_ms", open.quietQuantile(func(k string) bool { return k == "mutation" }, tailQ))
	b.rep.set("replica_visible_p50_ms", median(vis))
	b.rep.set("replica_visible_p99_ms", quantile(vis, tailQ))
	ckpts, merges := delta(m0, m1, "onto_checkpoints_total"), delta(m0, m1, "onto_durable_merges_total")
	b.rep.note("background work in the window: %.0f checkpoints, %.0f merges", ckpts, merges)
	if minCk := 3.0; ckpts < minCk || merges < 1 {
		b.rep.invalidate("the window completed %.0f checkpoints and %.0f merges; the workload needs at least %.0f and 1", ckpts, merges, minCk)
	}

	next := atomic.Int64{}
	next.Store(int64(n))
	cp := b.closedLoop(ctx, capacityDuration(b.opt.smoke), func(ctx context.Context, w *worker, _ int) (string, time.Time, error) {
		i := int(next.Add(1) - 1)
		if i >= len(ws.ops) {
			return "query", time.Time{}, errors.New("write op sequence exhausted")
		}
		return b.doWrite(ctx, w, ws, prim, rep, ws.ops[i])
	})
	b.setCapacity(cp)
	used := int(next.Load())

	b.rep.check("replica converges on the primary", b.waitConverged(ctx, prim, rep, r0.Resnapshots, 60*time.Second))
	b.rep.check("replica /snapshot equals the primary's", b.sameSnapshot(ctx, prim, rep))
	sEnd, err := b.stats(ctx, prim)
	if err != nil {
		return err
	}
	rEnd, err := b.replicaStatus(ctx, rep)
	if err != nil {
		return err
	}
	b.rep.set("repl.resnapshots", float64(rEnd.Resnapshots-r0.Resnapshots))
	du, err := dirBytes(dir)
	if err != nil {
		return err
	}
	b.rep.set("disk_bytes_per_triple", float64(du)/float64(max(1, sEnd.Asserted)))
	b.rep.set("durable.recovery_s", m1["onto_durable_recovery_seconds"])
	b.finishErrorRate()

	if b.opt.trace == 1 {
		b.stop(rep)
		if err := b.traceReplicaBoot(prim); err != nil {
			return err
		}
		b.stop(prim)
		st, err := corpusStore(c)
		if err != nil {
			return err
		}
		return b.traceReplay(st, ws.items(min(used, replayLimit(b.opt.smoke))))
	}
	return nil
}

// items turns the first n write ops into replay items (checkpoints have no
// in-memory counterpart and are skipped).
func (ws *wstate) items(n int) []replayItem {
	var out []replayItem
	for _, o := range ws.ops[:n] {
		switch o.kind {
		case kAdd, kRemove:
			var ts []store.Triple
			for _, t := range ws.triples(o.a) {
				ts = append(ts, store.Triple{Subject: t.S, Predicate: t.P, Object: t.O})
			}
			if o.kind == kAdd {
				out = append(out, replayItem{add: ts})
			} else {
				out = append(out, replayItem{remove: ts})
			}
		case kFresh:
			out = append(out, replayItem{bgp: writtenName(o.a, 0) + " ?p ?o"})
		case kClass:
			out = append(out, replayItem{bgp: "?x type " + ws.c.h.nodes[o.a], limit: pageRows})
		}
	}
	return out
}

// traceReplicaBoot times an in-process replica bootstrap (repl.New: the
// snapshot fetch and restore) against the running primary.
func (b *bench) traceReplicaBoot(prim *node) error {
	sp := b.tr.begin("repl.snapshot", -1, -1)
	r, err := repl.New(repl.Options{Primary: prim.url})
	d := b.tr.end(sp)
	if err != nil {
		return fmt.Errorf("in-process replica bootstrap: %w", err)
	}
	b.rep.set("repl.snapshot_s", d.Seconds())
	b.rep.note("in-process replica bootstrap: %d asserted triples in %.3fs", r.Base().Len(), d.Seconds())
	return nil
}
