package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// read-mix: an in-memory primary with the result cache on, serving an
// open-loop mix of Zipf-skewed class retrievals and class×region joins and
// uniform point lookups over a 1e5-triple corpus. The cache budget is
// smaller than the mix's working set, so the hit ratio sits between 0 and
// 1: hot, small class results stay cached, large ones and point lookups
// are evaluated. There are no writes, so reason and durable stay idle.
const (
	readMixTriples  = 100_000
	readMixRate     = 300.0 // ops/s offered: a tenth of the capacity measured on 2 quiet cores
	readMixCacheMiB = 2
	setupRepeats    = 3
)

var readMixShares = readMix{class: 40, join: 30, point: 30}

// writeCorpus writes a corpus snapshot file under the work directory.
func (b *bench) writeCorpus(name string, c *corpus) (string, error) {
	path := filepath.Join(b.opt.work, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := c.writeSnapshot(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func (b *bench) readMix(ctx context.Context) error {
	size := readMixTriples
	if b.opt.smoke {
		size = 3000
	}
	var c *corpus
	var prim *node
	var setups, boots, rss []float64
	for r := 0; r < setupRepeats; r++ {
		if prim != nil {
			b.stop(prim)
		}
		t0, cpu0 := time.Now(), readCPUStat()
		c = newCorpus(b.h, b.opt.seed, size, 0)
		path, err := b.writeCorpus("read-mix.ndjson", c)
		if err != nil {
			return err
		}
		prim, err = b.startServer("read-mix-primary", "-annotations", path, "-cache", strconv.Itoa(readMixCacheMiB))
		if err != nil {
			return err
		}
		boot, err := b.waitQuery(ctx, prim, "inst-0 ?p ?o")
		if err != nil {
			return err
		}
		setups = append(setups, unstolen(time.Since(t0), cpu0, readCPUStat()).Seconds())
		boots = append(boots, boot.Seconds())
		rss = append(rss, float64(peakRSSKB(prim.cmd.Process.Pid))/1024)
	}
	b.rep.set("setup_s", median(setups))
	b.rep.set("boot_s", median(boots))
	b.rep.set("rss_mb", median(rss))
	b.rep.note("corpus: %d asserted triples, %d instances, %d hierarchy triples; cache %d MiB", c.size(), len(c.class), len(c.h.sub), readMixCacheMiB)

	m0, s0, err := b.snap(ctx, prim)
	if err != nil {
		return err
	}
	rate := readMixRate
	if b.opt.smoke {
		rate = 200
	}
	base := prim.url
	if b.opt.proxyDelay > 0 {
		px, err := startDelayProxy(prim.url, b.opt.proxyDelay)
		if err != nil {
			return err
		}
		defer px.close()
		base = px.url
	}
	cpu0 := cpuTime(prim)
	open, err := b.openReads(ctx, base, c, rate, readMixShares)
	if err != nil {
		return err
	}
	b.setCPUPerOp(cpuTime(prim)-cpu0, open)
	m1, s1, err := b.snap(ctx, prim)
	if err != nil {
		return err
	}
	b.serverLayers(m0, m1, s0, s1, open)
	if err := b.capacityReads(ctx, base, c, readMixShares); err != nil {
		return err
	}
	b.finishErrorRate()
	if b.opt.trace == 1 {
		b.stop(prim)
		st, err := corpusStore(c)
		if err != nil {
			return err
		}
		ops := readOps(rand.New(rand.NewSource(b.opt.seed*1000+1)), c, replayLimit(b.opt.smoke), readMixShares)
		return b.traceReplay(st, readItems(c, ops, replayLimit(b.opt.smoke)))
	}
	return nil
}

// snap scrapes /metrics and /stats together.
func (b *bench) snap(ctx context.Context, s *node) (promSample, statsDoc, error) {
	m, err := b.scrape(ctx, s)
	if err != nil {
		return nil, statsDoc{}, fmt.Errorf("scraping %s: %w", s.name, err)
	}
	st, err := b.stats(ctx, s)
	if err != nil {
		return nil, statsDoc{}, fmt.Errorf("reading %s /stats: %w", s.name, err)
	}
	return m, st, nil
}

// serverLayers derives the per-layer figures measured from outside the
// primary over one window: handler latencies, response size, cache
// behaviour, reasoner and WAL work.
func (b *bench) serverLayers(m0, m1 promSample, s0, s1 statsDoc, p phase) {
	r := b.rep
	r.set("server.query_handler_ms", meanDelta(m0, m1, "onto_query_seconds", 1e3))
	r.set("server.mutation_handler_ms", meanDelta(m0, m1, "onto_mutation_seconds", 1e3))
	if p.responses > 0 {
		r.set("server.response_bytes", float64(p.respBytes)/float64(p.responses))
	}
	hits, misses := s1.Cache.Hits-s0.Cache.Hits, s1.Cache.Misses-s0.Cache.Misses
	if hits+misses > 0 {
		r.set("server.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	r.set("server.cache_invalidations", float64(s1.Cache.Invalidations-s0.Cache.Invalidations))
	if muts := float64(s1.Mutations - s0.Mutations); muts > 0 {
		r.set("reason.rounds_per_mutation", float64(s1.Engine.Rounds-s0.Engine.Rounds)/muts)
		r.set("reason.derived_per_mutation", float64(s1.Engine.Derived-s0.Engine.Derived)/muts)
		r.set("durable.fsyncs_per_mutation", delta(m0, m1, "onto_wal_fsyncs_total")/muts)
	}
	if od := s1.Engine.Overdeleted - s0.Engine.Overdeleted; od > 0 {
		r.set("reason.rederive_ratio", float64(s1.Engine.Rederived-s0.Engine.Rederived)/float64(od))
	}
	r.set("durable.fsync_ms", meanDelta(m0, m1, "onto_wal_fsync_seconds", 1e3))
	r.set("durable.checkpoint_ms", meanDelta(m0, m1, "onto_checkpoint_seconds", 1e3))
	r.set("durable.merge_ms", meanDelta(m0, m1, "onto_durable_merge_seconds", 1e3))
	r.set("durable.merges", delta(m0, m1, "onto_durable_merges_total"))
	r.set("durable.write_amplification", m1["onto_durable_write_amplification"])
	r.note("window: %d queries, %d mutations, cache hits %d misses %d", s1.Queries-s0.Queries, s1.Mutations-s0.Mutations, hits, misses)
}

// finishErrorRate records failed over attempted operations so far.
func (b *bench) finishErrorRate() {
	if b.rep.attempted > 0 {
		b.rep.set("error_rate", float64(b.rep.failed)/float64(b.rep.attempted))
	}
}
