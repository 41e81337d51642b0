package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/store"
)

// cold-boot: set-up writes a data directory of 5e5 asserted triples (about
// 6% of them type triples) holding a three-segment chain plus an
// un-checkpointed WAL tail of about 10%. The measured part cold-starts
// ontoserve on it repeatedly (each timed to its first answered /query),
// bootstraps one replica from the booted primary, runs a query window and
// a capacity phase on the primary, and finally re-syncs the replica across
// a gap: it is paused, the primary is written past -repl-retain, and the
// time from resuming it to convergence is measured. Recovery,
// materialization and replica bootstrap do nearly all the work.
const (
	coldBootTriples  = 500_000
	coldBootLinks    = 14 // linksTo triples per instance: 1 type triple in 16
	coldBootBoots    = 3
	coldBootRetain   = 64
	coldBootGapWrite = 96    // add batches written while the replica is paused
	coldBootRate     = 500.0 // ops/s offered: a ninth of the capacity measured on 2 quiet cores
)

var coldBootShares = readMix{class: 40, join: 20, point: 40}

// prepareMain builds a cold-boot data directory in its own process (so the
// generator does not keep the corpus's memory). The digest of the asserted
// snapshot taken before the engine closes goes to <dir>.expect.
func prepareMain(o options) error {
	h, err := newHierarchy()
	if err != nil {
		return err
	}
	c := newCorpus(h, o.seed, o.triples, coldBootLinks)
	if err := os.RemoveAll(o.prepare); err != nil {
		return err
	}
	policy, err := durable.ParseFsyncPolicy("off")
	if err != nil {
		return err
	}
	st := store.New()
	eng, err := durable.Open(st, durable.Options{Dir: o.prepare, Fsync: policy, CheckpointBytes: -1, MergeRatio: -1})
	if err != nil {
		return err
	}
	total := c.size()
	cuts := []int{total * 7 / 10, total * 8 / 10, total * 9 / 10}
	batch := make([]store.Triple, 0, 1<<15)
	n := 0
	flush := func() {
		if err == nil && len(batch) > 0 {
			_, err = st.AddBatch(batch)
		}
		batch = batch[:0]
	}
	c.each(func(t store.Triple) {
		batch = append(batch, t)
		n++
		if len(batch) == cap(batch) || (len(cuts) > 0 && n == cuts[0]) {
			flush()
		}
		if len(cuts) > 0 && n == cuts[0] {
			cuts = cuts[1:]
			if err == nil {
				err = eng.Checkpoint()
			}
		}
	})
	flush()
	if err != nil {
		eng.Close()
		return fmt.Errorf("writing the data directory: %w", err)
	}
	d := newDigest()
	if _, err := st.Snapshot(d); err != nil {
		eng.Close()
		return err
	}
	if err := eng.Close(); err != nil {
		return err
	}
	return os.WriteFile(o.prepare+".expect", []byte(d.sum()), 0o644)
}

// prepareDir runs the preparation in a child process.
func (b *bench) prepareDir(ctx context.Context, dir string, triples int) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, self, "-prepare", dir, "-seed", strconv.FormatInt(b.opt.seed, 10), "-triples", strconv.Itoa(triples))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("preparing %s: %v: %s", dir, err, strings.TrimSpace(string(out)))
	}
	want, err := os.ReadFile(dir + ".expect")
	return string(want), err
}

func (b *bench) coldBoot(ctx context.Context) error {
	size, rate, boots, gap := coldBootTriples, coldBootRate, coldBootBoots, coldBootGapWrite
	if b.opt.smoke {
		size, rate, boots = 8000, 100, 2
	}
	// Every boot recovers a fresh copy of the prepared directory: a booted
	// server may merge the chain in the background, and each cold start
	// must see the same three tiers and tail.
	pristine := filepath.Join(b.opt.work, "cold-boot.pristine")
	dir := filepath.Join(b.opt.work, "cold-boot.data")
	var want string
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		t0, cpu0 := time.Now(), readCPUStat()
		var err error
		if want, err = b.prepareDir(ctx, pristine, size); err != nil {
			return err
		}
		setups = append(setups, unstolen(time.Since(t0), cpu0, readCPUStat()).Seconds())
	}
	segs, _ := filepath.Glob(filepath.Join(pristine, "*.seg"))
	wals, _ := filepath.Glob(filepath.Join(pristine, "*.wal"))
	b.rep.note("prepared: %d segment files, %d WAL files", len(segs), len(wals))
	if len(segs) < 2 || len(wals) < 1 {
		b.rep.invalidate("the prepared directory holds %d segments and %d WAL files; the workload needs a chain and a tail", len(segs), len(wals))
	}
	b.rep.set("setup_s", median(setups))
	c := newCorpus(b.h, b.opt.seed, size, coldBootLinks)
	b.rep.note("corpus: %d asserted triples, %d instances, %d type triples", c.size(), len(c.class), len(c.class))
	var traceDir string
	if b.opt.trace == 1 {
		traceDir = dir + ".trace"
		if err := copyDir(pristine, traceDir); err != nil {
			return err
		}
	}
	empty := filepath.Join(b.opt.work, "empty.ndjson")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		return err
	}

	// Repeated cold starts, each to its first answered query.
	var prim *node
	var bootTimes, bootRSS []float64
	for r := 0; r < boots; r++ {
		if prim != nil {
			b.stop(prim)
		}
		if err := copyDir(pristine, dir); err != nil {
			return err
		}
		var err error
		prim, err = b.startServer("cb-primary", "-data-dir", dir, "-annotations", empty, "-checkpoint-mib", "-1",
			"-repl-retain", strconv.Itoa(coldBootRetain))
		if err != nil {
			return err
		}
		boot, err := b.waitQuery(ctx, prim, "inst-0 ?p ?o")
		if err != nil {
			return err
		}
		bootTimes = append(bootTimes, boot.Seconds())
		bootRSS = append(bootRSS, float64(peakRSSKB(prim.cmd.Process.Pid))/1024)
		if r == 0 {
			if err := b.checkRecovered(ctx, prim, want); err != nil {
				return err
			}
		}
	}
	b.rep.set("boot_s", median(bootTimes))

	// One replica bootstrap from the booted primary.
	rep, err := b.startServer("cb-replica", "-replicate-from", prim.url)
	if err != nil {
		return err
	}
	rboot, err := b.waitQuery(ctx, rep, "inst-0 ?p ?o")
	if err != nil {
		return err
	}
	b.rep.set("replica_boot_s", rboot.Seconds())
	b.rep.set("rss_mb", median(bootRSS)+float64(peakRSSKB(rep.cmd.Process.Pid))/1024)
	b.rep.check("replica converges after bootstrap", b.waitConverged(ctx, prim, rep, 0, 60*time.Second))
	r0, err := b.replicaStatus(ctx, rep)
	if err != nil {
		return err
	}

	// The query window and capacity phase on the booted primary.
	m0, s0, err := b.snap(ctx, prim)
	if err != nil {
		return err
	}
	cpu0 := cpuTime(prim, rep)
	open, err := b.openReads(ctx, prim.url, c, rate, coldBootShares)
	if err != nil {
		return err
	}
	b.setCPUPerOp(cpuTime(prim, rep)-cpu0, open)
	m1, s1, err := b.snap(ctx, prim)
	if err != nil {
		return err
	}
	b.serverLayers(m0, m1, s0, s1, open)
	if err := b.capacityReads(ctx, prim.url, c, coldBootShares); err != nil {
		return err
	}

	// Gap re-sync: pause the replica, write past the primary's retained
	// window, resume, and time convergence.
	var lagStop chan struct{}
	var lagc <-chan []float64
	if b.opt.trace == 1 {
		lagStop = make(chan struct{})
		lagc = b.lagSampler(ctx, rep, lagStop)
	}
	if err := rep.signal(syscall.SIGSTOP); err != nil {
		return err
	}
	ws := &wstate{c: c}
	w := b.workers()[0]
	var muts []float64
	for i := 0; i < gap; i++ {
		ws.batches = append(ws.batches, &wbatch{})
		bt := ws.batches[i]
		for k := 0; k < perBatch; k++ {
			bt.class[k], bt.site[k] = int32((i*perBatch+k)%numClasses), int32((i+k)%numSites)
		}
		t0 := time.Now()
		resp, err := b.cl.mutate(ctx, prim.url, ws.triples(int32(i)), nil)
		b.rep.attempted++
		if err == nil && resp.Added != 2*perBatch {
			err = fmt.Errorf("gap write %d: added %d, want %d", i, resp.Added, 2*perBatch)
		}
		if err != nil {
			b.rep.failed++
			b.rep.note("error: %v", err)
			continue
		}
		muts = append(muts, ms(time.Since(t0)))
	}
	b.rep.set("mutation_p50_ms", median(muts))
	b.rep.set("mutation_p99_ms", quantile(muts, tailQ))
	resumed, cpuResumed := time.Now(), readCPUStat()
	if err := rep.signal(syscall.SIGCONT); err != nil {
		return err
	}
	err = b.waitConverged(ctx, prim, rep, r0.Resnapshots+1, 120*time.Second)
	b.rep.check("replica re-syncs across the gap", err)
	if err == nil {
		d := time.Since(resumed)
		u := unstolen(d, cpuResumed, readCPUStat())
		b.rep.note("re-sync took %.3fs (%.3fs without steal)", d.Seconds(), u.Seconds())
		b.rep.set("resync_s", u.Seconds())
	}
	if lagStop != nil {
		close(lagStop)
		b.rep.set("repl.lag_generations_p99", quantile(<-lagc, 0.99))
	}
	b.rep.check("replica serves a gap write after re-sync", func() error {
		_, err := b.pointQuery(ctx, w, rep.url, writtenName(int32(gap-1), 0)+" ?p ?o", ws.freshRows(int32(gap-1)))
		return err
	}())
	ps, err := b.stats(ctx, prim)
	if err != nil {
		return err
	}
	rs, err := b.stats(ctx, rep)
	if err != nil {
		return err
	}
	if ps.Asserted != rs.Asserted || ps.Inferred != rs.Inferred {
		b.rep.check("replica holds the primary's triples", fmt.Errorf("primary %d+%d, replica %d+%d asserted+inferred", ps.Asserted, ps.Inferred, rs.Asserted, rs.Inferred))
	} else {
		b.rep.check("replica holds the primary's triples", nil)
	}
	r1, err := b.replicaStatus(ctx, rep)
	if err != nil {
		return err
	}
	b.rep.set("repl.resnapshots", float64(r1.Resnapshots-r0.Resnapshots))
	du, err := dirBytes(dir)
	if err != nil {
		return err
	}
	b.rep.set("disk_bytes_per_triple", float64(du)/float64(max(1, ps.Asserted)))
	b.finishErrorRate()

	if b.opt.trace == 1 {
		b.stop(rep)
		if err := b.traceReplicaBoot(prim); err != nil {
			return err
		}
		b.stop(prim)
		debug.FreeOSMemory()
		st := store.New()
		sp := b.tr.begin("durable.recover", -1, -1)
		eng, err := durable.Open(st, durable.Options{Dir: traceDir, CheckpointBytes: -1})
		d := b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("in-process recovery: %w", err)
		}
		if err := eng.Close(); err != nil {
			return err
		}
		b.rep.set("durable.recovery_s", d.Seconds())
		ops := readOps(newRand(b.opt.seed*1000+1), c, replayLimit(b.opt.smoke)/3, coldBootShares)
		return b.traceReplay(st, readItems(c, ops, len(ops)))
	}
	return nil
}

// checkRecovered checks the recovered primary against the set-up: its
// asserted snapshot must equal the one taken before the set-up process
// shut down, and /metrics must show a segment chain and a WAL tail, so
// recovery really replayed a tail.
func (b *bench) checkRecovered(ctx context.Context, s *node, want string) error {
	got, n, err := b.cl.hashBody(ctx, s.url+"/repl/snapshot")
	if err != nil {
		return err
	}
	if got != want {
		b.rep.check("recovered snapshot equals the pre-shutdown snapshot", fmt.Errorf("%d bytes with digest %s, want %s", n, got[:12], want[:12]))
	} else {
		b.rep.check("recovered snapshot equals the pre-shutdown snapshot", nil)
	}
	m, err := b.scrape(ctx, s)
	if err != nil {
		return err
	}
	st, err := b.stats(ctx, s)
	if err != nil {
		return err
	}
	if st.Durability == nil {
		return fmt.Errorf("%s /stats has no durability block", s.name)
	}
	d := st.Durability
	b.rep.note("recovered: log seq %d over segments through seq %d; onto_wal_seq %.0f; recovery %.3fs", d.Seq, d.SegmentSeq, m["onto_wal_seq"], m["onto_durable_recovery_seconds"])
	if m["onto_wal_seq"] <= float64(d.SegmentSeq) {
		b.rep.invalidate("recovery found no WAL tail past the segment chain (log seq %.0f, chain through %d)", m["onto_wal_seq"], d.SegmentSeq)
	}
	return nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
