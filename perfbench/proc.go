package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// node is one ontoserve child process.
type node struct {
	name    string
	cmd     *exec.Cmd
	url     string
	started time.Time
	cpu0    cpuSample     // CPU counters at launch, for taking steal out of boot time
	done    chan struct{} // closed once the process has exited and been reaped
}

var servingRE = regexp.MustCompile(`serving .* on (http://\S+)`)

// startServer launches ontoserve on an ephemeral loopback port and returns
// once it has logged its listen address. Its stderr goes to <work>/<name>.log.
func (b *bench) startServer(name string, args ...string) (*node, error) {
	logf, err := os.OpenFile(filepath.Join(b.opt.work, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.opt.bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The kernel kills the server if the generator dies first, so no run
	// can leave a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	s := &node{name: name, cmd: cmd, done: make(chan struct{})}
	s.cpu0 = readCPUStat()
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Bytes()
			logf.Write(append(line, '\n'))
			if !found {
				if m := servingRE.FindSubmatch(line); m != nil {
					found = true
					urlc <- string(m[1])
				}
			}
		}
		_ = cmd.Wait() // the exit status is reported through the log
		logf.Close()
		close(s.done)
	}()
	b.servers = append(b.servers, s)
	select {
	case s.url = <-urlc:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("%s exited before serving (see %s.log)", name, name)
	case <-time.After(150 * time.Second):
		b.stop(s)
		return nil, fmt.Errorf("%s did not start serving within 150s", name)
	}
}

// waitQuery polls until the server answers a /query and returns the time
// from process start to that first answer, with the host's steal over the
// interval taken out.
func (b *bench) waitQuery(ctx context.Context, s *node, bgp string) (time.Duration, error) {
	deadline := time.Now().Add(150 * time.Second)
	for {
		_, err := b.cl.query(ctx, s.url, bgp, 0, b.pool[0].br, func(*bindRow) bool { return true })
		if err == nil {
			d := time.Since(s.started)
			u := unstolen(d, s.cpu0, readCPUStat())
			b.rep.note("%s answered its first query %.3fs after launch (%.3fs without steal)", s.name, d.Seconds(), u.Seconds())
			return u, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s: no answer to %q: %w", s.name, bgp, err)
		}
		select {
		case <-s.done:
			return 0, fmt.Errorf("%s exited before answering a query", s.name)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop shuts a server down gracefully (SIGTERM), killing it if it has not
// exited within 30s, and waits until it has been reaped.
func (b *bench) stop(s *node) {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGCONT) // a paused replica must be able to exit
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// stopAll stops every server this run started, newest first, so replicas
// go before the primaries they hold long-polls open on.
func (b *bench) stopAll() {
	for i := len(b.servers) - 1; i >= 0; i-- {
		b.stop(b.servers[i])
	}
}

func (s *node) signal(sig syscall.Signal) error { return s.cmd.Process.Signal(sig) }

// peakRSSKB reads a process's peak resident set (VmHWM) in KiB; 0 if gone.
func peakRSSKB(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb
		}
	}
	return 0
}

// cpuTime is the CPU time (user plus system) the servers have used so far,
// from /proc/<pid>/stat. The kernel charges stolen ticks to steal, not to
// the process, so this is the work the servers did, whatever the host's
// contention.
func cpuTime(ns ...*node) time.Duration {
	var ticks int64
	for _, s := range ns {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesized command name: state is field 3,
		// utime and stime are fields 14 and 15.
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(f) > 12 {
			user, _ := strconv.ParseInt(f[11], 10, 64)
			sys, _ := strconv.ParseInt(f[12], 10, 64)
			ticks += user + sys
		}
	}
	return time.Duration(ticks) * time.Second / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times (100 on Linux).
const clockTicks = 100

// setCPUPerOp reports cpu_ms_per_op: server CPU time per operation issued
// over an open loop. The closed-loop capacity phase is left out: its CPU
// per op swings with how the runtime's idle threads spin under saturation.
func (b *bench) setCPUPerOp(used time.Duration, p phase) {
	if p.attempted > 0 {
		b.rep.set("cpu_ms_per_op", ms(used)/float64(p.attempted))
	}
	b.rep.note("servers used %.2fs of CPU over %d ops", used.Seconds(), p.attempted)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src (one level) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

type digest struct{ hash.Hash }

func newDigest() digest      { return digest{sha256.New()} }
func (d digest) sum() string { return hex.EncodeToString(d.Sum(nil)) }
