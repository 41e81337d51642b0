package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// These tests drive the benchmark itself in smoke mode (tiny corpora,
// short phases) against an ontoserve built from this checkout. Run them
// from this directory with `go test ./...`.

var ontoserveBin string

func TestMain(m *testing.M) {
	// The cold-boot set-up re-executes the running binary with -prepare;
	// under `go test` that binary is this test binary.
	if len(os.Args) > 1 && os.Args[1] == "-prepare" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ontoserveBin = filepath.Join(dir, "ontoserve")
	if out, err := exec.Command("go", "build", "-o", ontoserveBin, "repro/cmd/ontoserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building ontoserve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmoke runs one smoke-mode workload and decodes its result line; the
// text lines carrying every metric the run measured go into printed.
func runSmoke(t *testing.T, workload string, seed, trace int, extra ...string) (r result, printed map[string]float64) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", "1",
		"-trace", fmt.Sprint(trace), "-smoke", "-bin", ontoserveBin, "-work", t.TempDir(),
		"-manifest", "../BENCHMARK.json"}, extra...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s seed %d trace %d: exit %d\nstderr:\n%s\nstdout:\n%s", workload, seed, trace, code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	printed = map[string]float64{}
	for _, l := range lines {
		var name string
		var v float64
		if _, err := fmt.Sscanf(l, "metric %s %g", &name, &v); err == nil {
			printed[name] = v
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, stdout.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s seed %d trace %d: correct=%v failed=%d attempted=%d\n%s", workload, seed, trace, r.Correct, r.Failed, r.Attempted, stdout.String())
	}
	return r, printed
}

// TestSmokeEmitsEveryMetric checks, on two seeds, that every workload
// emits every metric BENCHMARK.json names, with its unit: the end-to-end
// metrics (all non-zero) untraced, the per-layer ones traced.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	var m manifest
	data, err := os.ReadFile("../BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"read-mix", "write-durable", "cold-boot"} {
		for _, seed := range []int{1, 2} {
			for trace, want := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
				r, _ := runSmoke(t, w, seed, trace)
				if len(r.Metrics) != len(want) {
					t.Errorf("%s seed %d trace %d: %d metrics, manifest names %d", w, seed, trace, len(r.Metrics), len(want))
				}
				for _, mm := range want {
					got, ok := r.Metrics[mm.Name]
					switch {
					case !ok:
						t.Errorf("%s seed %d trace %d: metric %s missing", w, seed, trace, mm.Name)
					case got.Unit != mm.Unit:
						t.Errorf("%s seed %d trace %d: metric %s in %q, manifest says %q", w, seed, trace, mm.Name, got.Unit, mm.Unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("%s seed %d: end-to-end metric %s = %v, want > 0", w, seed, mm.Name, got.Value)
					}
				}
			}
		}
	}
}

// TestInjectedDelayRaisesQueryLatency puts a fixed-delay TCP proxy in front
// of the read-mix primary and checks that query_p50_ms rises by about the
// injected delay: the harness can see a regression of that size.
func TestInjectedDelayRaisesQueryLatency(t *testing.T) {
	const delay = 3 * time.Millisecond
	_, direct := runSmoke(t, "read-mix", 1, 0)
	_, proxied := runSmoke(t, "read-mix", 1, 0, "-proxy-delay", delay.String())
	base, slow := direct["query_p50_ms"], proxied["query_p50_ms"]
	rise := slow - base
	d := float64(delay) / float64(time.Millisecond)
	t.Logf("query_p50_ms %.3f direct, %.3f through a %v proxy: +%.3f ms", base, slow, delay, rise)
	if rise < 0.8*d || rise > 2.5*d {
		t.Fatalf("query_p50_ms rose by %.3f ms behind a %v proxy, want about %.1f ms", rise, delay, d)
	}
}
