package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// This file measures what the host's hypervisor takes away. On a shared
// virtual machine the vCPUs are descheduled for other guests ("steal"),
// and a CPU-bound phase stretches by the stolen share: a run with 25%
// steal boots 25% slower without the program changing. The benchmark
// reports its CPU-bound timings with that stretch taken out, so they
// measure the program rather than its neighbours; the raw figures are
// printed next to them.

// cpuSample is the machine-wide tick counters of /proc/stat's cpu line:
// user nice system idle iowait irq softirq steal.
type cpuSample []int64

func readCPUStat() cpuSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var out cpuSample
	for _, x := range f[1:min(len(f), 9)] {
		var v int64
		fmt.Sscan(x, &v)
		out = append(out, v)
	}
	return out
}

// served is the share of the CPU time the machine's vCPUs asked for between
// two samples that they were given: 1 - steal/(busy+steal). 1 when the
// counters are unavailable or nothing ran.
func served(a, b cpuSample) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 1
	}
	var busy int64
	for _, i := range []int{0, 1, 2, 5, 6, 7} { // user nice system irq softirq steal
		busy += b[i] - a[i]
	}
	steal := b[7] - a[7]
	if busy <= 0 {
		return 1
	}
	return 1 - float64(steal)/float64(busy)
}

// unstolen is a wall-clock duration with the interval's steal taken out.
func unstolen(d time.Duration, a, b cpuSample) time.Duration {
	return time.Duration(float64(d) * served(a, b))
}

// cpuShares formats the share of CPU time each state took between two
// samples.
func cpuShares(a, b cpuSample) string {
	names := []string{"user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal"}
	if len(a) != len(b) || len(a) == 0 {
		return "unavailable"
	}
	var tot int64
	for i := range a {
		tot += b[i] - a[i]
	}
	var parts []string
	for i := range a {
		if tot > 0 && i < len(names) {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", names[i], 100*float64(b[i]-a[i])/float64(tot)))
		}
	}
	return strings.Join(parts, ", ") + fmt.Sprintf("; served %.3f", served(a, b))
}

// windowServed samples the CPU counters at the start of a phase and at
// each sub-window boundary of its planned span, until done is closed, and
// returns the served share of each sub-window.
func windowServed(start time.Time, span time.Duration, done <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		prev := readCPUStat()
		var shares []float64
		for k := 1; k <= subWindows; k++ {
			select {
			case <-done:
				// The phase ended before this boundary (its last ops
				// finished early): close the window here.
				out <- append(shares, served(prev, readCPUStat()))
				return
			case <-time.After(time.Until(start.Add(span * time.Duration(k) / subWindows))):
			}
			cur := readCPUStat()
			shares = append(shares, served(prev, cur))
			prev = cur
		}
		<-done
		out <- shares
	}()
	return out
}
