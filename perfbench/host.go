package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostSample is what the host looked like at one moment: the 1-minute
// load average, the machine-wide CPU steal counter, and how long a fixed
// single-threaded piece of work took.
type hostSample struct {
	load    float64
	stealS  float64
	probeMS float64
}

func sampleHost() hostSample {
	var h hostSample
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.load, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		// "cpu  user nice system idle iowait irq softirq steal ..." in
		// USER_HZ (100/s on Linux).
		line, _, _ := strings.Cut(string(data), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			steal, _ := strconv.ParseFloat(f[8], 64)
			h.stealS = steal / 100
		}
	}
	h.probeMS = hostProbe()
	return h
}

// probeSink keeps the probe's result live so the loop is not optimized
// away.
var probeSink uint64

// hostProbe times a fixed amount of integer and memory work and returns
// the median of five repetitions in milliseconds. A probe that moves
// between the start and the end of a run means the host changed under
// the run.
func hostProbe() float64 {
	buf := make([]uint64, 1<<16)
	times := make([]float64, 5)
	for r := range times {
		start := time.Now()
		x := uint64(88172645463325252)
		for pass := 0; pass < 40; pass++ {
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] += x
			}
		}
		probeSink += buf[int(x%uint64(len(buf)))]
		times[r] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(times)
}

// hostProbeBound is how far the probe may move between the start and the
// end of a run, and the largest share of the machine's CPU time steal may
// take, before the run is flagged as contaminated: the tightest
// end-to-end bound in BENCHMARK.json.
const hostProbeBound = 0.15

// hostReport describes host contamination over one run.
type hostReport struct {
	before, after     hostSample
	wallS, cpuPerWall float64
}

func (h hostReport) probeMoved() float64 {
	if h.before.probeMS == 0 {
		return 0
	}
	return h.after.probeMS/h.before.probeMS - 1
}

// stealShare is the share of the machine's CPU time the hypervisor gave
// to other guests during the run.
func (h hostReport) stealShare() float64 {
	return (h.after.stealS - h.before.stealS) / (h.wallS * float64(runtime.NumCPU()))
}

func (h hostReport) String() string {
	s := fmt.Sprintf("loadavg %.2f->%.2f, steal %.2fs (%.1f%% of the machine), process cpu/wall %.2f, probe %.2fms->%.2fms (%+.1f%%)",
		h.before.load, h.after.load, h.after.stealS-h.before.stealS, 100*h.stealShare(), h.cpuPerWall,
		h.before.probeMS, h.after.probeMS, 100*h.probeMoved())
	if m := h.probeMoved(); m > hostProbeBound || m < -hostProbeBound {
		s += fmt.Sprintf("; CONTAMINATED: probe moved more than %.0f%%", 100*hostProbeBound)
	}
	if h.stealShare() > hostProbeBound {
		s += fmt.Sprintf("; CONTAMINATED: steal above %.0f%%", 100*hostProbeBound)
	}
	return s
}
