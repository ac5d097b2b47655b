// Command perfbench is bmpcast's end-to-end benchmark. It boots
// service.Server in-process on a loopback TCP listener and drives it
// through the client SDK with one of four workloads:
//
//	solve-miss   every /v1/solve body distinct: decode, solve, verify, encode
//	solve-hot    a 256-request working set primed in set-up: front-cache hits
//	churn-store  mutants of stored plans: warm repairs, cold solves with log appends, hits
//	batch-large  four-platform jobs of 1k-5k nodes through /v1/jobs and the NDJSON stream
//
// Usage (from the repository root, which perfbench/run.sh builds it in):
//
//	perfbench --workload solve-miss --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the traced breakdown instead, timing the calls into each
// layer's public entry points. Every answer is checked. A human-readable
// report goes to standard output, and its last line is one JSON object
// with the keys correct, attempted, failed and metrics. See README.md
// for the workloads, the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records one metric.
func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

// setupClock times a run's set-ups by the wall clock and by the CPU
// time the process spends on them. setup_s is the median CPU time: a
// set-up sends its requests one at a time, so on a shared machine its
// wall time waits on the hypervisor to wake a vCPU for each and moves
// with the CPU steal (see README.md), while work moved into set-up
// shows in its CPU time all the same.
type setupClock struct {
	wall, cpu []float64
	t0        time.Time
	cpu0      time.Duration
}

// start begins timing one set-up, on a freshly collected heap.
func (c *setupClock) start() {
	runtime.GC()
	c.t0, c.cpu0 = time.Now(), processCPU()
}

// stop ends timing the set-up start began.
func (c *setupClock) stop() {
	c.wall = append(c.wall, time.Since(c.t0).Seconds())
	c.cpu = append(c.cpu, (processCPU() - c.cpu0).Seconds())
}

// report prints the set-up times and records setup_s.
func (c *setupClock) report(res *result) {
	fmt.Printf("  set-up times: wall %.4f s, cpu %.4f s\n", c.wall, c.cpu)
	res.set("setup_s", medianFloat(c.cpu), "s")
}

func main() {
	workload := flag.String("workload", "", "solve-miss | solve-hot | churn-store | batch-large")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	flag.Parse()
	if *seconds < 5 {
		fail(fmt.Errorf("--seconds %d: need at least 5", *seconds))
	}
	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	var res result
	var err error
	steal0, total0 := cpuSteal()
	spec, isSolve := solveSpecs[*workload]
	switch {
	case isSolve && *trace == 0:
		res, err = solveE2E(ctx, spec, *seed, budget)
	case isSolve:
		res, err = solveTrace(ctx, spec, *seed, budget)
	case *workload == "batch-large" && *trace == 0:
		res, err = batchE2E(ctx, *seed, budget)
	case *workload == "batch-large":
		res, err = batchTrace(ctx, *seed, budget)
	default:
		err = fmt.Errorf("unknown workload %q (solve-miss | solve-hot | churn-store | batch-large)", *workload)
	}
	if err != nil {
		fail(err)
	}
	// Time the hypervisor gave this machine's vCPUs to other guests:
	// context for a run whose tails read high, not a metric.
	fmt.Printf("cpu steal over the run: %.2f%%\n", stealSince(steal0, total0))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("metrics:")
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// fail reports a run that could not be carried out, without a result.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// processCPU is the CPU time the process has used, user and system.
// Unlike wall time it does not grow while the hypervisor runs other
// guests on this machine's vCPUs.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF) cannot fail: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSteal reads the machine-wide steal and total CPU time from
// /proc/stat, in clock ticks; zeros when it cannot.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v uint64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealSince is the machine's CPU steal since cpuSteal read st0 and
// tot0, in percent of all CPU time; 0 when it cannot tell.
func stealSince(st0, tot0 uint64) float64 {
	st1, tot1 := cpuSteal()
	if tot1 <= tot0 {
		return 0
	}
	return 100 * float64(st1-st0) / float64(tot1-tot0)
}

// finishResult fills the totals of a run from its first error.
func finishResult(res *result, attempted, failed int, firstErr error) {
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0 && firstErr == nil
	fmt.Printf("attempted=%d failed=%d error_rate=%.6f correct=%v\n",
		attempted, failed, float64(failed)/float64(max(attempted, 1)), res.Correct)
	if firstErr != nil {
		fmt.Printf("first error: %v\n", firstErr)
	}
}
