// Command perfbench is the result-delivery benchmark: four workloads
// driven against the protocol stack, each repetition in a fresh process,
// with a correctness gate on every repetition. See README.md.
//
//	perfbench -workload handoff -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics of a traced run with -trace 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

var simWorkloads = map[string]*simWorkload{
	"handoff":     handoff,
	"lossy-radio": lossyRadio,
	"subscribers": subscribersWL,
}

const liveWorkload = "tcp-live"

// endToEnd lists the metrics of an untraced run, in output order.
var endToEnd = []struct {
	name, unit string
	of         func(r *repResult) float64
}{
	{"setup_s", "s", func(r *repResult) float64 { return r.SetupS }},
	{"results_per_s", "1/s", func(r *repResult) float64 { return per(float64(r.Delivered), r.BusyS) }},
	{"cpu_us_per_result", "us", func(r *repResult) float64 { return per(r.CPUS*1e6, float64(r.Delivered)) }},
	{"peak_rss_mb", "MB", func(r *repResult) float64 { return r.PeakRSSMB }},
	{"allocs_per_result", "count", func(r *repResult) float64 { return per(float64(r.Mallocs), float64(r.Delivered)) }},
	{"delivery_ratio", "ratio", func(r *repResult) float64 { return per(float64(r.Delivered), float64(r.Issued)) }},
	{"result_p50_sim_ms", "ms", func(r *repResult) float64 { return r.P50SimMs }},
	{"result_p99_sim_ms", "ms", func(r *repResult) float64 { return r.P99SimMs }},
	{"signaling_per_result", "count", func(r *repResult) float64 { return per(float64(r.Signaling), float64(r.Delivered)) }},
	{"wire_bytes_per_result", "B", func(r *repResult) float64 { return per(float64(r.WireBytes), float64(r.Delivered)) }},
	{"result_p50_wall_ms", "ms", func(r *repResult) float64 { return r.P50WallMs }},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: handoff, lossy-radio, subscribers or tcp-live")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 25, "measured time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	out := fs.String("out", ".bench_build", "directory for span dumps")
	child := fs.String("child", "", "run one repetition in this process: untraced, traced or count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, isSim := simWorkloads[*name]
	if !isSim && *name != liveWorkload {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	if *child != "" {
		m := mode(*child)
		if m != modeUntraced && m != modeTraced && m != modeCount {
			fmt.Fprintf(os.Stderr, "perfbench: unknown repetition mode %q\n", *child)
			return 2
		}
		return runChild(*name, *seed, *seconds, m, *out)
	}
	return runParent(*name, *seed, *seconds, *trace == 1, *out)
}

// mode is what a repetition does besides running its workload.
type mode string

const (
	// modeUntraced repetitions give the end-to-end host timings.
	modeUntraced mode = "untraced"
	// modeTraced repetitions record spans for the per-layer metrics.
	modeTraced mode = "traced"
	// modeCount repetitions also size every message handed to a
	// transport (msg.WireSize) for wire_bytes_per_result, which is exact
	// at a seed. Their timings are discarded, so the timed repetitions
	// carry no encoding work of the benchmark's own.
	modeCount mode = "count"
)

// runChild performs one repetition and prints its repResult as JSON.
func runChild(name string, seed int64, seconds float64, m mode, out string) int {
	dir := filepath.Join(out, "spans")
	if m == modeTraced {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	var res *repResult
	if wl, ok := simWorkloads[name]; ok {
		res = runSimChild(name, wl, seed, m, dir)
	} else {
		var err error
		if res, err = runLiveChild(seconds, seed, m, dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// spawn runs one repetition in a fresh process, so each repetition has
// its own heap and its own resident high-water mark. A repetition still
// running at deadline is killed, so a wedged run fails inside the time
// a caller allows the whole benchmark.
func spawn(name string, seed int64, seconds float64, mode mode, out string, deadline time.Time) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", string(mode), "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s repetition output: %w", mode, err)
	}
	return &res, nil
}

// Repetitions per simulated run: at least minReps, more while the next
// one still fits in --seconds.
const (
	minReps = 3
	maxReps = 25
	// childLimit bounds the whole run, repetitions included.
	childLimit = 150 * time.Second
)

func runParent(name string, seed int64, seconds float64, traced bool, out string) int {
	var count *repResult
	var plain, trace []*repResult
	start := nanotime()
	deadline := time.Now().Add(childLimit)
	run := func(m mode, secs float64) bool {
		r, err := spawn(name, seed, secs, m, out, deadline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return false
		}
		switch m {
		case modeCount:
			count = r
		case modeTraced:
			trace = append(trace, r)
		default:
			plain = append(plain, r)
		}
		return true
	}
	if name == liveWorkload {
		if !traced {
			if !run(modeUntraced, seconds) {
				return 1
			}
		} else if !run(modeUntraced, seconds/2) || !run(modeTraced, seconds/2) {
			return 1
		}
	} else {
		if !traced && !run(modeCount, seconds) {
			return 1
		}
		// A traced run alternates untraced and traced repetitions, so the
		// tracing overhead compares neighbours.
		var last time.Duration
		for n := 0; n < maxReps; n++ {
			elapsed := time.Duration(nanotime() - start)
			if n >= minReps && (elapsed+last).Seconds() > seconds {
				break
			}
			t0 := nanotime()
			m := modeUntraced
			if traced && n%2 == 1 {
				m = modeTraced
			}
			if !run(m, seconds) {
				return 1
			}
			last = time.Duration(nanotime() - t0)
		}
		if count != nil {
			// Wire bytes are exact at a seed (the counts are gated
			// identical across repetitions below), so the counting
			// repetition's total stands for every timed one.
			for _, r := range plain {
				r.WireBytes = count.WireBytes
			}
		}
	}
	return report(name, count, plain, trace, traced)
}

// report applies the correctness gate across repetitions, prints a
// readable summary and the final JSON line, and returns the exit code.
func report(name string, count *repResult, plain, trace []*repResult, traced bool) int {
	all := append(append([]*repResult(nil), plain...), trace...)
	if count != nil {
		all = append(all, count)
	}
	var attempted, failed int64
	var problems []string
	for _, r := range all {
		fmt.Printf("# rep mode=%-8s ok=%-5v issued=%d delivered=%d dups=%d handoffs=%d events=%d setup=%.3fs run=%.3fs busy=%.3fs cpu=%.3fs steal=%.1f%% rss=%.0fMB lat_samples=%d",
			r.Mode, r.OK, r.Issued, r.Delivered, r.Dups, r.Handoffs, r.Events, r.SetupS, r.RunS, r.BusyS, r.CPUS, 100*r.StealShare, r.PeakRSSMB, r.LatSamples)
		if name == liveWorkload {
			fmt.Printf(" gen_late_ms_max=%.3f gen_cpu=%.3fs", r.GenLateMsMax, r.GenCPUS)
		}
		fmt.Println()
		attempted += r.Issued
		if r.OK {
			failed += r.Issued - r.Delivered
		} else {
			failed += r.Issued
			problems = append(problems, r.Problems...)
		}
	}
	if name != liveWorkload {
		if err := sameCounts(all); err != nil {
			problems = append(problems, err.Error())
			failed = attempted
		}
	}
	correct := len(problems) == 0
	for _, p := range problems {
		fmt.Println("# FAIL:", p)
	}

	metrics := map[string]any{}
	emit := func(name, unit string, v float64) {
		fmt.Printf("%-36s %16.6f %s\n", name, v, unit)
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	if !traced {
		for _, m := range endToEnd {
			var xs []float64
			for _, r := range plain {
				xs = append(xs, m.of(r))
			}
			emit(m.name, m.unit, median(xs))
		}
	} else {
		for _, m := range perLayer {
			src := trace
			if strings.HasPrefix(m.name, "runtime.") {
				src = plain
			}
			var xs []float64
			for _, r := range src {
				xs = append(xs, r.Layers[m.name])
			}
			v := median(xs)
			if m.name == "trace.overhead_ratio" {
				v = overhead(name, plain, trace)
			}
			emit(m.name, m.unit, v)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(attempted, 1),
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// sameCounts checks that the exact counts of a simulated workload repeat
// across every repetition at the seed, traced or not.
func sameCounts(reps []*repResult) error {
	key := func(r *repResult) [5]int64 {
		return [5]int64{r.Issued, r.Delivered, r.Dups, r.Handoffs, r.Events}
	}
	for _, r := range reps[1:] {
		if key(r) != key(reps[0]) {
			return fmt.Errorf("counts differ across repetitions at one seed: %v vs %v (issued, delivered, dups, handoffs, events)",
				key(reps[0]), key(r))
		}
	}
	return nil
}

// overhead is the traced run's cost over the untraced one: the
// simulation thread's CPU time on the simulator, process CPU per result
// on the live runtime (whose wall time is fixed by the open-loop
// schedule).
func overhead(name string, plain, trace []*repResult) float64 {
	cost := func(reps []*repResult) float64 {
		var xs []float64
		for _, r := range reps {
			if name == liveWorkload {
				xs = append(xs, per(r.CPUS, float64(r.Delivered)))
			} else {
				xs = append(xs, r.BusyS)
			}
		}
		return median(xs)
	}
	return per(cost(trace), cost(plain))
}
