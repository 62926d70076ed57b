// Command rdpbench regenerates the evaluation of the RDP paper: every
// experiment of DESIGN.md (E1–E18) as a printed table. Run all of them,
// or a subset:
//
//	rdpbench                 # everything, standard scale
//	rdpbench -exp e3,e5      # selected experiments
//	rdpbench -quick          # reduced scale (seconds instead of minutes)
//	rdpbench -seed 7         # different random seed
//	rdpbench -parallel 4     # run experiments concurrently
//	rdpbench -json           # write a BENCH_<stamp>.json snapshot
//	rdpbench -exp e13 -regions 2 -serial   # e13 at a fixed partition, serial
//	rdpbench -exp e14 -e14tier 64:50000:16:3 -workers 8 -steal   # one e14 smoke row
//	rdpbench -cpuprofile cpu.pprof         # profile the run
//
// Each experiment runs its sweep once per invocation, whatever the mode.
// Experiments are independent simulations, so -parallel runs them on
// separate goroutines; each renders into its own buffer and the buffers
// are emitted in experiment order, so the output is byte-identical to a
// serial run. -json instead runs serially (timings would otherwise
// contend), discards the tables, and records each experiment's wall
// time, allocations, and headline metric in the snapshot format
// compared by `make bench-compare` (see internal/benchcmp). E15 heads
// two snapshot entries: e15, timed, and e15lat, which carries only its
// metric.
//
// The tables printed here are the source of EXPERIMENTS.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchcmp"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdpbench:", err)
		os.Exit(1)
	}
}

// params are the run-wide settings every experiment receives.
type params struct {
	seed int64
	sc   experiments.Scale

	regions    []int                 // e13 region counts; nil = the scale's sweep
	e13Workers int                   // e13 workers; 0 = one per core, 1 = serial
	tiers      []experiments.E14Tier // e14 tiers; nil = the scale's
	workers    []int                 // e14 worker counts; nil = the scale's sweep
	steal      bool                  // run every e14 row under work stealing
}

// experiment is one registry entry. run executes the sweep exactly
// once, renders its tables into r, and returns the snapshot entries it
// heads (metric fields only; -json fills in the timing of the first).
type experiment struct {
	name string
	run  func(r *renderer, p params) []benchcmp.Entry
}

var registry = []experiment{
	{"e1", runE1},
	{"e2", runE2},
	{"e3", runE3},
	{"e4", runE4},
	{"e5", runE5},
	{"e6", runE6},
	{"e7", runE7},
	{"e8", runE8},
	{"e9", runE9},
	{"e10", runE10},
	{"e11", runE11},
	{"e12", runE12},
	{"e13", runE13},
	{"e14", runE14},
	{"e15", runE15},
	{"e16", runE16},
	{"e17", runE17},
	{"e18", runE18},
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdpbench", flag.ContinueOnError)
	var (
		expFlag = fs.String("exp", "all", "comma-separated experiments to run (e1..e18, or all)")
		seed    = fs.Int64("seed", 1, "random seed")
		quick   = fs.Bool("quick", false, "reduced scale for a fast pass")
		csv     = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		par     = fs.Int("parallel", 1, "experiments to run concurrently (output order is unchanged)")
		jsonOut = fs.Bool("json", false, "write a benchmark snapshot instead of tables")
		outFlag = fs.String("out", "", "snapshot path for -json (default BENCH_<stamp>.json)")
		regions = fs.String("regions", "", "comma-separated region counts for e13 (default: the scale's sweep)")
		serial  = fs.Bool("serial", false, "run the e13 parallel engine with one worker (the serial reference)")
		workers = fs.String("workers", "", "comma-separated worker counts for e14 (default: the scale's sweep)")
		steal   = fs.Bool("steal", false, "run every e14 row under per-window work stealing")
		e14tier = fs.String("e14tier", "", "e14 tier override as cells:mhs:regions:horizonSec (the CI smoke tier)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := params{seed: *seed, sc: experiments.DefaultScale(), steal: *steal}
	scName := "default"
	if *quick {
		p.sc = experiments.SmallScale()
		scName = "quick"
	}
	var err error
	if p.regions, err = parseCounts("-regions", *regions); err != nil {
		return err
	}
	if *serial {
		p.e13Workers = 1
	}
	if p.workers, err = parseCounts("-workers", *workers); err != nil {
		return err
	}
	if *e14tier != "" {
		tier, ok := experiments.ParseE14Tier(*e14tier)
		if !ok {
			return fmt.Errorf("bad -e14tier value %q (want cells:mhs:regions:horizonSec)", *e14tier)
		}
		p.tiers = []experiments.E14Tier{tier}
	}
	sel, err := selectExperiments(*expFlag)
	if err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(*cpuProf)
			return err
		}
		// Runs on every exit path, early errors included: the profile is
		// flushed by StopCPUProfile before the close, and a close failure
		// (full disk, dead NFS handle) is reported instead of silently
		// truncating the profile.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rdpbench: cpuprofile:", err)
			}
		}()
	}
	if *memProf != "" {
		// Create up front so an unwritable path fails before the run, not
		// after minutes of benchmarking.
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rdpbench: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rdpbench: memprofile:", err)
			}
		}()
	}

	if *jsonOut {
		return runJSON(stdout, sel, p, scName, *outFlag)
	}

	n := *par
	if n < 1 {
		n = 1
	}
	if n == 1 {
		rd := &renderer{w: stdout, csv: *csv}
		for _, e := range sel {
			e.run(rd, p)
		}
		return nil
	}

	// Parallel: every experiment renders into a private buffer; buffers
	// are then written in selection order, so output bytes are identical
	// to the serial path regardless of scheduling.
	bufs := make([]bytes.Buffer, len(sel))
	sem := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i, e := range sel {
		wg.Add(1)
		go func(i int, e experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			e.run(&renderer{w: &bufs[i], csv: *csv}, p)
		}(i, e)
	}
	wg.Wait()
	for i := range bufs {
		if _, err := stdout.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// parseCounts parses a comma-separated list of positive integers; an
// empty value yields nil (the scale's default sweep).
func parseCounts(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, v := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad %s value %q", flagName, v)
		}
		out = append(out, n)
	}
	return out, nil
}

// selectExperiments resolves the -exp list to registry entries in
// registry order. Every listed name must be a registry entry or "all".
func selectExperiments(list string) ([]experiment, error) {
	names := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		names = append(names, e.name)
	}
	names = append(names, "all")
	want := make(map[string]bool)
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(strings.ToLower(s))
		if !slices.Contains(names, s) {
			return nil, fmt.Errorf("unknown experiment %q in -exp %q (valid: %s)", s, list, strings.Join(names, ", "))
		}
		want[s] = true
	}
	var sel []experiment
	for _, e := range registry {
		if want["all"] || want[e.name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// runJSON runs each selected experiment serially into a discarding
// renderer, timing the one call — wall time and allocation count
// (runtime.MemStats deltas) — and writes the snapshot to out (or
// BENCH_<stamp>.json). The first entry an experiment returns carries
// the timing; any further headline from the same run records zeros.
func runJSON(stdout io.Writer, sel []experiment, p params, scName, out string) error {
	snap := benchcmp.Snapshot{
		Stamp: time.Now().UTC().Format("20060102T150405Z"),
		Go:    runtime.Version(),
		Scale: scName,
		Seed:  p.seed,
	}
	var ms0, ms1 runtime.MemStats
	for _, e := range sel {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		entries := e.run(&renderer{w: io.Discard}, p)
		ns := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		entries[0].NsOp = float64(ns)
		entries[0].AllocsOp = float64(ms1.Mallocs - ms0.Mallocs)
		entries[0].BytesOp = float64(ms1.TotalAlloc - ms0.TotalAlloc)
		for _, en := range entries {
			fmt.Fprintf(stdout, "%-5s %12.0f ns %12.0f allocs  %s=%g\n",
				en.Name, en.NsOp, en.AllocsOp, en.MetricName, en.Metric)
		}
		snap.Entries = append(snap.Entries, entries...)
	}
	if out == "" {
		out = "BENCH_" + snap.Stamp + ".json"
	}
	if err := benchcmp.Save(out, snap); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return nil
}

// headline is the single snapshot entry most experiments report.
func headline(name, metric string, v float64) []benchcmp.Entry {
	return []benchcmp.Entry{{Name: name, MetricName: metric, Metric: v}}
}

// renderer writes one experiment's tables to its destination in the
// selected format. Each concurrent experiment owns its renderer.
type renderer struct {
	w   io.Writer
	csv bool
}

// emit prints a table in the selected format.
func (r *renderer) emit(t *metrics.Table) {
	if r.csv {
		io.WriteString(r.w, t.CSV())
		return
	}
	io.WriteString(r.w, t.String())
}

func (r *renderer) header(id, claim string) {
	fmt.Fprintf(r.w, "\n=== %s — %s ===\n\n", id, claim)
}

func f(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
func d(v int64) string             { return strconv.FormatInt(v, 10) }
func dur(v time.Duration) string   { return v.Round(time.Millisecond).String() }

func runE1(r *renderer, p params) []benchcmp.Entry {
	r.header("E1", "reliability: every result delivered despite migrations and inactivity (§5)")
	t := metrics.NewTable("residence", "inactive-p", "issued", "delivered", "ratio", "handoffs", "retrans")
	min := 1.0
	for _, row := range experiments.E1Reliability(p.seed, p.sc) {
		t.AddRow(dur(row.MeanResidence), f(row.InactiveProb, 2), d(row.Issued), d(row.Delivered),
			f(row.Ratio, 4), d(row.Handoffs), d(row.Retrans))
		if row.Ratio < min {
			min = row.Ratio
		}
	}
	r.emit(t)
	return headline("e1", "min_delivery_ratio", min)
}

func runE2(r *renderer, p params) []benchcmp.Entry {
	r.header("E2", "exactly-once needs causal order + ack priority (§5)")
	t := metrics.NewTable("variant", "issued", "delivered", "duplicates", "violations", "ignored-acks")
	var dups int64
	for _, row := range experiments.E2ExactlyOnce(p.seed, p.sc) {
		t.AddRow(row.Name, d(row.Issued), d(row.Delivered), d(row.Duplicates), d(row.Violations), d(row.IgnoredAcks))
		dups += row.Duplicates
	}
	r.emit(t)
	return headline("e2", "total_duplicates", float64(dups))
}

func runE3(r *renderer, p params) []benchcmp.Entry {
	r.header("E3", "retransmissions vanish once residence exceeds t_wired+t_wireless (§5)")
	t := metrics.NewTable("residence", "res/threshold", "results", "retrans", "retrans/result")
	var retrans int64
	for _, row := range experiments.E3RetransmissionThreshold(p.seed, p.sc) {
		t.AddRow(dur(row.MeanResidence), f(row.ThresholdRatio, 1), d(row.Results), d(row.Retrans), f(row.RetransPerResult, 4))
		retrans += row.Retrans
	}
	r.emit(t)
	return headline("e3", "total_retrans", float64(retrans))
}

func runE4(r *renderer, p params) []benchcmp.Entry {
	r.header("E4", "overhead = one update per migration/reactivation + one relayed ack per result (§5)")
	t := metrics.NewTable("residence", "updates", "predicted", "coverage", "ack-fwds", "predicted", "match")
	var updates int64
	for _, row := range experiments.E4Overhead(p.seed, p.sc) {
		t.AddRow(dur(row.MeanResidence), d(row.UpdateCurrLocs), d(row.PredictedUpdates), f(row.UpdateCoverage, 3),
			d(row.AckForwards), d(row.PredictedAcks), fmt.Sprint(row.Match))
		updates += row.UpdateCurrLocs
	}
	r.emit(t)
	return headline("e4", "update_msgs", float64(updates))
}

func runE5(r *renderer, p params) []benchcmp.Entry {
	r.header("E5", "dynamic proxies balance forwarding load; fixed home agents concentrate it (§1, §4)")
	t := metrics.NewTable("protocol", "jain-index", "max/mean", "per-station load")
	best := 0.0
	for _, row := range experiments.E5LoadBalance(p.seed, p.sc) {
		loads := make([]string, len(row.Loads))
		for i, l := range row.Loads {
			loads[i] = f(l, 0)
		}
		t.AddRow(row.Protocol, f(row.Jain, 3), f(row.MaxOverMean, 2), strings.Join(loads, " "))
		if row.Jain > best {
			best = row.Jain
		}
	}
	r.emit(t)

	fmt.Fprintln(r.w, "\nE5b — population shift: share of forwarding work carried by the 2 hotspot cells")
	t2 := metrics.NewTable("protocol", "roaming phase", "after shift downtown")
	for _, row := range experiments.E5DynamicShift(p.seed, p.sc) {
		t2.AddRow(row.Protocol, f(row.Phase1Hotspot, 3), f(row.Phase2Hotspot, 3))
	}
	r.emit(t2)
	return headline("e5", "max_jain", best)
}

func runE6(r *renderer, p params) []benchcmp.Entry {
	r.header("E6", "hand-off state: RDP ships one pref; indirect images grow with load (§4, §5)")
	t := metrics.NewTable("pending", "rdp B/handoff", "itcp B/handoff", "rdp p95", "itcp p95", "rdp-del", "itcp-del")
	var bytes float64
	for _, row := range experiments.E6HandoffState(p.seed, p.sc) {
		t.AddRow(strconv.Itoa(row.PendingRequests), f(row.RDPBytesPerHO, 0), f(row.ITCPBytesPerHO, 0),
			dur(row.RDPHandoffP95), dur(row.ITCPHandoffP95), d(row.RDPDelivered), d(row.ITCPDelivered))
		bytes += row.RDPBytesPerHO
	}
	r.emit(t)
	return headline("e6", "rdp_bytes_per_handoff_sum", bytes)
}

func runE7(r *renderer, p params) []benchcmp.Entry {
	r.header("E7", "Mobile IP loses datagrams under mobility; upper-layer recovery costs latency (§4)")
	t := metrics.NewTable("protocol", "residence", "issued", "delivered", "ratio", "mean-lat", "p50", "p95", "p99")
	var delivered int64
	for _, row := range experiments.E7VsMobileIP(p.seed, p.sc) {
		t.AddRow(row.Protocol, dur(row.MeanResidence), d(row.Issued), d(row.Delivered),
			f(row.Ratio, 4), dur(row.MeanLatency), dur(row.P50Latency), dur(row.P95Latency), dur(row.P99Latency))
		delivered += row.Delivered
	}
	r.emit(t)
	return headline("e7", "delivered_total", float64(delivered))
}

func runE8(r *renderer, p params) []benchcmp.Entry {
	r.header("E8", "asynchronous subscription notifications reach roaming subscribers (§3)")
	t := metrics.NewTable("residence", "subs", "fired", "received", "ratio", "remote-ops", "mean-hops")
	var received int64
	for _, row := range experiments.E8Subscriptions(p.seed, p.sc) {
		t.AddRow(dur(row.MeanResidence), d(row.Subscriptions), d(row.Fired), d(row.Received),
			f(row.Ratio, 4), d(row.RemoteOps), f(row.MeanHops, 2))
		received += row.Received
	}
	r.emit(t)
	return headline("e8", "received_total", float64(received))
}

func runE9(r *renderer, p params) []benchcmp.Entry {
	r.header("E9", "ablation: holding results for inactive hosts saves retransmissions (§5 fn.3)")
	t := metrics.NewTable("inactive-p", "hold", "delivered", "retrans", "drops", "held", "mean-lat", "updates")
	var retrans int64
	for _, row := range experiments.E9HoldForInactive(p.seed, p.sc) {
		t.AddRow(f(row.InactiveProb, 2), fmt.Sprint(row.Hold), d(row.Delivered), d(row.Retrans),
			d(row.WirelessDrops), d(row.HeldResults), dur(row.MeanLatency), d(row.UpdateCurrLocs))
		retrans += row.Retrans
	}
	r.emit(t)
	return headline("e9", "retrans_total", float64(retrans))
}

func runE10(r *renderer, p params) []benchcmp.Entry {
	r.header("E10", "wired faults + MSS crashes: ARQ + checkpoint recovery restores exactly-once delivery")
	t := metrics.NewTable("loss", "crashes", "recovery", "issued", "delivered", "ratio", "dups", "wired-drops", "rec-resends", "ho-reissues", "ckpt-ops")
	var delivered int64
	for _, row := range experiments.E10WiredFaults(p.seed, p.sc) {
		t.AddRow(f(row.Loss, 2), strconv.Itoa(row.Crashes), fmt.Sprint(row.Recovery), d(row.Issued), d(row.Delivered),
			f(row.Ratio, 4), d(row.Duplicates), d(row.WiredDrops), d(row.RecoveryResends), d(row.HandoffReissues), d(row.CheckpointOps))
		delivered += row.Delivered
	}
	r.emit(t)
	return headline("e10", "delivered_total", float64(delivered))
}

func runE11(r *renderer, p params) []benchcmp.Entry {
	r.header("E11", "overload: admission + priorities + backoff plateau at capacity; retries alone collapse")
	t := metrics.NewTable("offered-x", "protected", "issued", "delivered", "refusals", "retries", "abandoned", "dups", "goodput%", "p99-lat", "inbox-peak", "shed", "lost-admitted")
	var delivered int64
	for _, row := range experiments.E11Overload(p.seed, p.sc) {
		t.AddRow(f(row.OfferedX, 1), fmt.Sprint(row.Protected), d(row.Issued), d(row.Delivered),
			d(row.Refusals), d(row.ClientRetries), d(row.Abandoned), d(row.Duplicates),
			f(row.GoodputPct, 1), dur(row.P99Latency), d(row.InboxPeak), d(row.NetworkShed), d(row.LostAdmitted))
		delivered += row.Delivered
	}
	r.emit(t)
	return headline("e11", "delivered_total", float64(delivered))
}

func runE12(r *renderer, p params) []benchcmp.Entry {
	r.header("E12", "proxy migration bounds forwarding hops and spreads placement; static anchors drift")
	t := metrics.NewTable("policy", "issued", "delivered", "ratio", "mean-hops", "worst", "mean-lat", "p95-lat", "migrations", "refused", "mig-msgs", "mig-bytes", "jain", "dups")
	var delivered int64
	for _, row := range experiments.E12Migration(p.seed, p.sc) {
		t.AddRow(row.Policy, d(row.Issued), d(row.Delivered), f(row.Ratio, 4), f(row.MeanHops, 2), d(row.WorstHops),
			dur(row.MeanLatency), dur(row.P95Latency), d(row.Migrations), d(row.Refused),
			d(row.MigMsgs), d(row.MigBytes), f(row.Jain, 3), d(row.Dups))
		delivered += row.Delivered
	}
	r.emit(t)
	return headline("e12", "delivered_total", float64(delivered))
}

// runE13's headline is total delivered across the sweep. The e13-smoke
// CI job compares a -serial snapshot against a parallel one with
// benchcmp, so the metric must not depend on worker count — delivered
// totals are exactly worker-invariant by the engine's determinism
// guarantee.
func runE13(r *renderer, p params) []benchcmp.Entry {
	r.header("E13", "parallel engine: region partitions reproduce the serial headline exactly and scale out")
	t := metrics.NewTable("cells", "mhs", "regions", "issued", "delivered", "ratio", "dups", "missing", "handoffs", "xframes", "wall", "speedup", "headline-eq")
	var delivered int64
	for _, row := range experiments.E13Scale(p.seed, p.sc, p.regions, p.e13Workers) {
		t.AddRow(strconv.Itoa(row.Cells), strconv.Itoa(row.MHs), strconv.Itoa(row.Regions),
			d(row.Issued), d(row.Delivered), f(row.Ratio, 4), d(row.Duplicates),
			strconv.Itoa(row.Missing), d(row.Handoffs), d(row.CrossFrames),
			dur(row.Wall), f(row.Speedup, 2), fmt.Sprint(row.HeadlineEq))
		delivered += row.Delivered
	}
	r.emit(t)
	return headline("e13", "delivered_total", float64(delivered))
}

// runE14's headline is total delivered across the sweep, forced to -1
// whenever a row breaks full-Summary equality with its tier's baseline
// row. The e14-smoke CI job compares -workers 1, -workers 8, and
// -workers 8 -steal snapshots of the same tier with benchcmp, so the
// metric must be worker-invariant — which is exactly the property E14
// pins.
func runE14(r *renderer, p params) []benchcmp.Entry {
	r.header("E14", "multi-core engine: worker count never changes a byte; wall-clock and RSS at scale")
	t := metrics.NewTable("cells", "mhs", "regions", "workers", "steal", "cores", "issued", "delivered",
		"ratio", "dups", "missing", "xframes", "build", "wall", "speedup", "peak-rss", "headline-eq")
	var delivered int64
	eq := true
	for _, row := range experiments.E14Scale(p.seed, p.sc, p.tiers, p.workers, p.steal) {
		t.AddRow(strconv.Itoa(row.Cells), strconv.Itoa(row.MHs), strconv.Itoa(row.Regions),
			strconv.Itoa(row.Workers), fmt.Sprint(row.Steal), strconv.Itoa(row.Cores),
			d(row.Issued), d(row.Delivered), f(row.Ratio, 4), d(row.Duplicates),
			strconv.Itoa(row.Missing), d(row.CrossFrames), dur(row.Build), dur(row.Wall),
			f(row.Speedup, 2), metrics.FormatBytes(row.PeakRSS, row.PeakRSSOK), fmt.Sprint(row.HeadlineEq))
		delivered += row.Delivered
		eq = eq && row.HeadlineEq
	}
	r.emit(t)
	if !eq {
		return headline("e14", "delivered_total", -1)
	}
	return headline("e14", "delivered_total", float64(delivered))
}

// runE15 prints the E15 grid, the E15b link profiles and the E15lat
// latency focus from one sweep, and reports two headlines at the
// headline grid point (10% loss, 2× the stop-and-wait ceiling):
//
//   - e15, guarded_goodput_ratio: windowed over stop-and-wait goodput,
//     forced to -1 whenever a windowed row breaks a guarantee — a lost
//     admitted request, a duplicate delivery, or headline p99 worse than
//     stop-and-wait — so the guard-smoke benchcmp gate fails on a broken
//     transport, not just a slow one. Its Aux records the windowed
//     link's RTT/RTO/cwnd profile and retransmission counters, never
//     gated, so the snapshot trajectory keeps the transport's shape.
//   - e15lat, p99_latency_ms: the windowed p99 result latency, which
//     benchcmp gates regress-only (lower is better).
func runE15(r *renderer, p params) []benchcmp.Entry {
	rows := experiments.E15WindowedTransport(p.seed, p.sc)
	r.header("E15", "windowed wireless transport: coalescing + AIMD window vs stop-and-wait and I-TCP")
	t := metrics.NewTable("loss", "offered-x", "transport", "offered", "delivered", "goodput%", "p99-lat",
		"retrans", "resets", "frames", "msgs/frame", "dups", "lost-admitted")
	broken := false
	for _, row := range rows {
		perFrame := 0.0
		if row.Frames > 0 {
			perFrame = float64(row.FrameMsgs) / float64(row.Frames)
		}
		lost := d(row.LostAdmitted)
		if row.LostAdmitted < 0 {
			lost = "-" // the I-TCP baseline has no admission accounting
		}
		t.AddRow(f(row.Loss, 2), f(row.OfferedX, 1), row.Transport, d(row.Offered), d(row.Delivered),
			f(row.GoodputPct, 1), dur(row.P99Latency), d(row.Retransmits), d(row.Resets),
			d(row.Frames), f(perFrame, 2), d(row.Duplicates), lost)
		if row.Transport == "windowed" && (row.LostAdmitted != 0 || row.Duplicates != 0) {
			broken = true
		}
	}
	r.emit(t)

	fmt.Fprintln(r.w, "\nE15b — per-link transport profile (RTT/RTO/cwnd histograms, WTP rows only)")
	t2 := metrics.NewTable("loss", "offered-x", "transport", "rtt-p50", "rtt-p99", "rto-p50", "cwnd-mean", "retrans")
	for _, row := range rows {
		if row.CwndMean == 0 { // plain and I-TCP rows carry no WTP link state
			continue
		}
		t2.AddRow(f(row.Loss, 2), f(row.OfferedX, 1), row.Transport, dur(row.RttP50), dur(row.RttP99),
			dur(row.RtoP50), f(row.CwndMean, 2), d(row.Retransmits))
	}
	r.emit(t2)

	r.header("E15lat", "windowed wireless transport: p99 result latency at the headline grid point")
	t3 := metrics.NewTable("loss", "offered-x", "transport", "p99-lat")
	for _, row := range rows {
		if row.Loss != 0.10 || row.OfferedX != 2 {
			continue
		}
		t3.AddRow(f(row.Loss, 2), f(row.OfferedX, 1), row.Transport, dur(row.P99Latency))
	}
	r.emit(t3)

	goodput := benchcmp.Entry{Name: "e15", MetricName: "guarded_goodput_ratio", Metric: -1}
	lat := benchcmp.Entry{Name: "e15lat", MetricName: "p99_latency_ms", Metric: -1}
	if w, s, ok := experiments.E15Headline(rows); ok {
		ms := float64(time.Millisecond)
		lat.Metric = float64(w.P99Latency) / ms
		if !broken && s.GoodputPct > 0 && w.P99Latency <= s.P99Latency {
			goodput.Metric = w.GoodputPct / s.GoodputPct
		}
		goodput.Aux = map[string]float64{
			"rtt_p50_ms":       float64(w.RttP50) / ms,
			"rtt_p99_ms":       float64(w.RttP99) / ms,
			"rto_p50_ms":       float64(w.RtoP50) / ms,
			"cwnd_mean_frames": w.CwndMean,
			"retransmits":      float64(w.Retransmits),
			"frames":           float64(w.Frames),
			"frame_msgs":       float64(w.FrameMsgs),
		}
	}
	return []benchcmp.Entry{goodput, lat}
}

// runE16's headline is the minimum guarded state reduction across the
// paired tiers. Each pair's guard (computed by the sweep itself)
// licenses the ratio only when both representations delivered exactly
// the same results with zero losses and duplicates, and the unpaired 1M
// top tier must be equally clean — any violation forces -1, so the
// guard-smoke benchcmp gate fails on a representation that cheats on
// delivery, not just one that stops shrinking state. benchcmp registers
// state_reduction_ratio as DirHigherBetter.
func runE16(r *renderer, p params) []benchcmp.Entry {
	r.header("E16", "aggregated location state: O(hosts) → O(cells·servers) station memory at subscriber scale")
	t := metrics.NewTable("mhs", "stations", "mode", "issued", "delivered", "dups", "missing",
		"state-B/MSS", "outstanding", "signaling", "handoffs", "shared-proxies", "notifs",
		"state-redux", "sig-redux", "peak-rss", "wall")
	min, broken := -1.0, false
	for _, row := range experiments.E16Aggregation(p.seed, p.sc) {
		mode := "faithful"
		if row.Aggregated {
			mode = "aggregated"
		}
		redux, sig := "-", "-"
		if row.Aggregated && row.Reduction != 0 {
			redux, sig = f(row.Reduction, 1)+"x", f(row.SigReduction, 1)+"x"
		}
		t.AddRow(strconv.Itoa(row.MHs), strconv.Itoa(row.Stations), mode,
			d(row.Issued), d(row.Delivered), d(row.Duplicates), strconv.Itoa(row.Missing),
			f(row.PerMSS, 0), d(row.Outstanding), d(row.Signaling), d(row.Handoffs),
			d(row.SharedProxies), d(row.Notifications), redux, sig,
			metrics.FormatBytes(row.PeakRSS, row.PeakRSSOK), dur(row.Wall))
		if row.Missing != 0 || row.Duplicates != 0 || (row.Aggregated && row.Reduction < 0) {
			broken = true
		}
		if row.Aggregated && row.Reduction > 0 && (min < 0 || row.Reduction < min) {
			min = row.Reduction
		}
	}
	r.emit(t)
	if broken {
		min = -1
	}
	return headline("e16", "state_reduction_ratio", min)
}

// runE17's headline is the minimum cache hit ratio across the sweep,
// forced to -1 whenever any row loses a request or partially delivers a
// batch — benchcmp then fails the guard-smoke gate on either a broken
// guarantee or a collapsed cache.
func runE17(r *renderer, p params) []benchcmp.Entry {
	r.header("E17", "disconnected operation: offline queue + atomic batches + station result cache")
	t := metrics.NewTable("disc-dur", "crashes", "migration", "issued", "delivered", "lost", "replayed",
		"batches", "b-del", "b-abort", "b-partial", "migrations", "hits", "misses", "stale", "hit-ratio")
	min, broken := 1.0, false
	for _, row := range experiments.E17Disconnected(p.seed, p.sc) {
		t.AddRow(dur(row.DisconnectDur), strconv.Itoa(row.Crashes), fmt.Sprint(row.Migration),
			d(row.Issued), d(row.Delivered), d(row.Lost), d(row.Replayed),
			d(row.Batches), d(row.BatchDelivered), d(row.BatchAborted), d(row.BatchPartial),
			d(row.Migrations), d(row.CacheHits), d(row.CacheMisses), d(row.CacheStale), f(row.HitRatio, 4))
		if row.Lost > 0 || row.BatchPartial > 0 {
			broken = true
		}
		if row.HitRatio < min {
			min = row.HitRatio
		}
	}
	r.emit(t)
	if broken {
		min = -1
	}
	return headline("e17", "guarded_min_hit_ratio", min)
}

// runE18's headline is the survivor-scope delivery ratio across the
// sweep, forced to -1 whenever any row loses a survivor request,
// delivers a result across an incarnation boundary, partially delivers
// a batch, or leaks dead-incarnation proxy state past the quiescence
// sweep — benchcmp then fails the guard-smoke gate on any broken
// guarantee.
func runE18(r *renderer, p params) []benchcmp.Entry {
	r.header("E18", "mobile-host crash/amnesia recovery: incarnation-scoped delivery + lease-based orphan reclamation")
	t := metrics.NewTable("disc-dur", "mss-crash", "migration", "mh-crash", "mh-restart", "issued", "delivered",
		"lost", "orphaned", "x-inc", "reclaimed", "heartbeats", "stale-drops", "journal-drops",
		"migrations", "batches", "b-del", "b-abort", "b-partial", "leaked")
	var issued, delivered, orphaned int64
	broken := false
	for _, row := range experiments.E18MHCrash(p.seed, p.sc) {
		leaked := "none"
		if row.Leaked != "" {
			leaked = row.Leaked
		}
		t.AddRow(dur(row.DisconnectDur), strconv.Itoa(row.MSSCrashes), fmt.Sprint(row.Migration),
			d(row.MHCrashes), d(row.MHRestarts), d(row.Issued), d(row.Delivered),
			d(row.Lost), d(row.Orphaned), d(row.CrossIncDeliveries), d(row.Reclaimed),
			d(row.Heartbeats), d(row.StaleDrops), d(row.DroppedOffline), d(row.Migrations),
			d(row.Batches), d(row.BatchDelivered), d(row.BatchAborted), d(row.BatchPartial), leaked)
		if row.Lost > 0 || row.CrossIncDeliveries > 0 || row.BatchPartial > 0 || row.Leaked != "" {
			broken = true
		}
		issued += row.Issued
		delivered += row.Delivered
		orphaned += row.Orphaned
	}
	r.emit(t)
	if survivors := issued - orphaned; !broken && survivors > 0 {
		return headline("e18", "guarded_survivor_delivery", float64(delivered)/float64(survivors))
	}
	return headline("e18", "guarded_survivor_delivery", -1)
}
