package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/causal"
	"repro/internal/metrics"
	"repro/internal/msg"
)

// repResult is what one child process reports about one set-up-and-run.
type repResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Mode     mode     `json:"mode"`
	OK       bool     `json:"ok"`
	Problems []string `json:"problems,omitempty"`

	// Counts. On the simulated workloads the first five are exact at a
	// seed and must repeat across runs.
	Issued    int64 `json:"issued"`
	Delivered int64 `json:"delivered"`
	Dups      int64 `json:"dups"`
	Handoffs  int64 `json:"handoffs"`
	Events    int64 `json:"events"`
	Signaling int64 `json:"signaling"`
	WireBytes int64 `json:"wire_bytes"`

	// Host time and memory. Set-up is measured in CPU time (user and
	// system, all threads): on a virtual machine the hypervisor's stolen
	// time lands in wall time, and set-up is short enough for it to
	// dominate.
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// BusyS is the run phase on the clock results_per_s uses: on the
	// simulator the simulation thread's CPU time, which leaves out the
	// time the hypervisor stole; on tcp-live wall time, which the
	// open-loop schedule sets.
	BusyS     float64 `json:"busy_s"`
	CPUS      float64 `json:"cpu_s"`
	Mallocs   uint64  `json:"mallocs"`
	Alloc     uint64  `json:"alloc_bytes"`
	GCs       int64   `json:"gcs"`
	GCCPU     float64 `json:"gc_cpu_fraction"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Result latency on the scheduler's clock (simulated time on the
	// simulator) and on the host's: from the scheduled send time in wall
	// time on tcp-live, in the simulation thread's CPU time on the
	// simulator.
	LatSamples int     `json:"lat_samples"`
	P50SimMs   float64 `json:"p50_sim_ms"`
	P99SimMs   float64 `json:"p99_sim_ms"`
	P50WallMs  float64 `json:"p50_wall_ms"`

	// tcp-live only: how far the open-loop generator fell behind, and
	// the CPU time of the generator's thread, left out of CPUS.
	GenLateMsMax float64 `json:"gen_late_ms_max,omitempty"`
	GenCPUS      float64 `json:"gen_cpu_s,omitempty"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// took during the run phase: context for the host-time figures.
	StealShare float64 `json:"steal_share"`

	// Per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (res *repResult) fillLatency(simLat, hostLat []time.Duration) {
	res.LatSamples = len(simLat)
	res.P50SimMs = ms(quantile(simLat, 0.50))
	res.P99SimMs = ms(quantile(simLat, 0.99))
	res.P50WallMs = ms(quantile(hostLat, 0.50))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile sorts xs in place and returns its q-quantile (nearest rank).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var clockBase = time.Now()

// nanotime is the monotonic clock in nanoseconds since process start.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// threadCPU is the calling OS thread's CPU time in nanoseconds
// (CLOCK_THREAD_CPUTIME_ID). The kernel leaves stolen time out of it.
func threadCPU() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

type usage struct {
	wall, cpu      time.Duration
	mallocs, alloc uint64
	gcs            uint32
	gcCPU          float64
	steal, total   uint64 // machine-wide clock ticks from /proc/stat
}

// stealShare is the share of machine CPU time stolen between a and b.
func stealShare(a, b usage) float64 {
	return per(float64(b.steal-a.steal), float64(b.total-a.total))
}

// cpuTicks reads the machine-wide steal and total ticks from /proc/stat;
// both are zero where the file is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func takeUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	steal, total := cpuTicks()
	return usage{
		steal:   steal,
		total:   total,
		wall:    time.Duration(nanotime()),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		alloc:   m.TotalAlloc,
		gcs:     m.NumGC,
		gcCPU:   m.GCCPUFraction,
	}
}

// fillPeakRSS records the process's resident high-water mark (VmHWM);
// a platform without the probe fails the repetition rather than report
// a zero.
func (res *repResult) fillPeakRSS() {
	b, ok := metrics.PeakRSS()
	if !ok {
		res.Problems = append(res.Problems, "peak RSS (VmHWM) unavailable")
		res.OK = false
		return
	}
	res.PeakRSSMB = float64(b) / (1 << 20)
}

// clockCost estimates the cost of one nanotime call, subtracted from
// per-operation replay timings.
func clockCost() float64 {
	const n = 1 << 16
	t0 := nanotime()
	for i := 0; i < n; i++ {
		nanotime()
	}
	return float64(nanotime()-t0) / n
}

// replayCausal replays a traced wired send sequence through a fresh
// causal group, one send and its immediate receive at a time, and
// returns the mean send and receive cost in nanoseconds.
func replayCausal(n int, pairs [][2]int32) (sendNS, recvNS float64) {
	if n == 0 || len(pairs) == 0 {
		return 0, 0
	}
	eps := causal.Group(n, func(int, any) {}, causal.Pooled(true))
	cc := clockCost()
	var send, recv int64
	for _, p := range pairs {
		t0 := nanotime()
		st := eps[p[0]].Send(int(p[1]))
		t1 := nanotime()
		eps[p[1]].Receive(st, nil)
		t2 := nanotime()
		send += t1 - t0
		recv += t2 - t1
	}
	k := float64(len(pairs))
	return max(float64(send)/k-cc, 0), max(float64(recv)/k-cc, 0)
}

// replayCodec encodes and decodes the traced message mix and returns
// the mean encode and decode cost in nanoseconds and the mean encoded
// size in bytes.
func replayCodec(mix []msg.Message) (encNS, decNS, bytes float64) {
	if len(mix) == 0 {
		return 0, 0, 0
	}
	enc := make([][]byte, len(mix))
	var total int
	for i, m := range mix {
		b, err := msg.Encode(m)
		if err != nil {
			continue
		}
		enc[i] = b
		total += len(b)
	}
	const passes = 4
	buf := make([]byte, 0, 4096)
	t0 := nanotime()
	for p := 0; p < passes; p++ {
		for _, m := range mix {
			buf, _ = msg.AppendEncode(buf[:0], m)
		}
	}
	t1 := nanotime()
	for p := 0; p < passes; p++ {
		for _, b := range enc {
			if b != nil {
				msg.Decode(b)
			}
		}
	}
	t2 := nanotime()
	k := float64(passes * len(mix))
	return float64(t1-t0) / k, float64(t2-t1) / k, float64(total) / float64(len(mix))
}

// stampBytes is the size of a full causal stamp on the wire for a group
// of n members: sender and size words, then the n×n SENT matrix.
func stampBytes(n int) float64 { return float64(8 + 8*n*n) }
