package main

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/tcpnet"
	"repro/internal/workload"
)

// tcp-live: the protocol over loopback TCP on the live runtime. Open
// loop: independent users send Poisson requests at a fixed aggregate
// rate whatever the system does, and latency is timed from each
// request's scheduled send time.
const (
	liveStations   = 3
	liveHosts      = 64
	liveRate       = 2000.0 // requests per second, all hosts together
	liveResidence  = 250 * time.Millisecond
	liveSetups     = 5
	liveDrainLimit = 5 * time.Second
	liveWindow     = time.Second
	// liveLateLimit is how far the generator may fall behind its
	// schedule before the run is invalid: beyond it the offered load was
	// not the one the workload names.
	liveLateLimit = 100 * time.Millisecond
)

type liveHost struct {
	id        ids.MH
	mh        *rdpcore.MHNode
	issuedSim []sim.Time
	due       []int64
	got       []bool
}

type liveItem struct {
	at      time.Duration
	host    int
	migrate bool
	cell    ids.MSS
	server  ids.Server
	payload []byte
}

type liveRun struct {
	rt    *livenet.Runtime
	net   *tcpnet.Net
	w     *rdpcore.World
	c     *counters
	tr    *tracer
	hosts []*liveHost
	items []liveItem

	// Dispatcher-only once running.
	measuring       bool
	issued          int64
	delivered, dups int64
	latDue          []int64
	latSim, latWall []time.Duration
	postLag         []time.Duration
	problems        []string

	firsts atomic.Int64 // first deliveries, read by the generator goroutine
}

func (r *liveRun) problem(format string, args ...any) {
	if len(r.problems) < 16 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// liveSchedule generates the open-loop script: Poisson request arrivals
// over all hosts and an exponential cell residence per host.
func liveSchedule(seed int64, dur time.Duration) []liveItem {
	gen := sim.NewRNG(seed*7919 + 17)
	var items []liveItem
	gap := netsim.Exponential{MeanDelay: time.Duration(float64(time.Second) / liveRate)}
	for at := gap.Sample(gen); at < dur; at += gap.Sample(gen) {
		payload := make([]byte, 32)
		for i := range payload {
			payload[i] = byte(gen.Intn(256))
		}
		items = append(items, liveItem{at: at, host: gen.Intn(liveHosts), server: 1, payload: payload})
	}
	cells := make([]ids.MSS, liveStations)
	for i := range cells {
		cells[i] = ids.MSS(i + 1)
	}
	mob := workload.Mobility{Picker: workload.UniformCells{Cells: cells}, Residence: netsim.Exponential{MeanDelay: liveResidence}}
	for h := 0; h < liveHosts; h++ {
		for _, ev := range workload.Itinerary(gen, mob, liveCell(h), dur) {
			items = append(items, liveItem{at: ev.At, host: h, migrate: true, cell: ev.Cell})
		}
	}
	slices.SortStableFunc(items, func(a, b liveItem) int { return cmp.Compare(a.at, b.at) })
	return items
}

func liveCell(h int) ids.MSS { return ids.MSS(1 + h%liveStations) }

// newLiveRun builds the world on loopback TCP, starts the runtime and
// warms every host's path with one request.
func newLiveRun(seed int64, dur time.Duration, tr *tracer) (*liveRun, error) {
	cfg := rdpcore.DefaultConfig()
	cfg.Seed = seed
	cfg.NumMSS = liveStations
	cfg.NumServers = 1
	// A service with a long processing time, the paper's target. With a
	// 1 ms service the latency tail is the hypervisor's: on a shared
	// virtual machine the guest loses the CPU in 10-20 ms bursts, and the
	// p99 moved sixfold between runs.
	cfg.ServerProc = netsim.Constant(50 * time.Millisecond)
	r := &liveRun{rt: livenet.New(seed), tr: tr, c: &counters{}, items: liveSchedule(seed, dur)}
	members := make([]ids.NodeID, 0, liveStations+1)
	for i := 1; i <= liveStations; i++ {
		members = append(members, ids.MSS(i).Node())
	}
	members = append(members, ids.Server(1).Node())
	r.c.index = make(map[ids.NodeID]int32, len(members))
	for i, m := range members {
		r.c.index[m] = int32(i)
	}
	r.net = tcpnet.New(r.rt, members)
	if err := r.net.Start(); err != nil {
		return nil, err
	}
	var sched sim.Scheduler = r.rt
	if tr != nil {
		sched = &tracedSched{Scheduler: r.rt, tr: tr, l: lTimer}
		r.c.capture = true
	}
	wired := &wiredTap{inner: r.net, c: r.c, tr: tr, sendL: lTCPSend}
	wireless := &wirelessTap{inner: r.net, c: r.c, tr: tr, sendL: lTCPSend}
	r.w = rdpcore.NewWorldWith(sched, cfg, wired, wireless)
	r.net.SetReachable(r.w.Reachable)
	r.rt.Start()
	r.rt.Do(func() {
		for i := 0; i < liveHosts; i++ {
			h := &liveHost{id: ids.MH(i + 1)}
			h.mh = r.w.AddMH(h.id, liveCell(i))
			h.mh.OnResult(func(req ids.RequestID, _ []byte, dup bool) { r.onResult(h, req, dup) })
			r.hosts = append(r.hosts, h)
		}
		for _, h := range r.hosts {
			r.issue(h, 1, []byte("warm"), nanotime())
		}
	})
	if !r.waitDelivered(liveHosts, 10*time.Second) {
		r.close()
		return nil, errors.New("tcp-live: warm-up requests did not complete")
	}
	return r, nil
}

func (r *liveRun) close() {
	r.rt.Stop()
	r.net.Close()
}

// issue runs on the dispatcher.
func (r *liveRun) issue(h *liveHost, server ids.Server, payload []byte, due int64) {
	req := h.mh.IssueRequest(server, payload)
	if int(req.Seq) != len(h.got)+1 {
		r.problem("%v issued seq %d, expected %d", h.id, req.Seq, len(h.got)+1)
	}
	h.issuedSim = append(h.issuedSim, r.rt.Now())
	h.due = append(h.due, due)
	h.got = append(h.got, false)
	if r.measuring {
		r.issued++
	}
}

// onResult runs on the dispatcher.
func (r *liveRun) onResult(h *liveHost, req ids.RequestID, dup bool) {
	i := int(req.Seq) - 1
	if req.Origin != h.id || i < 0 || i >= len(h.got) {
		r.problem("result for %v at %v, which never issued it", req, h.id)
		return
	}
	if dup {
		if r.measuring {
			r.dups++
		}
		return
	}
	if h.got[i] {
		r.problem("%v delivered twice as first delivery", req)
		return
	}
	h.got[i] = true
	r.firsts.Add(1)
	if !r.measuring {
		return
	}
	r.delivered++
	now := nanotime()
	r.latDue = append(r.latDue, h.due[i])
	r.latWall = append(r.latWall, time.Duration(now-h.due[i]))
	r.latSim = append(r.latSim, time.Duration(r.rt.Now()-h.issuedSim[i]))
}

func (r *liveRun) waitDelivered(n int64, limit time.Duration) bool {
	deadline := nanotime() + int64(limit)
	for r.firsts.Load() < n {
		if nanotime() > deadline {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// runLiveChild sets the world up liveSetups times (reporting the median
// set-up time), then drives the open-loop schedule on the last one.
func runLiveChild(seconds float64, seed int64, m mode, outDir string) (*repResult, error) {
	dur := time.Duration((seconds - 3) * float64(time.Second))
	dur = max(dur, 3*time.Second)
	var tr *tracer
	if m == modeTraced {
		tr = newTracer()
	}
	var setups []float64
	var r *liveRun
	for i := 0; i < liveSetups; i++ {
		if r != nil {
			r.close()
		}
		u0 := takeUsage()
		var err error
		r, err = newLiveRun(seed, dur, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (takeUsage().cpu - u0.cpu).Seconds())
	}
	defer r.close()
	res := &repResult{Workload: "tcp-live", Seed: seed, Mode: m, SetupS: median(setups)}

	var baseSends [2]int64
	var baseSignal, baseHandoffs int64
	r.rt.Do(func() {
		if tr != nil {
			// Spans from the set-ups are not part of the run.
			tr.reset()
		}
		r.measuring = true
		baseSends = [2]int64{r.c.wiredSends, r.c.wirelessSends}
		baseSignal = r.c.signaling
		baseHandoffs = r.w.Stats.Handoffs.Value()
	})
	// The generator and the drain wait run on this goroutine, pinned to
	// one OS thread so that its CPU time (sleeps, polling), which is the
	// benchmark's and not the system's, is left out of the run's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	netBase := r.net.Stats()
	warm := r.firsts.Load()
	before := takeUsage()
	gen0 := threadCPU()
	start := nanotime()
	var lateMax int64
	for _, it := range r.items {
		due := start + int64(it.at)
		if d := due - nanotime(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		lateMax = max(lateMax, nanotime()-due)
		posted := nanotime()
		r.rt.Post(func() { r.execute(it, due, posted) })
	}
	var issued int64
	r.rt.Do(func() { issued = r.issued })
	drained := r.waitDelivered(warm+issued, liveDrainLimit)
	gen := time.Duration(threadCPU() - gen0)
	after := takeUsage()
	netAfter := r.net.Stats()

	res.RunS = (after.wall - before.wall).Seconds()
	res.BusyS = res.RunS
	res.CPUS = (after.cpu - before.cpu - gen).Seconds()
	res.GenCPUS = gen.Seconds()
	res.Mallocs = after.mallocs - before.mallocs
	res.Alloc = after.alloc - before.alloc
	res.GCs = int64(after.gcs - before.gcs)
	res.GCCPU = after.gcCPU
	res.StealShare = stealShare(before, after)
	res.GenLateMsMax = float64(lateMax) / 1e6
	res.WireBytes = int64(netAfter.WiredBytes + netAfter.WirelessBytes - netBase.WiredBytes - netBase.WirelessBytes)

	r.rt.Do(func() {
		r.measuring = false
		if !drained {
			r.problem("%d of %d requests undelivered %v after the schedule ended", r.issued-r.delivered, r.issued, liveDrainLimit)
		}
		if v := r.w.Stats.Violations.Value(); v != 0 {
			r.problem("Stats.Violations = %d", v)
		}
		if err := r.w.CheckInvariants(); err != nil {
			r.problem("CheckInvariants: %v", err)
		}
		if time.Duration(lateMax) > liveLateLimit {
			r.problem("generator fell %.1fms behind its schedule (limit %v)", float64(lateMax)/1e6, liveLateLimit)
		}
		res.Issued, res.Delivered, res.Dups = r.issued, r.delivered, r.dups
		res.Handoffs = r.w.Stats.Handoffs.Value() - baseHandoffs
		res.Signaling = r.c.signaling - baseSignal
		res.LatSamples = len(r.latSim)
		res.P50SimMs = ms(quantile(slices.Clone(r.latSim), 0.5))
		res.P99SimMs = windowedP99(r.latDue, r.latSim)
		res.P50WallMs = ms(quantile(slices.Clone(r.latWall), 0.5))
		res.Problems = r.problems
		res.OK = len(r.problems) == 0
		if tr != nil {
			res.Layers = r.layerMetrics(res, baseSends, netBase, netAfter, lateMax)
			res.writeSpans(tr, outDir)
		}
	})
	res.fillPeakRSS()
	res.fillRuntime()
	return res, nil
}

// execute runs one scheduled item on the dispatcher.
func (r *liveRun) execute(it liveItem, due, posted int64) {
	r.postLag = append(r.postLag, time.Duration(nanotime()-posted))
	if r.tr != nil {
		r.tr.begin(lPost)
		defer r.tr.end()
	}
	h := r.hosts[it.host]
	if it.migrate {
		r.w.Migrate(h.id, it.cell)
		return
	}
	r.issue(h, it.server, it.payload, due)
}

// windowedP99 is the median over one-second windows (by scheduled send
// time) of each window's p99 latency. On a shared host a single stall
// moves a whole-run p99; the median of window p99s keeps the tail
// figure steady while each window still holds ~2000 samples, 20 of
// them beyond its p99.
func windowedP99(due []int64, lat []time.Duration) float64 {
	if len(due) == 0 {
		return 0
	}
	t0 := due[0]
	for _, d := range due {
		t0 = min(t0, d)
	}
	buckets := map[int64][]time.Duration{}
	for i, d := range due {
		k := (d - t0) / int64(liveWindow)
		buckets[k] = append(buckets[k], lat[i])
	}
	var p99s []float64
	for _, b := range buckets {
		if len(b) >= 1000 {
			p99s = append(p99s, ms(quantile(b, 0.99)))
		}
	}
	if len(p99s) == 0 {
		return ms(quantile(slices.Clone(lat), 0.99))
	}
	return median(p99s)
}

func (r *liveRun) layerMetrics(res *repResult, baseSends [2]int64, base, after tcpnet.Stats, lateMax int64) map[string]float64 {
	tr := r.tr
	results := float64(res.Delivered)
	m := make(map[string]float64)
	n := len(r.c.index)
	m["causal.stamp_bytes_per_wired_msg"] = stampBytes(n)
	m["causal.send_ns"], m["causal.receive_ns"] = replayCausal(n, r.c.wiredPairs)
	m["netsim.wired_sends_per_result"] = per(float64(r.c.wiredSends-baseSends[0]), results)
	m["netsim.wireless_sends_per_result"] = per(float64(r.c.wirelessSends-baseSends[1]), results)
	rdpcoreLayers(m, tr, r.w.Stats, results)
	m["tcpnet.send_ns"] = tr.selfNS(lTCPSend)
	frames := float64(after.WiredFrames + after.WirelessFrames - base.WiredFrames - base.WirelessFrames)
	m["tcpnet.frames_per_result"] = per(frames, results)
	m["tcpnet.wired_bytes_per_frame"] = per(float64(after.WiredBytes-base.WiredBytes), float64(after.WiredFrames-base.WiredFrames))
	lag := slices.Clone(r.postLag)
	m["livenet.post_lag_us_p50"] = float64(quantile(lag, 0.5)) / 1e3
	m["livenet.post_lag_us_p99"] = float64(quantile(lag, 0.99)) / 1e3
	m["livenet.gen_late_ms_max"] = float64(lateMax) / 1e6
	runtimeLayers(m, tr, r.c, res, res.CPUS)
	return m
}
