package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
)

// simWorkload is one workload on the discrete-event simulator: the
// world's configuration and the host population with its scripts, all
// generated from the seed.
type simWorkload struct {
	config func(seed int64) rdpcore.Config
	// populate adds the hosts, builds each host's script and runs any
	// extra installation (SIDAM servers) on the fresh world.
	populate func(r *simRun)
	// end is the simulated instant the run stops: the script horizon
	// plus a drain long enough for every admitted request to resolve.
	end time.Duration
	// measureAt is the simulated instant the traced run samples the
	// stations' state bytes.
	measureAt time.Duration
}

type stepKind uint8

const (
	stIssue stepKind = iota
	stMigrate
	stSleep
	stWake
)

// step is one scripted action of a host.
type step struct {
	at      time.Duration
	kind    stepKind
	cell    ids.MSS
	server  ids.Server
	payload []byte
}

// hostLatEvery samples one request in this many for the host-clock
// latency: a thread CPU clock read is a system call (about 0.2 µs), and
// reading it twice for every request cost 1-2% of the run phase.
const hostLatEvery = 16

// hostScript feeds one host's pre-generated script through a single
// pending kernel event, so the kernel queue holds protocol traffic and
// not the whole script.
type hostScript struct {
	r     *simRun
	id    ids.MH
	mh    *rdpcore.MHNode
	steps []step
	next  int
	fire  func()

	issuedSim  []sim.Time
	issuedHost []int64 // threadCPU at issue for sampled requests, else -1
	got        []bool
}

func (h *hostScript) arm() {
	if h.next < len(h.steps) {
		h.r.scriptSched.Defer(h.steps[h.next].at-time.Duration(h.r.k.Now()), h.fire)
	}
}

func (h *hostScript) run() {
	s := h.steps[h.next]
	h.next++
	w := h.r.w
	switch s.kind {
	case stIssue:
		req := h.mh.IssueRequest(s.server, s.payload)
		if int(req.Seq) != len(h.issuedSim)+1 {
			panic(fmt.Sprintf("perfbench: %v issued seq %d, expected %d", h.id, req.Seq, len(h.issuedSim)+1))
		}
		h.issuedSim = append(h.issuedSim, h.r.k.Now())
		at := int64(-1)
		if h.r.issues++; h.r.issues%hostLatEvery == 0 {
			at = threadCPU()
		}
		h.issuedHost = append(h.issuedHost, at)
		h.got = append(h.got, false)
	case stMigrate:
		w.Migrate(h.id, s.cell)
	case stSleep:
		w.SetActive(h.id, false)
	case stWake:
		if s.cell.Valid() && s.cell != w.Location(h.id) {
			w.Migrate(h.id, s.cell)
		}
		w.SetActive(h.id, true)
	}
	h.arm()
}

func (h *hostScript) onResult(req ids.RequestID, _ []byte, dup bool) {
	r := h.r
	i := int(req.Seq) - 1
	if req.Origin != h.id || i < 0 || i >= len(h.got) {
		r.problem("result for %v at %v, which never issued it", req, h.id)
		return
	}
	if dup {
		r.dups++
		return
	}
	if h.got[i] {
		r.problem("%v delivered twice as first delivery", req)
		return
	}
	h.got[i] = true
	r.delivered++
	r.latSim = append(r.latSim, time.Duration(r.k.Now()-h.issuedSim[i]))
	if at := h.issuedHost[i]; at >= 0 {
		r.latHost = append(r.latHost, time.Duration(threadCPU()-at))
	}
}

// simRun is one set-up-and-run of a simulated workload in this process.
type simRun struct {
	gen         *sim.RNG // workload generator: scripts and placements
	k           *sim.Kernel
	w           *rdpcore.World
	scriptSched sim.Scheduler // runs the host scripts
	tr          *tracer
	c           *counters
	wired       *netsim.Wired
	hosts       []*hostScript

	issues                int64
	delivered, dups       int64
	latSim, latHost       []time.Duration
	queuePeak, causalPeak int
	problems              []string
}

func (r *simRun) problem(format string, args ...any) {
	if len(r.problems) < 16 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// addHost creates a host in a cell and returns its (empty) script.
func (r *simRun) addHost(id ids.MH, cell ids.MSS) *hostScript {
	h := &hostScript{r: r, id: id}
	h.fire = h.run
	h.mh = r.w.AddMH(id, cell)
	h.mh.OnResult(h.onResult)
	r.hosts = append(r.hosts, h)
	return h
}

// servers lists the world's server ids.
func (r *simRun) servers() []ids.Server {
	out := make([]ids.Server, 0, r.w.Config().NumServers)
	for i := 1; i <= r.w.Config().NumServers; i++ {
		out = append(out, ids.Server(i))
	}
	return out
}

// newSimRun builds the world on its own kernel. The transports are
// built after the world so that they take its observer and windowed
// transport hooks; with tracing on, each gets a scheduler that charges
// its callbacks to its layer.
func newSimRun(wl *simWorkload, seed int64, tr *tracer, sizeBytes bool) *simRun {
	cfg := wl.config(seed)
	r := &simRun{
		gen: sim.NewRNG(seed*7919 + 17),
		k:   sim.NewKernel(seed),
		tr:  tr,
		c:   &counters{sizeBytes: sizeBytes},
	}
	var worldSched, wiredSched, wirelessSched sim.Scheduler = r.k, r.k, r.k
	r.scriptSched = r.k
	if tr != nil {
		worldSched = &tracedSched{Scheduler: r.k, tr: tr, l: lTimer}
		wiredSched = &tracedSched{Scheduler: r.k, tr: tr, l: lWiredDeliver}
		wirelessSched = &tracedSched{Scheduler: r.k, tr: tr, l: lWirelessDeliver}
		r.scriptSched = &tracedSched{Scheduler: r.k, tr: tr, l: lScript}
		r.c.capture = true
		r.c.transit = newTransit(r.k.Now)
	}
	wired := &wiredTap{c: r.c, tr: tr, sendL: lWiredSend}
	wireless := &wirelessTap{c: r.c, tr: tr, sendL: lWirelessSend}
	r.w = rdpcore.NewWorldWith(worldSched, cfg, wired, wireless)

	members := make([]ids.NodeID, 0, cfg.NumMSS+cfg.NumServers)
	for _, s := range r.w.StationList() {
		members = append(members, s.Node())
	}
	for i := 1; i <= cfg.NumServers; i++ {
		members = append(members, ids.Server(i).Node())
	}
	r.c.index = make(map[ids.NodeID]int32, len(members))
	for i, m := range members {
		r.c.index[m] = int32(i)
	}
	r.wired = netsim.NewWired(wiredSched, members, netsim.WiredConfig{
		Latency:    cfg.WiredLatency,
		Causal:     cfg.Causal,
		QueueLimit: cfg.WiredQueueLimit,
	}, r.w.NetObserver())
	wired.bind(r.wired)
	wireless.bind(netsim.NewWireless(wirelessSched, netsim.WirelessConfig{
		Latency:    cfg.WirelessLatency,
		LossProb:   cfg.WirelessLoss,
		Reachable:  r.w.Reachable,
		QueueLimit: cfg.WirelessQueueLimit,
		WTP:        r.w.WTPConfig(),
	}, r.w.NetObserver()))

	wl.populate(r)
	for _, h := range r.hosts {
		h.arm()
	}
	return r
}

// runSimChild sets up and runs one simulated workload in this process
// and reports its measurements. The run phase is the kernel advancing
// from time zero through the script and the drain.
func runSimChild(name string, wl *simWorkload, seed int64, m mode, outDir string) *repResult {
	// The simulation runs on this goroutine; pinning it to one OS thread
	// lets threadCPU time it.
	runtime.LockOSThread()
	var tr *tracer
	if m == modeTraced {
		tr = newTracer()
	}
	runtime.GC()
	u0 := takeUsage()
	r := newSimRun(wl, seed, tr, m == modeCount)
	setup := takeUsage().cpu - u0.cpu
	runtime.GC()

	if tr != nil {
		r.installSamplers()
		// Spans from the set-up (the hosts' join uplinks, each script's
		// first Defer) are not part of the run the denominators measure.
		tr.reset()
	}
	var stateBytes, outstanding int64
	var paused time.Duration

	before := takeUsage()
	busy0 := threadCPU()
	if tr != nil {
		tr.begin(lLoop)
	}
	r.k.RunUntil(sim.Time(wl.measureAt))
	if tr != nil {
		tr.end()
		p0 := nanotime()
		stateBytes = r.w.StateBytes()
		outstanding = r.w.OutstandingBytes()
		paused = time.Duration(nanotime() - p0)
		tr.begin(lLoop)
	}
	r.k.RunUntil(sim.Time(wl.end))
	if tr != nil {
		tr.end()
	}
	busy := time.Duration(threadCPU() - busy0)
	after := takeUsage()

	res := &repResult{
		Workload:   name,
		Seed:       seed,
		Mode:       m,
		SetupS:     setup.Seconds(),
		RunS:       (after.wall - before.wall - paused).Seconds(),
		BusyS:      (busy - paused).Seconds(),
		CPUS:       (after.cpu - before.cpu - paused).Seconds(),
		Mallocs:    after.mallocs - before.mallocs,
		Alloc:      after.alloc - before.alloc,
		GCs:        int64(after.gcs - before.gcs),
		GCCPU:      after.gcCPU,
		StealShare: stealShare(before, after),
	}
	r.check(res)
	st := r.w.Stats
	res.Events = int64(r.k.Steps())
	res.Handoffs = st.Handoffs.Value()
	res.Signaling = r.c.signaling
	res.WireBytes = r.c.wireBytes
	res.fillLatency(r.latSim, r.latHost)
	res.fillPeakRSS()
	if tr != nil {
		res.Layers = r.layerMetrics(res, stateBytes, outstanding)
		res.writeSpans(tr, outDir)
	}
	res.fillRuntime()
	return res
}

// check runs the correctness gate after the drain and fills the request
// counts.
func (r *simRun) check(res *repResult) {
	st := r.w.Stats
	// Stations confirm admission only when admission control is on;
	// without it every issued request is admitted and owed a result.
	cfg := r.w.Config()
	admitAll := cfg.AdmissionHighWater == 0 && cfg.ProxyQuota == 0
	var issued, lostAdmitted int64
	for _, h := range r.hosts {
		for i, got := range h.got {
			issued++
			req := ids.RequestID{Origin: h.id, Seq: uint32(i + 1)}
			if !got && !h.mh.Abandoned(req) && (admitAll || h.mh.Admitted(req)) {
				lostAdmitted++
			}
		}
	}
	if v := st.Violations.Value(); v != 0 {
		r.problem("Stats.Violations = %d", v)
	}
	if err := r.w.CheckInvariants(); err != nil {
		r.problem("CheckInvariants: %v", err)
	}
	if err := r.w.CheckQuiescent(); err != nil {
		r.problem("CheckQuiescent: %v", err)
	}
	if lostAdmitted != 0 {
		r.problem("%d admitted requests never delivered", lostAdmitted)
	}
	if st.ResultsDelivered.Value() != r.delivered || st.DuplicateDeliveries.Value() != r.dups {
		r.problem("world counted %d results and %d duplicates, hosts saw %d and %d",
			st.ResultsDelivered.Value(), st.DuplicateDeliveries.Value(), r.delivered, r.dups)
	}
	if st.RequestsIssued.Value() != issued {
		r.problem("world counted %d requests, scripts issued %d", st.RequestsIssued.Value(), issued)
	}
	res.Issued = issued
	res.Delivered = r.delivered
	res.Dups = r.dups
	res.Problems = r.problems
	res.OK = len(r.problems) == 0
}
