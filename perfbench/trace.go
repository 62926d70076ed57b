package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// layer names one place a span of the traced run is charged to. The
// spans are recorded from this package only, around calls into each
// layer's public functions: the scheduler handed to the world and its
// transports, the transports themselves, and the handlers registered on
// them.
type layer uint8

const (
	lLoop            layer = iota // kernel run loop: pop and dispatch, plus the tracer's own gaps
	lSchedule                     // Scheduler.After/Defer calls (kernel or livenet queue insert)
	lScript                       // workload script events (issue, migrate, activate)
	lTimer                        // protocol timers armed on the world's scheduler (rdpcore, servers)
	lWiredSend                    // netsim wired Send
	lWiredDeliver                 // netsim wired delivery events, causal hold-back included
	lWirelessSend                 // netsim wireless SendDownlink/SendUplink
	lWirelessDeliver              // netsim wireless delivery and wtp timer events
	lMSS                          // rdpcore station handler
	lMH                           // rdpcore mobile-host handler
	lServer                       // application server / SIDAM TIS handler
	lTCPSend                      // tcpnet Send/SendDownlink/SendUplink
	lPost                         // livenet callbacks posted by the open-loop generator
	lSample                       // the tracer's periodic queue sampling
	nLayers
)

var layerNames = [nLayers]string{
	"sim.loop", "sim.schedule", "workload.script", "rdpcore.timer",
	"netsim.wired_send", "netsim.wired_deliver", "netsim.wireless_send", "netsim.wireless_deliver",
	"rdpcore.mss", "rdpcore.mh", "rdpcore.server",
	"tcpnet.send", "livenet.post", "trace.sample",
}

// span is one timed call. Times are nanoseconds since the tracer began;
// parent indexes the enclosing span in the same log, -1 at top level.
type span struct {
	start, end int64
	parent     int32
	layer      layer
}

// maxSpans bounds the span log kept in memory. Self times are summed
// online over every span; only the log itself stops growing.
const maxSpans = 1 << 20

type openSpan struct {
	l     layer
	start int64
	child int64
	idx   int32
}

// tracer records nested spans on one goroutine (the simulation loop, or
// the livenet dispatcher). A layer's self time is its spans' durations
// minus the parts covered by their child spans.
type tracer struct {
	base    time.Time
	stack   []openSpan
	self    [nLayers]int64
	count   [nLayers]int64
	spans   []span
	dropped int64
	// sample, when set, runs every sampleEvery scheduled callbacks (queue
	// peaks); its cost is charged to lSample.
	sample func()
	events uint64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, maxSpans)}
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.base = time.Now()
	t.stack = t.stack[:0]
	t.self, t.count = [nLayers]int64{}, [nLayers]int64{}
	t.spans = t.spans[:0]
	t.dropped = 0
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(l layer) {
	now := t.now()
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{start: now, parent: parent, layer: l})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, openSpan{l: l, start: now, idx: idx})
}

func (t *tracer) end() {
	now := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := now - o.start
	t.self[o.l] += d - o.child
	t.count[o.l]++
	if n > 0 {
		t.stack[n-1].child += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
}

// spanCost measures what one empty span costs the code around it: the
// two clock reads and the bookkeeping of a begin/end pair.
func spanCost() float64 {
	t := newTracer()
	const n = 1 << 16
	t0 := nanotime()
	for i := 0; i < n; i++ {
		t.begin(lSample)
		t.end()
	}
	return float64(nanotime()-t0) / n
}

// selfNS returns a layer's mean self time per span in nanoseconds.
func (t *tracer) selfNS(l layer) float64 {
	if t.count[l] == 0 {
		return 0
	}
	return float64(t.self[l]) / float64(t.count[l])
}

// write dumps the span log as a little-endian binary file: a header
// line naming the layers, then one 21-byte record per span (start, end,
// parent, layer).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "perfbench spans v1 layers=%q kept=%d dropped=%d\n", layerNames, len(t.spans), t.dropped)
	var rec [21]byte
	for _, s := range t.spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[16:], uint32(s.parent))
		rec[20] = byte(s.layer)
		bw.Write(rec[:])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans dumps a traced repetition's span log into dir; a failed
// write fails the repetition.
func (res *repResult) writeSpans(t *tracer, dir string) {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans", res.Workload, res.Seed))
	if err := t.write(path); err != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("write spans: %v", err))
		res.OK = false
	}
}

// tracedSched wraps the scheduler handed to one client (the world, the
// wired or the wireless transport, the host scripts). Scheduling calls
// are charged to lSchedule and every callback runs inside a span of the
// client's layer.
type tracedSched struct {
	sim.Scheduler
	tr *tracer
	l  layer
}

const sampleEvery = 4096

func (s *tracedSched) wrap(fn func()) func() {
	return func() {
		if t := s.tr; t.sample != nil {
			t.events++
			if t.events%sampleEvery == 0 {
				t.begin(lSample)
				t.sample()
				t.end()
			}
		}
		s.tr.begin(s.l)
		fn()
		s.tr.end()
	}
}

func (s *tracedSched) After(d time.Duration, fn func()) sim.Canceler {
	s.tr.begin(lSchedule)
	c := s.Scheduler.After(d, s.wrap(fn))
	s.tr.end()
	return c
}

func (s *tracedSched) Defer(d time.Duration, fn func()) {
	s.tr.begin(lSchedule)
	s.Scheduler.Defer(d, s.wrap(fn))
	s.tr.end()
}

// handlerTap charges a registered handler's work to its layer. On the
// wired substrate it also closes the per-link transit record opened by
// the send.
type handlerTap struct {
	h       netsim.Handler
	tr      *tracer
	l       layer
	self    ids.NodeID
	transit *transit
}

func (h *handlerTap) HandleMessage(from ids.NodeID, m msg.Message) {
	if h.transit != nil {
		h.transit.arrive(from, h.self)
	}
	h.tr.begin(h.l)
	h.h.HandleMessage(from, m)
	h.tr.end()
}

func handlerLayer(n ids.NodeID) layer {
	switch n.Kind {
	case ids.KindMSS:
		return lMSS
	case ids.KindMH:
		return lMH
	default:
		return lServer
	}
}

// transit pairs wired sends with their deliveries to time the transit in
// simulated time, causal hold-back included. Causal delivery is FIFO per
// directed link, and so is a constant-latency link without it, so the
// oldest open send on a link is the one being delivered.
type transit struct {
	now     func() sim.Time
	open    map[[2]ids.NodeID]*timeFIFO
	samples []time.Duration
}

type timeFIFO struct {
	buf  []sim.Time
	head int
}

func newTransit(now func() sim.Time) *transit {
	return &transit{now: now, open: make(map[[2]ids.NodeID]*timeFIFO)}
}

func (t *transit) send(from, to ids.NodeID) {
	key := [2]ids.NodeID{from, to}
	q := t.open[key]
	if q == nil {
		q = &timeFIFO{}
		t.open[key] = q
	}
	if q.head > 1024 && q.head*2 > len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	q.buf = append(q.buf, t.now())
}

func (t *transit) arrive(from, to ids.NodeID) {
	q := t.open[[2]ids.NodeID{from, to}]
	if q == nil || q.head == len(q.buf) {
		return
	}
	t.samples = append(t.samples, time.Duration(t.now()-q.buf[q.head]))
	q.head++
}
