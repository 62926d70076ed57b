package main

import (
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// counters tallies what the protocol hands to its transports. Every run
// keeps the send counts; a traced run also captures the message mix and
// the wired send sequence for the codec and causal replays, and opens
// the wired transit records.
type counters struct {
	wiredSends    int64
	wirelessSends int64
	signaling     int64
	wireBytes     int64
	// sizeBytes sums msg.WireSize of every send: set in the simulated
	// workloads' counting repetition only, since sizing is a full encode
	// (tcp-live reads the socket byte counters instead).
	sizeBytes bool

	capture    bool
	mix        []msg.Message
	wiredPairs [][2]int32
	index      map[ids.NodeID]int32
	transit    *transit
}

// Capture limits: every mixEvery-th send joins the codec replay mix.
const (
	mixEvery      = 16
	maxMix        = 1 << 16
	maxWiredPairs = 1 << 18
)

func (c *counters) sent(wired bool, m msg.Message) {
	if wired {
		c.wiredSends++
	} else {
		c.wirelessSends++
	}
	if signaling(m.Kind()) {
		c.signaling++
	}
	if c.sizeBytes {
		c.wireBytes += int64(msg.WireSize(m))
	}
	if c.capture && len(c.mix) < maxMix && (c.wiredSends+c.wirelessSends)%mixEvery == 0 {
		c.mix = append(c.mix, m)
	}
}

// signaling reports whether a message kind is protocol signaling rather
// than a carrier of request or result payload: the §5 overhead.
func signaling(k msg.Kind) bool {
	switch k {
	case msg.KindRequest, msg.KindResultDeliver, msg.KindRequestForward, msg.KindResultForward,
		msg.KindServerRequest, msg.KindServerResult, msg.KindTISQuery, msg.KindTISReply,
		msg.KindTISDeliver, msg.KindBatchItem, msg.KindMIPData, msg.KindMIPTunnel,
		msg.KindWtpData, msg.KindLinkFrame:
		return false
	}
	return true
}

type heldReg struct {
	node ids.NodeID
	h    netsim.Handler
}

// wiredTap is the WiredTransport handed to rdpcore.NewWorldWith. The
// simulated transport behind it is bound after the world exists, so it
// can take the world's own observer; registrations made while building
// the world are held until then.
type wiredTap struct {
	inner netsim.WiredTransport
	held  []heldReg
	c     *counters
	tr    *tracer
	sendL layer
}

func (t *wiredTap) bind(inner netsim.WiredTransport) {
	t.inner = inner
	for _, r := range t.held {
		inner.Register(r.node, r.h)
	}
	t.held = nil
}

func (t *wiredTap) Register(n ids.NodeID, h netsim.Handler) {
	if t.tr != nil {
		h = &handlerTap{h: h, tr: t.tr, l: handlerLayer(n), self: n, transit: t.c.transit}
	}
	if t.inner == nil {
		t.held = append(t.held, heldReg{n, h})
		return
	}
	t.inner.Register(n, h)
}

func (t *wiredTap) Send(from, to ids.NodeID, m msg.Message) {
	c := t.c
	c.sent(true, m)
	if t.tr == nil {
		t.inner.Send(from, to, m)
		return
	}
	if c.capture && len(c.wiredPairs) < maxWiredPairs {
		c.wiredPairs = append(c.wiredPairs, [2]int32{c.index[from], c.index[to]})
	}
	if c.transit != nil {
		c.transit.send(from, to)
	}
	t.tr.begin(t.sendL)
	t.inner.Send(from, to, m)
	t.tr.end()
}

// wirelessTap is the WirelessTransport counterpart of wiredTap.
type wirelessTap struct {
	inner   netsim.WirelessTransport
	heldMH  []heldReg
	heldMSS []heldReg
	c       *counters
	tr      *tracer
	sendL   layer
}

func (t *wirelessTap) bind(inner netsim.WirelessTransport) {
	t.inner = inner
	for _, r := range t.heldMSS {
		inner.RegisterMSS(r.node.MSS(), r.h)
	}
	for _, r := range t.heldMH {
		inner.RegisterMH(r.node.MH(), r.h)
	}
	t.heldMH, t.heldMSS = nil, nil
}

func (t *wirelessTap) wrap(n ids.NodeID, h netsim.Handler) netsim.Handler {
	if t.tr == nil {
		return h
	}
	return &handlerTap{h: h, tr: t.tr, l: handlerLayer(n), self: n}
}

func (t *wirelessTap) RegisterMH(mh ids.MH, h netsim.Handler) {
	h = t.wrap(mh.Node(), h)
	if t.inner == nil {
		t.heldMH = append(t.heldMH, heldReg{mh.Node(), h})
		return
	}
	t.inner.RegisterMH(mh, h)
}

func (t *wirelessTap) RegisterMSS(mss ids.MSS, h netsim.Handler) {
	h = t.wrap(mss.Node(), h)
	if t.inner == nil {
		t.heldMSS = append(t.heldMSS, heldReg{mss.Node(), h})
		return
	}
	t.inner.RegisterMSS(mss, h)
}

func (t *wirelessTap) SendDownlink(from ids.MSS, to ids.MH, m msg.Message) {
	t.c.sent(false, m)
	if t.tr == nil {
		t.inner.SendDownlink(from, to, m)
		return
	}
	t.tr.begin(t.sendL)
	t.inner.SendDownlink(from, to, m)
	t.tr.end()
}

func (t *wirelessTap) SendUplink(from ids.MH, to ids.MSS, m msg.Message) {
	t.c.sent(false, m)
	if t.tr == nil {
		t.inner.SendUplink(from, to, m)
		return
	}
	t.tr.begin(t.sendL)
	t.inner.SendUplink(from, to, m)
	t.tr.end()
}
