// Package tcpnet runs the RDP substrates over real TCP sockets. The
// paper's authors planned to evaluate RDP as "distributed processes ...
// within a Linux network"; this package is that prototype: every
// station and server listens on its own loopback TCP endpoint, protocol
// messages travel as length-prefixed frames in the msg package's binary
// encoding, and the unchanged rdpcore state machines run on top (their
// handlers executed on a livenet runtime, which serializes them exactly
// as the authors' per-process event loops would).
//
// Wired messages additionally carry causal stamps (assumption 1 —
// per-connection TCP FIFO alone does not give cross-host causal order).
// Wireless frames also ride TCP here, with the radio semantics —
// delivery gated on cell membership and activity — enforced at the
// receiving edge, mirroring netsim. EnableARQ layers netsim's link-layer
// retransmission protocol under the causal stamps, for deployments where
// frames can be lost between the endpoints despite TCP.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"repro/internal/causal"
	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/wtp"
)

// Frame layout, self-delimiting and stateless:
//
//	uvarint len | layer(1) fromKind(1) uvarint fromNum toKind(1) uvarint toNum
//	            | uvarint n [uvarint from, n×n uvarint SENT counters] | msg
//
// len counts every byte after itself; n is 0 (no causal stamp) or the
// group size; the msg body (the msg package's encoding) runs to the end
// of the frame.
// Stamps carry the whole SENT matrix in every frame rather than a
// difference against the link's last stamp: a differential stamp needs
// every stamped frame of a link to arrive in send order, and the ARQ
// re-offers shed frames out of that order (SetSendQueueLimit).

// Net is one in-process "network" of TCP endpoints. All handler
// execution is posted to the runtime's dispatcher, so protocol state
// needs no locking — the same discipline as the simulation kernel.
type Net struct {
	rt      *livenet.Runtime
	members []ids.NodeID
	index   map[ids.NodeID]int

	mu        sync.Mutex
	addrs     map[ids.NodeID]string
	listeners []net.Listener
	conns     map[connKey]net.Conn  // dialed, one per directed link
	accepted  map[net.Conn]struct{} // accepted, each with a readLoop
	closed    bool
	loops     sync.WaitGroup // acceptLoop and readLoop goroutines

	eps []*causal.Endpoint // wired causal layer (dispatcher-only access)

	wiredHandlers map[ids.NodeID]netsim.Handler
	mhHandlers    map[ids.MH]netsim.Handler
	mssHandlers   map[ids.MSS]netsim.Handler

	reachable func(ids.MSS, ids.MH) bool

	// Link-layer ARQ (EnableARQ), sharing netsim's sender/receiver halves.
	// All three fields are dispatcher-only, like the protocol state.
	arqCfg    netsim.ARQConfig
	arqOut    map[connKey]*arqLink
	arqIn     map[connKey]*netsim.ARQReceiver
	wiredLoss func(from, to ids.NodeID, m msg.Message) bool
	sendLimit int

	// Windowed wireless transport (EnableWTP), sharing internal/wtp's
	// sender/receiver halves per directed downlink. Dispatcher-only.
	wtpCfg wtp.Config
	wtpOut map[connKey]*wtp.Sender
	wtpIn  map[connKey]*wtp.Receiver

	stats struct {
		sync.Mutex
		wiredFrames, wiredBytes       uint64
		wirelessFrames, wirelessBytes uint64
		wiredShed                     uint64
	}
}

// Stats reports cumulative wire-level traffic: frames and bytes written
// to TCP connections, per substrate. Bytes include the frame header and
// (for wired traffic) the causal stamp, so the wired figure measures
// the real cost of assumption 1 on this deployment.
type Stats struct {
	WiredFrames, WiredBytes       uint64
	WirelessFrames, WirelessBytes uint64
	// WiredShed counts initial transmissions skipped by the bounded
	// send queue (SetSendQueueLimit); the ARQ re-offers them later.
	WiredShed uint64
}

// Stats returns a snapshot of the wire-level counters.
func (n *Net) Stats() Stats {
	n.stats.Lock()
	defer n.stats.Unlock()
	return Stats{
		WiredFrames: n.stats.wiredFrames, WiredBytes: n.stats.wiredBytes,
		WirelessFrames: n.stats.wirelessFrames, WirelessBytes: n.stats.wirelessBytes,
		WiredShed: n.stats.wiredShed,
	}
}

func (n *Net) countShed() {
	n.stats.Lock()
	defer n.stats.Unlock()
	n.stats.wiredShed++
}

func (n *Net) countFrame(layer netsim.Layer, bytes int) {
	n.stats.Lock()
	defer n.stats.Unlock()
	if layer == netsim.LayerWired {
		n.stats.wiredFrames++
		n.stats.wiredBytes += uint64(bytes)
	} else {
		n.stats.wirelessFrames++
		n.stats.wirelessBytes += uint64(bytes)
	}
}

type connKey struct{ from, to ids.NodeID }

// New creates a network for a fixed set of wired members (stations and
// servers). Mobile hosts need no endpoint of their own: their radio
// traffic terminates at their current station's endpoint, as it would
// in a real cell.
func New(rt *livenet.Runtime, members []ids.NodeID) *Net {
	n := &Net{
		rt:            rt,
		members:       append([]ids.NodeID(nil), members...),
		index:         make(map[ids.NodeID]int, len(members)),
		addrs:         make(map[ids.NodeID]string, len(members)),
		conns:         make(map[connKey]net.Conn),
		accepted:      make(map[net.Conn]struct{}),
		wiredHandlers: make(map[ids.NodeID]netsim.Handler),
		mhHandlers:    make(map[ids.MH]netsim.Handler),
		mssHandlers:   make(map[ids.MSS]netsim.Handler),
	}
	for i, m := range members {
		n.index[m] = i
	}
	n.eps = causal.Group(len(members), func(dst int, payload any) {
		p := payload.(wiredDelivery)
		h := n.wiredHandlers[p.to]
		if h != nil {
			h.HandleMessage(p.from, p.m)
		}
	})
	return n
}

type wiredDelivery struct {
	from ids.NodeID
	to   ids.NodeID
	m    msg.Message
}

// SetReachable installs the radio gate (the world's cell/activity
// oracle). Must be set before traffic flows.
func (n *Net) SetReachable(f func(ids.MSS, ids.MH) bool) { n.reachable = f }

// --- wired link-layer ARQ ---

// arqLink is the send half of the ARQ for one directed TCP link plus the
// framed payloads awaiting acknowledgement, kept verbatim (causal stamp
// included) so retransmissions are byte-identical to the original.
type arqLink struct {
	s      *netsim.ARQSender
	frames map[uint64]frame
}

// EnableARQ layers the netsim link-layer ARQ — sequence numbers,
// positive acks, capped-exponential retransmission, receiver dedup —
// over every wired TCP link, exactly as Wired layers it over simulated
// links. TCP is already reliable per connection, so the ARQ earns its
// keep only when frames can vanish between the endpoints: a lossy
// overlay installed with SetWiredLoss, or a peer process crash taking
// its accepted-but-unprocessed frames with it. Retransmission timers run
// on the runtime's dispatcher. Call before Start.
func (n *Net) EnableARQ(cfg netsim.ARQConfig) {
	cfg.Enabled = true
	n.arqCfg = cfg
	n.arqOut = make(map[connKey]*arqLink)
	n.arqIn = make(map[connKey]*netsim.ARQReceiver)
}

// EnableWTP layers the windowed wireless transport (internal/wtp, E15)
// over every downlink, exactly as Wireless layers it over simulated
// radio links and the way EnableARQ mirrors the wired ARQ: coalesced
// WtpData frames ride the same TCP path as plain radio frames, the
// radio gate still applies at the receiving edge, acks travel the
// reverse direction, and control signaling (netsim.WirelessControl)
// bypasses the window. Retransmission and coalescing timers run on the
// runtime's dispatcher. Call before Start.
func (n *Net) EnableWTP(cfg wtp.Config) {
	cfg.Enabled = true
	n.wtpCfg = cfg
	n.wtpOut = make(map[connKey]*wtp.Sender)
	n.wtpIn = make(map[connKey]*wtp.Receiver)
}

// WTPRetransmits sums windowed-transport retransmissions across all
// downlinks. Dispatcher-only, like the transport state it reads.
func (n *Net) WTPRetransmits() int64 {
	var total int64
	for _, s := range n.wtpOut {
		total += s.Retransmits
	}
	return total
}

// wtpLinkFor returns (creating on first use) the send-side windowed
// transport of the from→to downlink.
func (n *Net) wtpLinkFor(from ids.MSS, to ids.MH) *wtp.Sender {
	key := connKey{from: from.Node(), to: to.Node()}
	s := n.wtpOut[key]
	if s == nil {
		s = wtp.NewSender(n.rt, n.wtpCfg, func(f msg.WtpData) {
			n.write(frame{layer: netsim.LayerWireless, from: from.Node(), to: to.Node(), m: f, via: from.Node()})
		})
		n.wtpOut[key] = s
	}
	return s
}

// SetWiredLoss installs a wired loss filter for fault testing: a frame
// for which it returns true is silently discarded instead of written
// (the TCP analogue of netsim's injected drops). Call before Start; the
// filter runs on the dispatcher.
func (n *Net) SetWiredLoss(f func(from, to ids.NodeID, m msg.Message) bool) {
	n.wiredLoss = f
}

// SetSendQueueLimit bounds the number of un-acked frames in flight on
// each directed wired link — the TCP deployment's mirror of netsim's
// WiredConfig.QueueLimit. When a new send would exceed the limit its
// initial transmission is skipped (counted in Stats.WiredShed); the
// frame stays registered with the ARQ sender, whose retransmission
// timer re-offers it once acks have drained the queue, so the limit is
// backpressure, not loss. Requires EnableARQ (ignored without it, since
// shedding below a bare TCP link would silently lose the frame). Call
// before Start.
func (n *Net) SetSendQueueLimit(limit int) { n.sendLimit = limit }

// ARQRetransmits sums timeout-driven re-sends across all wired links.
// Dispatcher-only, like the ARQ state it reads.
func (n *Net) ARQRetransmits() int64 {
	var total int64
	for _, l := range n.arqOut {
		total += l.s.Retransmits
	}
	return total
}

// arqLinkFor returns (creating on first use) the send-side ARQ state of
// the from→to link.
func (n *Net) arqLinkFor(key connKey) *arqLink {
	l := n.arqOut[key]
	if l == nil {
		l = &arqLink{frames: make(map[uint64]frame)}
		l.s = netsim.NewARQSender(n.rt, n.arqCfg, func(seq uint64, attempt int) {
			fr, ok := l.frames[seq]
			if !ok {
				return
			}
			// Bounded send queue: shed the *initial* attempt when the
			// link already carries sendLimit un-acked frames (the frame
			// itself is counted, hence the strict >). Retransmissions
			// always go out so the queue is guaranteed to drain.
			if n.sendLimit > 0 && attempt == 1 && len(l.frames) > n.sendLimit {
				n.countShed()
				return
			}
			n.write(fr)
		})
		n.arqOut[key] = l
	}
	return l
}

// Start opens one loopback TCP listener per member and begins accepting.
func (n *Net) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, m := range n.members {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("tcpnet: listen for %v: %w", m, err)
		}
		n.listeners = append(n.listeners, ln)
		n.addrs[m] = ln.Addr().String()
		n.loops.Add(1)
		go n.acceptLoop(ln)
	}
	return nil
}

// Close shuts the listeners and connections down and returns once every
// accept and read loop has exited, so none posts to the runtime after.
func (n *Net) Close() {
	n.mu.Lock()
	n.closed = true
	for _, ln := range n.listeners {
		ln.Close()
	}
	for _, c := range n.conns {
		c.Close()
	}
	for c := range n.accepted {
		c.Close()
	}
	n.mu.Unlock()
	n.loops.Wait()
}

// Addr returns the TCP address a member listens on (diagnostics).
func (n *Net) Addr(m ids.NodeID) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addrs[m]
}

func (n *Net) acceptLoop(ln net.Listener) {
	defer n.loops.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.loops.Add(1)
		n.mu.Unlock()
		go n.readLoop(conn)
	}
}

func (n *Net) readLoop(conn net.Conn) {
	defer n.loops.Done()
	defer func() {
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
		conn.Close()
	}()
	fr := newFrameReader(conn, len(n.eps))
	for {
		// Frames are decoded in place rather than returned by value: the
		// copies would grow each of the ~200 reader goroutines' stacks
		// past the next size class.
		var f frame
		if err := fr.read(&f); err != nil {
			return
		}
		n.post(f)
	}
}

// post hands a frame to the dispatcher. Taking the frame as a parameter
// lets the closure hold its own copy: one allocation per frame.
func (n *Net) post(f frame) { n.rt.Post(func() { n.dispatch(f) }) }

// dispatch runs on the dispatcher goroutine.
func (n *Net) dispatch(f frame) {
	switch f.layer {
	case netsim.LayerWired:
		// The ARQ layer sits under causal delivery: frames are unwrapped
		// (and deduped) here, acks are consumed here, and only first
		// copies of inner messages continue up the stack.
		if n.arqCfg.Enabled {
			switch lm := f.m.(type) {
			case msg.LinkFrame:
				// Ack every copy — the ack for an earlier one may be lost.
				n.write(frame{layer: netsim.LayerWired, from: f.to, to: f.from, m: msg.LinkAck{Seq: lm.Seq}})
				key := connKey{from: f.from, to: f.to}
				r := n.arqIn[key]
				if r == nil {
					r = netsim.NewARQReceiver()
					n.arqIn[key] = r
				}
				if !r.Accept(lm.Seq) {
					return // retransmitted copy of a frame already delivered
				}
				f.m = lm.Inner
			case msg.LinkAck:
				if l := n.arqOut[connKey{from: f.to, to: f.from}]; l != nil {
					l.s.Ack(lm.Seq)
					delete(l.frames, lm.Seq)
				}
				return
			}
		}
		ti, ok := n.index[f.to]
		if !ok {
			return
		}
		p := wiredDelivery{from: f.from, to: f.to, m: f.m}
		if f.hasStamp {
			n.eps[ti].Receive(causal.Stamp{From: f.stampFrom, Sent: f.stamp}, p)
			return
		}
		if h := n.wiredHandlers[f.to]; h != nil {
			h.HandleMessage(f.from, f.m)
		}
	case netsim.LayerWireless:
		if f.to.Kind == ids.KindMH {
			// Downlink: the radio gate applies at delivery time.
			mh := f.to.MH()
			mss := f.from.MSS()
			if n.reachable == nil || !n.reachable(mss, mh) {
				return
			}
			if wf, isWtp := f.m.(msg.WtpData); isWtp && n.wtpCfg.Enabled {
				// Windowed frame: reorder/dedup at the mobile edge, hand
				// the coalesced messages up in order, ack on the reverse
				// link (terminating at the serving station's endpoint).
				key := connKey{from: f.from, to: f.to}
				r := n.wtpIn[key]
				if r == nil {
					r = wtp.NewReceiver(n.wtpCfg)
					n.wtpIn[key] = r
				}
				deliver, ack, live := r.Accept(wf)
				if !live {
					return
				}
				h := n.mhHandlers[mh]
				for _, in := range deliver {
					if h != nil {
						h.HandleMessage(f.from, in)
					}
				}
				n.write(frame{layer: netsim.LayerWireless, from: f.to, to: f.from, m: ack, via: f.from})
				return
			}
			if h := n.mhHandlers[mh]; h != nil {
				h.HandleMessage(f.from, f.m)
			}
			return
		}
		if wa, isAck := f.m.(msg.WtpAck); isAck && n.wtpCfg.Enabled {
			// Transport ack: terminates inside the sender, never at the
			// station's protocol handler.
			if s := n.wtpOut[connKey{from: f.to, to: f.from}]; s != nil {
				s.OnAck(wa)
			}
			return
		}
		if h := n.mssHandlers[f.to.MSS()]; h != nil {
			h.HandleMessage(f.from, f.m)
		}
	}
}

// --- netsim.WiredTransport ---

// Send transmits a wired message with a causal stamp. It must be called
// from the dispatcher (protocol handlers always are).
func (n *Net) Send(from, to ids.NodeID, m msg.Message) {
	fi, ok := n.index[from]
	if !ok {
		panic(fmt.Sprintf("tcpnet: wired send from non-member %v", from))
	}
	ti, ok := n.index[to]
	if !ok {
		panic(fmt.Sprintf("tcpnet: wired send to non-member %v", to))
	}
	st := n.eps[fi].Send(ti)
	f := frame{
		layer: netsim.LayerWired, from: from, to: to, m: m,
		hasStamp: true, stampFrom: st.From, stamp: st.Sent,
	}
	if !n.arqCfg.Enabled {
		n.write(f)
		return
	}
	// The causal stamp is taken once, here; every retransmission carries
	// the original stamp so the receiver's causal layer sees one send.
	l := n.arqLinkFor(connKey{from: from, to: to})
	l.s.Send(func(seq uint64) {
		wf := f
		wf.m = msg.LinkFrame{Seq: seq, Inner: m}
		l.frames[seq] = wf
	})
}

// Register implements netsim.WiredTransport.
func (n *Net) Register(node ids.NodeID, h netsim.Handler) {
	n.wiredHandlers[node] = h
}

// --- netsim.WirelessTransport ---

// SendDownlink transmits a radio frame to a mobile host. The frame is
// routed to the sending station's own endpoint and the radio gate —
// still in the cell, still active — applies at delivery time there,
// mirroring netsim's delivery-time reachability check.
func (n *Net) SendDownlink(from ids.MSS, to ids.MH, m msg.Message) {
	if n.wtpCfg.Enabled && !netsim.WirelessControl(m) {
		n.wtpLinkFor(from, to).Queue(m)
		return
	}
	n.write(frame{layer: netsim.LayerWireless, from: from.Node(), to: to.Node(), m: m, via: from.Node()})
}

// SendUplink transmits from a mobile host to a station; like netsim,
// the radio gate applies at send time.
func (n *Net) SendUplink(from ids.MH, to ids.MSS, m msg.Message) {
	if n.reachable == nil || !n.reachable(to, from) {
		return
	}
	n.write(frame{layer: netsim.LayerWireless, from: from.Node(), to: to.Node(), m: m, via: to.Node()})
}

// RegisterMH implements netsim.WirelessTransport.
func (n *Net) RegisterMH(mh ids.MH, h netsim.Handler) { n.mhHandlers[mh] = h }

// RegisterMSS implements netsim.WirelessTransport.
func (n *Net) RegisterMSS(mss ids.MSS, h netsim.Handler) { n.mssHandlers[mss] = h }

var (
	_ netsim.WiredTransport    = (*Net)(nil)
	_ netsim.WirelessTransport = (*Net)(nil)
)

// write frames and sends a message over the (lazily dialed) connection
// toward the endpoint that must process it.
func (n *Net) write(f frame) {
	if f.layer == netsim.LayerWired && n.wiredLoss != nil && n.wiredLoss(f.from, f.to, f.m) {
		return
	}
	dest := f.to
	if f.via.Valid() {
		// Wireless frames terminate at the serving station's endpoint:
		// the radio is physically part of that cell.
		dest = f.via
	}
	conn, err := n.conn(f.from, dest)
	if err != nil {
		return // endpoint gone (shutdown)
	}
	bp := msg.GetBuffer()
	b, err := appendFrame(*bp, f)
	if err != nil {
		msg.PutBuffer(bp)
		panic(fmt.Sprintf("tcpnet: encode: %v", err))
	}
	*bp = b[:0]
	_, err = conn.Write(b)
	size := len(b)
	msg.PutBuffer(bp)
	if err != nil {
		n.dropConn(f.from, dest)
		return
	}
	n.countFrame(f.layer, size)
}

func (n *Net) conn(from, to ids.NodeID) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("tcpnet: closed")
	}
	key := connKey{from: from, to: to}
	if c, ok := n.conns[key]; ok {
		return c, nil
	}
	addr, ok := n.addrs[to]
	if !ok {
		return nil, fmt.Errorf("tcpnet: no endpoint for %v", to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	n.conns[key] = c
	return c, nil
}

func (n *Net) dropConn(from, to ids.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := connKey{from: from, to: to}
	if c, ok := n.conns[key]; ok {
		c.Close()
		delete(n.conns, key)
	}
}

// frame is one on-the-wire unit.
type frame struct {
	layer     netsim.Layer
	from, to  ids.NodeID
	via       ids.NodeID // endpoint that terminates the frame (wireless)
	m         msg.Message
	hasStamp  bool
	stampFrom int
	stamp     causal.Matrix
}

const (
	// maxFrameLen caps the length prefix; a longer frame is rejected
	// before its buffer is allocated.
	maxFrameLen = 1 << 24
	// lenReserve is the room appendFrame leaves for the length prefix:
	// the uvarint of any length up to maxFrameLen fits.
	lenReserve = 4
	// readBufSize sizes each connection's bufio.Reader. Most frames are
	// a few hundred bytes and there is one reader per connection, so a
	// small buffer keeps the resident set down.
	readBufSize = 512
	// maxKeptBody bounds the body buffer a connection keeps between
	// frames, so one large frame does not pin its buffer for good.
	maxKeptBody = 64 << 10
)

var (
	errFrameTooLarge = errors.New("tcpnet: frame too large")
	errTruncated     = errors.New("tcpnet: frame truncated")
	errNodeRange     = errors.New("tcpnet: node number out of range")
	errStampSize     = errors.New("tcpnet: stamp size mismatch")
	errStampFrom     = errors.New("tcpnet: stamp sender out of range")
)

// appendFrame serializes a frame onto dst. The body is encoded in place
// behind a reserved prefix, then shifted down to sit right after the
// real (shorter) length, so framing needs no intermediate buffer.
func appendFrame(dst []byte, f frame) ([]byte, error) {
	start := len(dst)
	out := append(dst, make([]byte, lenReserve)...)
	out = append(out, byte(f.layer), byte(f.from.Kind))
	out = binary.AppendUvarint(out, uint64(f.from.Num))
	out = append(out, byte(f.to.Kind))
	out = binary.AppendUvarint(out, uint64(f.to.Num))
	if f.hasStamp {
		out = binary.AppendUvarint(out, uint64(len(f.stamp)))
		out = binary.AppendUvarint(out, uint64(f.stampFrom))
		for _, row := range f.stamp {
			for _, c := range row {
				out = binary.AppendUvarint(out, c)
			}
		}
	} else {
		out = append(out, 0)
	}
	out, err := msg.AppendEncode(out, f.m)
	if err != nil {
		return nil, err
	}
	size := len(out) - start - lenReserve
	if size > maxFrameLen {
		return nil, errFrameTooLarge // its prefix would overrun lenReserve
	}
	var pre [binary.MaxVarintLen32]byte
	k := binary.PutUvarint(pre[:], uint64(size))
	copy(out[start+k:], out[start+lenReserve:])
	copy(out[start:], pre[:k])
	return out[:start+k+size], nil
}

// frameReader reads frames off one connection through a small buffered
// reader into a body buffer kept across frames, safe to reuse because
// msg.Decode copies everything it keeps out of the body. group is the
// only stamp size a frame may carry: the member count of the Net.
type frameReader struct {
	r     *bufio.Reader
	body  []byte
	group int
}

func newFrameReader(r io.Reader, group int) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBufSize), group: group}
}

// read decodes the next frame into f. A stream that ends cleanly
// between frames yields io.EOF.
func (fr *frameReader) read(f *frame) error {
	size, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return err
	}
	if size > maxFrameLen {
		return errFrameTooLarge
	}
	if uint64(cap(fr.body)) < size {
		fr.body = make([]byte, size)
	}
	b := fr.body[:size]
	if cap(fr.body) > maxKeptBody {
		fr.body = nil
	}
	if _, err := io.ReadFull(fr.r, b); err != nil {
		return noEOF(err)
	}
	return parseFrame(b, fr.group, f)
}

// noEOF reports a stream that ends inside a frame as truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// frameCursor walks a frame's bytes; the first error sticks.
type frameCursor struct {
	b   []byte
	err error
}

func (c *frameCursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) == 0 {
		c.err = errTruncated
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *frameCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, k := binary.Uvarint(c.b)
	if k <= 0 {
		c.err = errTruncated // runs off the frame, or overflows 64 bits
		return 0
	}
	c.b = c.b[k:]
	return v
}

func (c *frameCursor) node() ids.NodeID {
	kind := ids.NodeKind(c.byte())
	num := c.uvarint()
	if num > math.MaxUint32 && c.err == nil {
		c.err = errNodeRange
	}
	return ids.NodeID{Kind: kind, Num: uint32(num)}
}

// parseFrame decodes one frame's bytes (everything after its length
// prefix) into f, accepting only stamps of the given group size. Every
// size read off the wire is checked before it drives an allocation.
func parseFrame(b []byte, group int, f *frame) error {
	c := frameCursor{b: b}
	f.layer = netsim.Layer(c.byte())
	f.from = c.node()
	f.to = c.node()
	if nn := c.uvarint(); nn > 0 && c.err == nil {
		// A stamp of another size would only be dropped, so its matrix
		// is never allocated; each counter takes at least one byte.
		// Testing the group size first keeps nn*nn from overflowing.
		if nn != uint64(group) || nn*nn > uint64(len(c.b)) {
			return errStampSize
		}
		from := c.uvarint()
		if c.err != nil {
			return c.err
		}
		if from >= nn {
			return errStampFrom
		}
		f.hasStamp, f.stampFrom = true, int(from)
		f.stamp = causal.NewMatrix(int(nn))
		for _, row := range f.stamp {
			for j := range row {
				row[j] = c.uvarint()
			}
		}
	}
	if c.err != nil {
		return c.err
	}
	m, err := msg.Decode(c.b)
	f.m = m
	return err
}
