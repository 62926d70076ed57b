package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/causal"
	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/qrpc"
	"repro/internal/rdpcore"
)

// testConfig is a small world tuned for wall-clock runs: fast server,
// short retry so any timing race self-heals within the test deadline.
func testConfig() rdpcore.Config {
	return rdpcore.Config{
		Seed:           1,
		NumMSS:         3,
		NumServers:     1,
		ServerProc:     netsim.Constant(20 * time.Millisecond),
		RequestTimeout: 500 * time.Millisecond,
		GreetRefresh:   300 * time.Millisecond,
	}
}

// tcpWorld builds a world whose two substrates are this package's real
// TCP endpoints, started and ready. Callers interact via rt.Do.
func tcpWorld(t *testing.T, cfg rdpcore.Config) (*rdpcore.World, *livenet.Runtime, *Net) {
	t.Helper()
	rt := livenet.New(cfg.Seed)
	members := make([]ids.NodeID, 0, cfg.NumMSS+cfg.NumServers)
	for i := 1; i <= cfg.NumMSS; i++ {
		members = append(members, ids.MSS(i).Node())
	}
	for i := 1; i <= cfg.NumServers; i++ {
		members = append(members, ids.Server(i).Node())
	}
	n := New(rt, members)
	if err := n.Start(); err != nil {
		t.Fatalf("tcpnet start: %v", err)
	}
	w := rdpcore.NewWorldWith(rt, cfg, n, n)
	n.SetReachable(w.Reachable)
	rt.Start()
	t.Cleanup(func() {
		rt.Stop()
		n.Close()
	})
	return w, rt, n
}

// TestRequestResponseOverTCP sends one request through real loopback
// sockets: MH -> MSS radio frame, MSS -> server wired frame with causal
// stamp, and the result back down. The paper's prototype plan —
// "distributed processes within a Linux network" — end to end.
func TestRequestResponseOverTCP(t *testing.T) {
	w, rt, _ := tcpWorld(t, testConfig())
	done := make(chan []byte, 1)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
			if !dup {
				done <- payload
			}
		})
		mh.IssueRequest(1, []byte("over-tcp"))
	})
	select {
	case got := <-done:
		if !bytes.Contains(got, []byte("over-tcp")) {
			t.Fatalf("result payload %q does not echo request", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("result never delivered over TCP")
	}
	rt.Do(func() {
		if err := w.CheckInvariants(); err != nil {
			t.Errorf("invariants after delivery: %v", err)
		}
	})
}

// TestMigrationOverTCP issues a request and migrates the host twice
// while the server is still computing, so the proxy must chase the host
// across real TCP links (hand-off, update_currentLoc, retransmission).
func TestMigrationOverTCP(t *testing.T) {
	cfg := testConfig()
	cfg.ServerProc = netsim.Constant(150 * time.Millisecond)
	w, rt, _ := tcpWorld(t, cfg)

	var (
		mu        sync.Mutex
		delivered []ids.RequestID
	)
	var req ids.RequestID
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(r ids.RequestID, _ []byte, dup bool) {
			if dup {
				return
			}
			mu.Lock()
			delivered = append(delivered, r)
			mu.Unlock()
		})
		req = mh.IssueRequest(1, []byte("chase-me"))
	})
	// Hand off twice while the result is still being computed.
	time.Sleep(30 * time.Millisecond)
	rt.Do(func() { w.Migrate(1, 2) })
	time.Sleep(30 * time.Millisecond)
	rt.Do(func() { w.Migrate(1, 3) })

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got := len(delivered)
		mu.Unlock()
		if got > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result never chased the host over TCP")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	if delivered[0] != req {
		t.Errorf("delivered %v, want %v", delivered[0], req)
	}
	mu.Unlock()
	rt.Do(func() {
		if err := w.CheckInvariants(); err != nil {
			t.Errorf("invariants after hand-offs: %v", err)
		}
	})
}

// TestInactiveHostBuffersOverTCP disconnects the host; the radio gate at
// the TCP edge must drop the downlink frame, and reactivation must fetch
// the buffered result via the retransmit-on-update rule.
func TestInactiveHostBuffersOverTCP(t *testing.T) {
	cfg := testConfig()
	cfg.ServerProc = netsim.Constant(100 * time.Millisecond)
	w, rt, _ := tcpWorld(t, cfg)

	done := make(chan struct{}, 1)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(_ ids.RequestID, _ []byte, dup bool) {
			if !dup {
				done <- struct{}{}
			}
		})
		mh.IssueRequest(1, []byte("while-asleep"))
	})
	time.Sleep(20 * time.Millisecond)
	rt.Do(func() { w.SetActive(1, false) })
	// Let the result arrive at the cell while the host is unreachable.
	time.Sleep(300 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("result delivered to an inactive host")
	default:
	}
	rt.Do(func() { w.SetActive(1, true) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("buffered result not delivered after reactivation")
	}
}

// TestManyRequestsManyHostsOverTCP drives several hosts concurrently
// with interleaved migrations — a miniature soak over real sockets.
func TestManyRequestsManyHostsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock soak")
	}
	cfg := testConfig()
	w, rt, _ := tcpWorld(t, cfg)

	const (
		hosts    = 4
		requests = 5
	)
	var (
		mu   sync.Mutex
		got  = map[ids.MH]int{}
		want = hosts * requests
	)
	rt.Do(func() {
		for h := 1; h <= hosts; h++ {
			id := ids.MH(h)
			mh := w.AddMH(id, ids.MSS(h%3+1))
			mh.OnResult(func(_ ids.RequestID, _ []byte, dup bool) {
				if dup {
					return
				}
				mu.Lock()
				got[id]++
				mu.Unlock()
			})
		}
	})
	for r := 0; r < requests; r++ {
		rt.Do(func() {
			for h := 1; h <= hosts; h++ {
				w.MHs[ids.MH(h)].IssueRequest(1, []byte{byte(r)})
			}
		})
		time.Sleep(15 * time.Millisecond)
		rt.Do(func() {
			for h := 1; h <= hosts; h++ {
				w.Migrate(ids.MH(h), ids.MSS((h+r)%3+1))
			}
		})
		time.Sleep(15 * time.Millisecond)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, c := range got {
			total += c
		}
		mu.Unlock()
		if total >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d results delivered", total, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	rt.Do(func() {
		if err := w.CheckInvariants(); err != nil {
			t.Errorf("invariants after soak: %v", err)
		}
	})
}

// encodeFrame and readFrame run one frame through the codec; readFrame
// reads as a Net of group members would.
func encodeFrame(f frame) ([]byte, error) { return appendFrame(nil, f) }

func readFrame(b []byte, group int) (frame, error) {
	var f frame
	err := newFrameReader(bytes.NewReader(b), group).read(&f)
	return f, err
}

// TestFrameRoundTrip checks the wire codec on both stamped and
// unstamped frames.
func TestFrameRoundTrip(t *testing.T) {
	stamp := causal.NewMatrix(3)
	stamp[0][1] = 7
	stamp[2][0] = 42
	frames := []frame{
		{
			layer: netsim.LayerWired,
			from:  ids.MSS(1).Node(), to: ids.Server(1).Node(),
			m:        msg.ServerRequest{Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 1}, Payload: []byte("x")},
			hasStamp: true, stampFrom: 2, stamp: stamp,
		},
		{
			layer: netsim.LayerWireless,
			from:  ids.MH(1).Node(), to: ids.MSS(2).Node(),
			m: msg.Greet{MH: 1, OldMSS: 1},
		},
	}
	for _, f := range frames {
		b, err := encodeFrame(f)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := readFrame(b, len(stamp))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.layer != f.layer || got.from != f.from || got.to != f.to {
			t.Errorf("header mismatch: got %+v want %+v", got, f)
		}
		if got.hasStamp != f.hasStamp || got.stampFrom != f.stampFrom {
			t.Errorf("stamp meta mismatch: got %+v want %+v", got, f)
		}
		if f.hasStamp {
			for i := range f.stamp {
				for j := range f.stamp[i] {
					if got.stamp[i][j] != f.stamp[i][j] {
						t.Errorf("stamp[%d][%d] = %d, want %d", i, j, got.stamp[i][j], f.stamp[i][j])
					}
				}
			}
		}
		if got.m.Kind() != f.m.Kind() {
			t.Errorf("message kind %v, want %v", got.m.Kind(), f.m.Kind())
		}
	}
}

// TestFrameTruncation verifies every truncation point errors rather
// than hanging or mis-parsing.
func TestFrameTruncation(t *testing.T) {
	f := frame{
		layer: netsim.LayerWired,
		from:  ids.MSS(1).Node(), to: ids.Server(1).Node(),
		m:        msg.ServerRequest{Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 1}, Payload: []byte("payload")},
		hasStamp: true, stampFrom: 0, stamp: causal.NewMatrix(2),
	}
	b, err := encodeFrame(f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := readFrame(b[:cut], len(f.stamp)); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(b))
		}
	}
}

// TestAddrAndClose covers the endpoint-address accessor and the
// shutdown path: after Close, sends fail quietly instead of panicking,
// and conn() refuses new dials.
func TestAddrAndClose(t *testing.T) {
	rt := livenet.New(1)
	members := []ids.NodeID{ids.MSS(1).Node(), ids.Server(1).Node()}
	n := New(rt, members)
	if err := n.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	for _, m := range members {
		if n.Addr(m) == "" {
			t.Errorf("no address for %v", m)
		}
	}
	if n.Addr(ids.MSS(9).Node()) != "" {
		t.Error("address reported for a non-member")
	}
	n.Close()
	// Sending after Close must be a quiet no-op (conn() errors out).
	n.Send(ids.MSS(1).Node(), ids.Server(1).Node(),
		msg.ServerRequest{Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 1}})
}

// TestCloseWaitsForLoops checks that Close returns only once every
// accept and read loop has exited: peers still writing to accepted
// connections see them closed, and no frame reaches the runtime after
// Close returns.
func TestCloseWaitsForLoops(t *testing.T) {
	rt := livenet.New(1)
	n := New(rt, []ids.NodeID{ids.MSS(1).Node(), ids.MSS(2).Node()})
	if err := n.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	delivered := 0 // dispatcher-only
	n.RegisterMSS(1, netsim.HandlerFunc(func(ids.NodeID, msg.Message) { delivered++ }))
	rt.Start()
	defer rt.Stop()

	join, err := encodeFrame(frame{
		layer: netsim.LayerWireless,
		from:  ids.MH(1).Node(), to: ids.MSS(1).Node(),
		m: msg.Join{MH: 1},
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Peers outside the Net keep writing uplink frames to station 1
	// until their connections break.
	const peers = 4
	var writers sync.WaitGroup
	for i := 0; i < peers; i++ {
		c, err := net.Dial("tcp", n.Addr(ids.MSS(1).Node()))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				if _, err := c.Write(join); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		got := 0
		rt.Do(func() { got = delivered })
		if got >= 4*peers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d frames delivered before Close", got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	n.Close()
	// Everything posted before Close returned runs before this Do.
	final := 0
	rt.Do(func() { final = delivered })
	time.Sleep(50 * time.Millisecond)
	rt.Do(func() {
		if delivered != final {
			t.Errorf("%d frames reached the runtime after Close returned", delivered-final)
		}
	})
	stopped := make(chan struct{})
	go func() {
		writers.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Close left accepted connections open")
	}
	if c, err := net.Dial("tcp", n.Addr(ids.MSS(1).Node())); err == nil {
		c.Close()
		t.Error("listener still accepting after Close")
	}
}

// TestSendToNonMemberPanics verifies the programming-error guard.
func TestSendToNonMemberPanics(t *testing.T) {
	rt := livenet.New(1)
	n := New(rt, []ids.NodeID{ids.MSS(1).Node()})
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("send-from-non-member", func() {
		n.Send(ids.MSS(7).Node(), ids.MSS(1).Node(), msg.Greet{MH: 1})
	})
	assertPanics("send-to-non-member", func() {
		n.Send(ids.MSS(1).Node(), ids.Server(9).Node(), msg.Greet{MH: 1})
	})
}

// TestUplinkGateDropsAtSend covers the send-side radio gate: an uplink
// from a host the station cannot hear must not reach any handler.
func TestUplinkGateDropsAtSend(t *testing.T) {
	rt := livenet.New(1)
	n := New(rt, []ids.NodeID{ids.MSS(1).Node()})
	if err := n.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer n.Close()
	var got int
	n.RegisterMSS(1, netsim.HandlerFunc(func(ids.NodeID, msg.Message) { got++ }))
	n.SetReachable(func(ids.MSS, ids.MH) bool { return false })
	rt.Start()
	defer rt.Stop()
	rt.Do(func() { n.SendUplink(1, 1, msg.Join{MH: 1}) })
	time.Sleep(50 * time.Millisecond)
	rt.Do(func() {
		if got != 0 {
			t.Errorf("gated uplink delivered %d frames", got)
		}
	})
}

// rawFrame prefixes the concatenated parts with their length: frames
// the encoder would never produce.
func rawFrame(parts ...[]byte) []byte {
	var body []byte
	for _, p := range parts {
		body = append(body, p...)
	}
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// TestOversizeFrameRejected covers the size and range guards in the
// frame reader: every length or index read off the wire is checked
// before it drives an allocation or an index.
func TestOversizeFrameRejected(t *testing.T) {
	greet, err := msg.Encode(msg.Greet{MH: 1})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	head := []byte{byte(netsim.LayerWired), byte(ids.KindMSS), 1, byte(ids.KindMSS), 2}
	stamped := func(n, from uint64, counters int) []byte {
		return rawFrame(head, uv(n), uv(from), make([]byte, counters), greet)
	}
	if _, err := readFrame(stamped(2, 1, 4), 2); err != nil {
		t.Fatalf("well-formed hand-built frame rejected: %v", err)
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"length over cap", uv(maxFrameLen + 1), errFrameTooLarge},
		{"length overflows 64 bits", bytes.Repeat([]byte{0xFF}, 11), nil},
		{"empty frame", uv(0), errTruncated},
		// The reader belongs to a two-member group.
		{"stamp sized for another group", stamped(3, 1, 9), errStampSize},
		{"stamp n past the frame", stamped(1<<20, 0, 4), errStampSize},
		// n is the group's, but its n×n counters cannot fit in the
		// bytes that remain.
		{"stamp counters past the frame", rawFrame(head, uv(2), uv(1), make([]byte, 2)), errStampSize},
		// n×n wraps to 0 and to 1 in uint64 arithmetic.
		{"stamp n*n wraps to 0", stamped(1<<32, 0, 4), errStampSize},
		{"stamp n*n wraps to 1", stamped(math.MaxUint64, 0, 4), errStampSize},
		{"stamp sender = n", stamped(2, 2, 4), errStampFrom},
		{"stamp sender past n", stamped(2, 1<<40, 4), errStampFrom},
		{"from number above uint32", rawFrame([]byte{byte(netsim.LayerWired), byte(ids.KindMSS)}, uv(1<<32), []byte{byte(ids.KindMSS), 2, 0}, greet), errNodeRange},
		{"to number above uint32", rawFrame([]byte{byte(netsim.LayerWired), byte(ids.KindMSS), 1, byte(ids.KindMSS)}, uv(math.MaxUint64), []byte{0}, greet), errNodeRange},
		{"truncated length varint", []byte{0x80}, io.ErrUnexpectedEOF},
		{"truncated varint inside the frame", rawFrame(head[:4], []byte{0x80}), errTruncated},
		{"truncated stamp counter", rawFrame(head, uv(2), uv(0), make([]byte, 3), []byte{0xFF}), errTruncated},
		{"frame short of its length", uv(40), io.ErrUnexpectedEOF},
		{"large frame short of its length", append(uv(4096), head...), io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		_, err := readFrame(c.b, 2)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.want)
		}
	}

	// An over-cap length is refused before the body buffer exists, and a
	// stamp sized for another group before its matrix does.
	for _, c := range []struct {
		name string
		b    []byte
		want error
	}{
		{"over-cap length", uv(maxFrameLen + 1), errFrameTooLarge},
		{"stamp sized for another group", stamped(3, 1, 9), errStampSize},
	} {
		src := bytes.NewReader(nil)
		fr := newFrameReader(src, 2)
		allocs := testing.AllocsPerRun(50, func() {
			src.Reset(c.b)
			fr.r.Reset(src)
			var f frame
			if err := fr.read(&f); !errors.Is(err, c.want) {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("rejecting %s allocated %.0f times", c.name, allocs)
		}
	}
}

// TestMaxCountersRoundTrip checks that counters needing the full ten
// varint bytes survive the codec, on the largest stamp the benchmarks
// use (18 members).
func TestMaxCountersRoundTrip(t *testing.T) {
	const n = 18
	stamp := causal.NewMatrix(n)
	for i := range stamp {
		for j := range stamp[i] {
			stamp[i][j] = math.MaxUint64 - uint64(i*n+j)
		}
	}
	f := frame{
		layer: netsim.LayerWired,
		from:  ids.MSS(math.MaxUint32).Node(), to: ids.Server(1).Node(),
		m:        msg.Greet{MH: 1},
		hasStamp: true, stampFrom: n - 1, stamp: stamp,
	}
	b, err := encodeFrame(f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if min := n * n * binary.MaxVarintLen64; len(b) < min {
		t.Errorf("frame is %d bytes, below the %d its counters need", len(b), min)
	}
	got, err := readFrame(b, n)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.from != f.from || got.stampFrom != f.stampFrom {
		t.Errorf("header: got from %v/%d, want %v/%d", got.from, got.stampFrom, f.from, f.stampFrom)
	}
	for i := range stamp {
		for j := range stamp[i] {
			if got.stamp[i][j] != stamp[i][j] {
				t.Fatalf("stamp[%d][%d] = %d, want %d", i, j, got.stamp[i][j], stamp[i][j])
			}
		}
	}
}

// TestQueuedRPCOverTCP composes the §4 pairing over real sockets: a
// queued-RPC invocation issued while the host is disconnected is
// transmitted on reactivation, and the result comes back through the
// RDP proxy — reliable sending + reliable delivery end to end on TCP.
func TestQueuedRPCOverTCP(t *testing.T) {
	cfg := testConfig()
	cfg.RequestTimeout = 0 // qrpc owns retransmission
	w, rt, _ := tcpWorld(t, cfg)

	done := make(chan []byte, 1)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		w.SetActive(1, false) // asleep before the invocation
		cli := qrpc.New(w, mh, qrpc.Options{Timeout: 50 * time.Millisecond})
		cli.Invoke(1, []byte("queued-while-off"), func(payload []byte) {
			done <- payload
		})
	})
	time.Sleep(150 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("reply arrived while the host was disconnected")
	default:
	}
	rt.Do(func() { w.SetActive(1, true) })
	select {
	case got := <-done:
		if !bytes.Contains(got, []byte("queued-while-off")) {
			t.Fatalf("reply %q does not echo the invocation", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued invocation never completed over TCP")
	}
}

// TestWireStats checks the byte/frame accounting: a request-response
// exchange produces traffic on both substrates, and wired frames carry
// the causal-stamp overhead (larger than their payload alone).
func TestWireStats(t *testing.T) {
	w, rt, n := tcpWorld(t, testConfig())
	done := make(chan struct{}, 1)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(_ ids.RequestID, _ []byte, dup bool) {
			if !dup {
				done <- struct{}{}
			}
		})
		mh.IssueRequest(1, []byte("count-me"))
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("delivery timed out")
	}
	s := n.Stats()
	if s.WiredFrames == 0 || s.WirelessFrames == 0 {
		t.Fatalf("no traffic counted: %+v", s)
	}
	// Each wired frame of this four-member group carries at least the
	// smallest header (layer, kinds, one-byte node numbers and stamp n),
	// the stamp sender and one byte per counter, and a two-byte body.
	const members = 4
	if min := uint64(7 + 1 + members*members + 2); s.WiredBytes < s.WiredFrames*min {
		t.Errorf("wired bytes %d too small for %d frames of at least %d bytes (no stamp overhead?)",
			s.WiredBytes, s.WiredFrames, min)
	}
	// Wired frames average larger than wireless ones: same header, plus
	// an n×n causal matrix per frame.
	if s.WiredBytes/s.WiredFrames <= s.WirelessBytes/s.WirelessFrames {
		t.Errorf("wired avg %d <= wireless avg %d; causal stamps missing",
			s.WiredBytes/s.WiredFrames, s.WirelessBytes/s.WirelessFrames)
	}

	// One wired send on a fresh pair of endpoints costs exactly the
	// stamped frame: header, the sender's 2×2 stamp, and the body.
	rt2 := livenet.New(1)
	pair := New(rt2, []ids.NodeID{ids.MSS(1).Node(), ids.MSS(2).Node()})
	if err := pair.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	got := make(chan struct{}, 1)
	pair.Register(ids.MSS(2).Node(), netsim.HandlerFunc(func(ids.NodeID, msg.Message) { got <- struct{}{} }))
	rt2.Start()
	t.Cleanup(func() {
		rt2.Stop()
		pair.Close()
	})
	greet := msg.Greet{MH: 1}
	rt2.Do(func() { pair.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), greet) })
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("wired greet never delivered")
	}
	want, err := appendFrame(nil, frame{
		layer: netsim.LayerWired,
		from:  ids.MSS(1).Node(), to: ids.MSS(2).Node(),
		m:        greet,
		hasStamp: true, stampFrom: 0, stamp: causal.NewMatrix(2),
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if ps := pair.Stats(); ps.WiredFrames != 1 || ps.WiredBytes != uint64(len(want)) {
		t.Errorf("one wired send: %d frames, %d bytes; want 1 frame of %d bytes",
			ps.WiredFrames, ps.WiredBytes, len(want))
	}
}

// TestARQOverLossyTCP reuses netsim's link-layer ARQ over the real
// sockets: a loss filter discards every third wired link-frame and every
// fifth link-ack, and the protocol must still deliver every result —
// retransmission recovers the frames, receiver-side dedup absorbs the
// copies that a lost ack forces the sender to repeat.
func TestARQOverLossyTCP(t *testing.T) {
	cfg := testConfig()
	rt := livenet.New(cfg.Seed)
	members := []ids.NodeID{}
	for i := 1; i <= cfg.NumMSS; i++ {
		members = append(members, ids.MSS(i).Node())
	}
	for i := 1; i <= cfg.NumServers; i++ {
		members = append(members, ids.Server(i).Node())
	}
	n := New(rt, members)
	n.EnableARQ(netsim.ARQConfig{RTO: 40 * time.Millisecond, MaxBackoff: 200 * time.Millisecond})
	var frames, acks int
	n.SetWiredLoss(func(_, _ ids.NodeID, m msg.Message) bool {
		switch m.Kind() {
		case msg.KindLinkFrame:
			frames++
			return frames%3 == 0
		case msg.KindLinkAck:
			acks++
			return acks%5 == 0
		}
		return false
	})
	if err := n.Start(); err != nil {
		t.Fatalf("tcpnet start: %v", err)
	}
	w := rdpcore.NewWorldWith(rt, cfg, n, n)
	n.SetReachable(w.Reachable)
	rt.Start()
	t.Cleanup(func() {
		rt.Stop()
		n.Close()
	})

	const reqs = 5
	done := make(chan ids.RequestID, reqs)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(req ids.RequestID, _ []byte, dup bool) {
			if !dup {
				done <- req
			}
		})
		for i := 0; i < reqs; i++ {
			mh.IssueRequest(1, []byte("lossy"))
		}
	})
	for i := 0; i < reqs; i++ {
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatalf("only %d of %d results delivered over the lossy link", i, reqs)
		}
	}
	rt.Do(func() {
		if n.ARQRetransmits() == 0 {
			t.Error("no ARQ retransmissions despite injected loss")
		}
		if err := w.CheckInvariants(); err != nil {
			t.Errorf("invariants after lossy run: %v", err)
		}
	})
}

// TestSendQueueLimitShedsAndRecovers mirrors netsim's bounded-queue
// contract on the TCP deployment: with a one-frame send window, a burst
// of requests must shed initial transmissions (Stats.WiredShed) yet
// still deliver every result, because shed frames stay registered with
// the ARQ and its retransmissions re-offer them as acks drain the link.
func TestSendQueueLimitShedsAndRecovers(t *testing.T) {
	cfg := testConfig()
	rt := livenet.New(cfg.Seed)
	members := []ids.NodeID{}
	for i := 1; i <= cfg.NumMSS; i++ {
		members = append(members, ids.MSS(i).Node())
	}
	for i := 1; i <= cfg.NumServers; i++ {
		members = append(members, ids.Server(i).Node())
	}
	n := New(rt, members)
	n.EnableARQ(netsim.ARQConfig{RTO: 40 * time.Millisecond, MaxBackoff: 200 * time.Millisecond})
	n.SetSendQueueLimit(1)
	// Loopback acks drain the window faster than the dispatcher can
	// offer frames; dropping the first few acks keeps frames un-acked
	// long enough for the burst to hit the one-frame window.
	var acks int
	n.SetWiredLoss(func(_, _ ids.NodeID, m msg.Message) bool {
		if m.Kind() == msg.KindLinkAck {
			acks++
			return acks <= 10
		}
		return false
	})
	if err := n.Start(); err != nil {
		t.Fatalf("tcpnet start: %v", err)
	}
	w := rdpcore.NewWorldWith(rt, cfg, n, n)
	n.SetReachable(w.Reachable)
	rt.Start()
	t.Cleanup(func() {
		rt.Stop()
		n.Close()
	})

	const reqs = 6
	done := make(chan ids.RequestID, reqs)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(req ids.RequestID, _ []byte, dup bool) {
			if !dup {
				done <- req
			}
		})
		for i := 0; i < reqs; i++ {
			mh.IssueRequest(1, []byte("burst"))
		}
	})
	for i := 0; i < reqs; i++ {
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatalf("only %d of %d results delivered with a bounded send queue", i, reqs)
		}
	}
	if s := n.Stats(); s.WiredShed == 0 {
		t.Error("no sheds recorded; one-frame send window never engaged")
	}
	rt.Do(func() {
		if err := w.CheckInvariants(); err != nil {
			t.Errorf("invariants after bounded-queue run: %v", err)
		}
	})
}
