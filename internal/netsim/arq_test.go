package netsim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// dropNth injects a drop on the nth..(n+k-1)th wired transmission
// attempts (1-based, counted across all links including acks).
type dropNth struct {
	n       int
	from    int
	count   int
	dupNth  int
	delay   time.Duration
	delayed int
}

func (d *dropNth) OnWired(from, to ids.NodeID, m msg.Message) LinkFault {
	d.n++
	var f LinkFault
	if d.from > 0 && d.n >= d.from && d.count > 0 {
		d.count--
		f.Drop = true
	}
	if d.dupNth == d.n {
		f.Duplicate = true
	}
	if d.delayed == d.n {
		f.Delay = d.delay
	}
	return f
}

func wiredPair(t *testing.T, k *sim.Kernel, cfg WiredConfig) (*Wired, *[]msg.Message) {
	t.Helper()
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w := NewWired(k, []ids.NodeID{a, b}, cfg, nil)
	var got []msg.Message
	w.Register(a, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(b, HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, m) }))
	return w, &got
}

func TestARQRetransmitsThroughLoss(t *testing.T) {
	k := sim.NewKernel(1)
	// Drop the first two transmission attempts of the data frame.
	hook := &dropNth{from: 1, count: 2}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		Faults:  hook,
		ARQ:     ARQConfig{Enabled: true, RTO: 20 * time.Millisecond},
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	k.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1", len(*got))
	}
	re, out := w.ARQStats()
	if re != 2 {
		t.Errorf("retransmits = %d, want 2", re)
	}
	if out != 0 {
		t.Errorf("outstanding = %d, want 0 after ack", out)
	}
}

func TestARQDedupsDuplicatedFrames(t *testing.T) {
	k := sim.NewKernel(1)
	// Duplicate the first attempt; the receiver must deliver once.
	hook := &dropNth{dupNth: 1}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		Faults:  hook,
		ARQ:     ARQConfig{Enabled: true, RTO: 20 * time.Millisecond},
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	k.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1", len(*got))
	}
}

func TestARQLostAckOnlyCostsARetransmission(t *testing.T) {
	k := sim.NewKernel(1)
	// Attempt 1 is the data frame (delivered), attempt 2 its ack
	// (dropped): the sender retransmits, the receiver dedups and re-acks.
	hook := &dropNth{from: 2, count: 1}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		Faults:  hook,
		ARQ:     ARQConfig{Enabled: true, RTO: 20 * time.Millisecond},
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	k.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1 despite lost ack", len(*got))
	}
	if re, _ := w.ARQStats(); re != 1 {
		t.Errorf("retransmits = %d, want 1", re)
	}
}

func TestARQCausalOrderSurvivesReorderingLoss(t *testing.T) {
	k := sim.NewKernel(1)
	// Drop the first attempt of the first message only: without ARQ the
	// second message would arrive first and (under causal order) the
	// first would be lost forever; with ARQ both arrive, in causal order.
	hook := &dropNth{from: 1, count: 1}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		Faults:  hook,
		ARQ:     ARQConfig{Enabled: true, RTO: 20 * time.Millisecond},
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 8, NewMSS: 2})
	k.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(*got))
	}
	if (*got)[0].(msg.Dereg).MH != 7 || (*got)[1].(msg.Dereg).MH != 8 {
		t.Fatalf("causal order violated: %v", *got)
	}
}

func TestWiredDownGateHoldsFramesUntilRestart(t *testing.T) {
	k := sim.NewKernel(1)
	down := true
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w := NewWired(k, []ids.NodeID{a, b}, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		ARQ:     ARQConfig{Enabled: true, RTO: 10 * time.Millisecond},
		Down: func(n ids.NodeID) bool {
			return n == b && down
		},
	}, nil)
	var got []msg.Message
	w.Register(a, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(b, HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, m) }))
	w.Send(a, b, msg.Dereg{MH: 7, NewMSS: 2})
	k.After(50*time.Millisecond, func() { down = false })
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1 after restart", len(got))
	}
	if _, out := w.ARQStats(); out != 0 {
		t.Errorf("outstanding = %d, want 0", out)
	}
	re, _ := w.ARQStats()
	if re == 0 {
		t.Error("expected retransmissions while the destination was down")
	}
}

// TestWiredDownGateWithoutARQDropsAtArrival checks the non-ARQ path:
// a frame is checked against Down when it arrives, not when it is sent,
// and a frame that finds its destination down is lost (observed as
// unreachable) while later frames arrive intact. Causal order is off:
// a lost frame would wedge every causally later one.
func TestWiredDownGateWithoutARQDropsAtArrival(t *testing.T) {
	k := sim.NewKernel(1)
	down := false
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	var unreachable []msg.Message
	w := NewWired(k, []ids.NodeID{a, b}, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Down:    func(n ids.NodeID) bool { return n == b && down },
	}, func(_ sim.Time, _ Layer, kind EventKind, _, _ ids.NodeID, m msg.Message) {
		if kind == EventDroppedUnreachable {
			unreachable = append(unreachable, m)
		}
	})
	var got []msg.Message
	w.Register(a, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(b, HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, m) }))
	lost, kept := msg.Dereg{MH: 7, NewMSS: 2}, msg.Dereg{MH: 8, NewMSS: 2}
	w.Send(a, b, lost) // sent while b is up, arrives while it is down
	k.Defer(time.Millisecond, func() { down = true })
	k.Defer(3*time.Millisecond, func() {
		down = false
		w.Send(a, b, kept)
	})
	k.Run()
	if len(unreachable) != 1 || unreachable[0] != lost {
		t.Errorf("dropped as unreachable: %v, want [%v]", unreachable, lost)
	}
	if len(got) != 1 || got[0] != kept {
		t.Errorf("delivered %v, want [%v]", got, kept)
	}
}

func TestNonARQFaultDropIsPermanent(t *testing.T) {
	k := sim.NewKernel(1)
	hook := &dropNth{from: 1, count: 1}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Faults:  hook,
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 8, NewMSS: 2})
	k.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1 (first was lost for good)", len(*got))
	}
}

func TestARQBackoffIsCapped(t *testing.T) {
	cfg := ARQConfig{RTO: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		40 * time.Millisecond,
		40 * time.Millisecond,
	}
	for i, w := range want {
		if got := cfg.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestARQReceiverCompactsSeenSet(t *testing.T) {
	r := NewARQReceiver()
	for _, seq := range []uint64{2, 1, 3} {
		if !r.Accept(seq) {
			t.Fatalf("first Accept(%d) = false", seq)
		}
	}
	for _, seq := range []uint64{1, 2, 3} {
		if r.Accept(seq) {
			t.Fatalf("second Accept(%d) = true", seq)
		}
	}
	if len(r.ahead) != 0 || r.contig != 3 {
		t.Errorf("receiver not compacted: contig=%d ahead=%d", r.contig, len(r.ahead))
	}
	if !r.Accept(5) || len(r.ahead) != 1 {
		t.Error("out-of-order accept should park in ahead set")
	}
}

// TestDuplicatedFrameWithoutARQKeepsItsRecord pins the path on which
// delivery records are never recycled: a causal link with faults but no
// ARQ can fire one record twice. The first message is duplicated, its
// second copy lags, and the sender reuses the link while that copy is
// still in flight. Both copies must carry the original message, and the
// later messages must arrive intact rather than through a reused
// record.
func TestDuplicatedFrameWithoutARQKeepsItsRecord(t *testing.T) {
	k := sim.NewKernel(1)
	// Copy 1 of the first message takes 1ms, copy 2 takes 10ms, the
	// later frames 1ms each.
	lat := &scriptedLatency{delays: []time.Duration{
		time.Millisecond, 10 * time.Millisecond, time.Millisecond, time.Millisecond,
	}}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: lat,
		Causal:  true,
		Faults:  &dropNth{dupNth: 1},
	})
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	first := msg.Dereg{MH: 7, NewMSS: 2}
	w.Send(a, b, first)
	later := []msg.Message{msg.Dereg{MH: 8, NewMSS: 2}, msg.Dereg{MH: 9, NewMSS: 2}}
	k.Defer(2*time.Millisecond, func() {
		for _, m := range later {
			w.Send(a, b, m)
		}
	})
	k.Run()
	want := []msg.Message{first, later[0], later[1], first}
	if len(*got) != len(want) {
		t.Fatalf("delivered %v, want %v", *got, want)
	}
	for i := range want {
		if (*got)[i] != want[i] {
			t.Errorf("delivery %d = %v, want %v", i, (*got)[i], want[i])
		}
	}
}
