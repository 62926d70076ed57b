package tcpnet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/causal"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// stampedFrame is a wired request frame carrying an n×n stamp whose
// counters span one to three varint bytes, as on a long-running link.
func stampedFrame(n int) frame {
	stamp := causal.NewMatrix(n)
	for i := range stamp {
		for j := range stamp[i] {
			stamp[i][j] = uint64((i+1)*(j+1)) * 997
		}
	}
	return frame{
		layer: netsim.LayerWired,
		from:  ids.MSS(1).Node(), to: ids.Server(1).Node(),
		m:        msg.ServerRequest{Proxy: ids.ProxyID{Host: 7, Seq: 3}, Req: ids.RequestID{Origin: 7, Seq: 41}, Payload: make([]byte, 32)},
		hasStamp: true, stampFrom: 0, stamp: stamp,
	}
}

var (
	sinkMsg    msg.Message
	sinkMatrix causal.Matrix
)

// TestFrameAllocBudget pins the codec's allocations: encoding into a
// pooled buffer allocates nothing, and reading a frame costs no more
// than decoding its message plus one stamp matrix (the body buffer and
// the buffered reader are reused across frames).
func TestFrameAllocBudget(t *testing.T) {
	f := stampedFrame(4)
	enc := testing.AllocsPerRun(200, func() {
		bp := msg.GetBuffer()
		b, err := appendFrame(*bp, f)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		*bp = b[:0]
		msg.PutBuffer(bp)
	})
	if enc != 0 {
		t.Errorf("appendFrame into a pooled buffer: %.1f allocs, want 0", enc)
	}

	b, err := encodeFrame(f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	body, err := msg.Encode(f.m)
	if err != nil {
		t.Fatalf("encode body: %v", err)
	}
	src := bytes.NewReader(nil)
	fr := newFrameReader(src, 4)
	read := testing.AllocsPerRun(200, func() {
		src.Reset(b)
		fr.r.Reset(src)
		var got frame
		if err := fr.read(&got); err != nil {
			t.Fatalf("read: %v", err)
		}
		sinkMsg = got.m
	})
	decode := testing.AllocsPerRun(200, func() { sinkMsg, _ = msg.Decode(body) })
	matrix := testing.AllocsPerRun(200, func() { sinkMatrix = causal.NewMatrix(4) })
	if read > decode+matrix {
		t.Errorf("frame read: %.1f allocs, want at most msg.Decode's %.1f + the stamp's %.1f",
			read, decode, matrix)
	}
}

// BenchmarkFrameRoundTrip encodes a stamped wired frame into a pooled
// buffer and reads it back through a connection's frame reader, at the
// tcp-live group size (4 members) and the handoff one (18).
func BenchmarkFrameRoundTrip(b *testing.B) {
	for _, n := range []int{4, 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := stampedFrame(n)
			src := bytes.NewReader(nil)
			fr := newFrameReader(src, n)
			size := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bp := msg.GetBuffer()
				out, err := appendFrame(*bp, f)
				if err != nil {
					b.Fatal(err)
				}
				size = len(out)
				src.Reset(out)
				fr.r.Reset(src)
				var got frame
				if err := fr.read(&got); err != nil {
					b.Fatal(err)
				}
				*bp = out[:0]
				msg.PutBuffer(bp)
			}
			b.ReportMetric(float64(size), "bytes/frame")
		})
	}
}
