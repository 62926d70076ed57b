package tcpnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/causal"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame reader of an
// 18-member group: it must never panic or over-allocate, and every
// frame it does accept must re-encode to the same bytes it consumed
// (when it consumed the whole input).
func FuzzReadFrame(f *testing.F) {
	const group = 18
	maxStamp := causal.NewMatrix(group)
	for i := range maxStamp {
		for j := range maxStamp[i] {
			maxStamp[i][j] = math.MaxUint64
		}
	}
	seed := []frame{
		{
			layer: netsim.LayerWired,
			from:  ids.MSS(1).Node(), to: ids.Server(1).Node(),
			m:        msg.ServerRequest{Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 9}, Payload: []byte("fuzz")},
			hasStamp: true, stampFrom: 1, stamp: causal.NewMatrix(group),
		},
		{
			layer: netsim.LayerWireless,
			from:  ids.MH(2).Node(), to: ids.MSS(1).Node(),
			m: msg.AckMH{MH: 2, Req: ids.RequestID{Origin: 2, Seq: 4}},
		},
		{
			layer: netsim.LayerWired,
			from:  ids.MSS(18).Node(), to: ids.MSS(1).Node(),
			m:        msg.Greet{MH: 1, OldMSS: 2},
			hasStamp: true, stampFrom: 17, stamp: maxStamp,
		},
	}
	for _, fr := range seed {
		b, err := encodeFrame(fr)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2]) // cut mid-frame
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})                                        // truncated length varint
	f.Add(binary.AppendUvarint(nil, maxFrameLen+1))            // over-cap length prefix
	f.Add(bytes.Repeat([]byte{0xFF}, binary.MaxVarintLen64+1)) // overflowing length

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrame(data, group)
		if err != nil {
			return
		}
		if got.m == nil {
			t.Fatal("readFrame returned a frame with a nil message and no error")
		}
		// Accepted frames must re-encode (possibly canonicalizing loose
		// input, e.g. non-minimal varints or non-zero-or-one bool bytes),
		// and the re-encoding must be a fixed point:
		// decode(encode(f)) == encode(f).
		re, err := encodeFrame(got)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		got2, err := readFrame(re, group)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if got2.layer != got.layer || got2.from != got.from || got2.to != got.to ||
			got2.hasStamp != got.hasStamp || got2.stampFrom != got.stampFrom ||
			len(got2.stamp) != len(got.stamp) || got2.m.Kind() != got.m.Kind() {
			t.Fatalf("round trip changed the frame: %+v vs %+v", got, got2)
		}
		re2, err := encodeFrame(got2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not a fixed point:\n first  %x\n second %x", re, re2)
		}
	})
}
