package rdpcore

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
)

// journalWorld returns a checkpointing world and its station 1, with
// nothing yet journaled for the MH or proxy the tests below use.
func journalWorld(t testing.TB) (*World, *MSSNode) {
	t.Helper()
	cfg := recoveryConfig(1)
	cfg.NumMSS = 2
	w := NewWorld(cfg)
	return w, w.MSSs[1]
}

func reqID(seq uint32) ids.RequestID { return ids.RequestID{Origin: 9, Seq: seq} }

// addProxyReqs appends requests to a proxy's requestList in order.
func addProxyReqs(p *Proxy, seqs ...uint32) {
	for _, s := range seqs {
		p.reqs[reqID(s)] = &proxyReq{server: 1, payload: []byte{byte(s)}, inc: ids.FirstIncarnation}
		p.order = append(p.order, reqID(s))
	}
}

// dropProxyReqs removes requests from a proxy's requestList.
func dropProxyReqs(p *Proxy, seqs ...uint32) {
	for _, s := range seqs {
		delete(p.reqs, reqID(s))
		p.order = slices.DeleteFunc(p.order, func(r ids.RequestID) bool { return r == reqID(s) })
	}
}

// crashRestart runs one CrashMSS/RestartMSS cycle; the restart replays
// the journal synchronously.
func crashRestart(w *World, id ids.MSS) {
	w.CrashMSS(id)
	w.RestartMSS(id)
}

// TestJournalShrinkingRecordsRestoreExactly journals a proxy with three
// requests and then with one, and an MH's outstanding set at three and
// then at one. Records are rewritten in place, so a rewrite that
// failed to truncate would resurrect the dropped entries on restore.
func TestJournalShrinkingRecordsRestoreExactly(t *testing.T) {
	w, n := journalWorld(t)
	const mh = ids.MH(9)

	p := newProxy(ids.ProxyID{Host: n.id, Seq: 7}, mh, n)
	n.proxies[7] = p
	addProxyReqs(p, 1, 2, 3)
	bid := ids.BatchID{Origin: mh, Seq: 1}
	p.batches[bid] = &proxyBatch{id: bid, members: []ids.RequestID{reqID(1), reqID(2)}, inc: ids.FirstIncarnation}
	p.batchOrder = append(p.batchOrder, bid)
	n.persistProxy(p)
	dropProxyReqs(p, 1, 3)
	delete(p.batches, bid)
	p.batchOrder = p.batchOrder[:0]
	n.persistProxy(p)

	n.localMhs.add(mh)
	n.outstanding[mh] = map[ids.RequestID]ids.Incarnation{
		reqID(1): ids.FirstIncarnation, reqID(2): ids.FirstIncarnation, reqID(3): ids.FirstIncarnation,
	}
	n.persistMH(mh)
	n.outstanding[mh] = map[ids.RequestID]ids.Incarnation{reqID(2): ids.FirstIncarnation}
	n.persistMH(mh)

	crashRestart(w, n.id)

	rp := n.proxies[7]
	if rp == nil {
		t.Fatal("proxy not restored")
	}
	if want := []ids.RequestID{reqID(2)}; !reflect.DeepEqual(rp.order, want) || len(rp.reqs) != 1 {
		t.Errorf("restored proxy order %v (%d reqs), want %v", rp.order, len(rp.reqs), want)
	}
	if r := rp.reqs[reqID(2)]; r == nil || !reflect.DeepEqual(r.payload, []byte{2}) {
		t.Errorf("restored request 2 = %+v, want payload [2]", r)
	}
	if len(rp.batches) != 0 || len(rp.batchOrder) != 0 {
		t.Errorf("restored %d batches, want 0", len(rp.batchOrder))
	}
	if want := map[ids.RequestID]ids.Incarnation{reqID(2): ids.FirstIncarnation}; !reflect.DeepEqual(n.outstanding[mh], want) {
		t.Errorf("restored outstanding %v, want %v", n.outstanding[mh], want)
	}

	// The restored state shares no map or slice with the journal: a
	// further in-place rewrite must not disturb it.
	n.persistMH(mh)
	n.persistProxy(rp)
	if len(n.outstanding[mh]) != 1 || len(rp.order) != 1 || len(rp.reqs) != 1 {
		t.Errorf("rewriting the journal changed the restored state: outstanding %v, order %v",
			n.outstanding[mh], rp.order)
	}
	rec := w.store.station(n.id)
	rec.mhs[mh].outstanding[reqID(5)] = ids.FirstIncarnation
	rec.proxies[7].reqs[0].req = reqID(6)
	if len(n.outstanding[mh]) != 1 || rp.order[0] != reqID(2) {
		t.Errorf("mutating the journal changed the restored state: outstanding %v, order %v",
			n.outstanding[mh], rp.order)
	}
}

// TestJournalErasedRecordRecreatesClean erases an MH record and a proxy
// record and then re-creates both: the new records carry nothing of the
// erased ones.
func TestJournalErasedRecordRecreatesClean(t *testing.T) {
	w, n := journalWorld(t)
	const mh = ids.MH(9)

	n.localMhs.add(mh)
	n.forwardTo[mh] = 2
	n.ignoreAcks[mh] = true
	n.outstanding[mh] = map[ids.RequestID]ids.Incarnation{reqID(1): ids.FirstIncarnation}
	n.persistMH(mh)
	p := newProxy(ids.ProxyID{Host: n.id, Seq: 7}, mh, n)
	n.proxies[7] = p
	addProxyReqs(p, 1, 2)
	bid := ids.BatchID{Origin: mh, Seq: 1}
	p.abortedBatches[bid] = []ids.RequestID{reqID(1)}
	p.abortOrder = append(p.abortOrder, bid)
	n.persistProxy(p)

	// Erase both: nothing left to remember for the MH, proxy deleted.
	n.localMhs.remove(mh)
	delete(n.forwardTo, mh)
	delete(n.ignoreAcks, mh)
	delete(n.outstanding, mh)
	n.persistMH(mh)
	delete(n.proxies, 7)
	n.unpersistProxy(7)
	rec := w.store.station(n.id)
	if rec.mhs[mh] != nil || rec.proxies[7] != nil {
		t.Fatal("erase left a record behind")
	}

	// Re-create: responsible only; a fresh proxy under the same sequence.
	n.localMhs.add(mh)
	n.persistMH(mh)
	p = newProxy(ids.ProxyID{Host: n.id, Seq: 7}, mh, n)
	n.proxies[7] = p
	addProxyReqs(p, 4)
	n.persistProxy(p)

	crashRestart(w, n.id)

	if !n.localMhs.contains(mh) {
		t.Error("responsibility not restored")
	}
	if _, ok := n.forwardTo[mh]; ok || n.ignoreAcks[mh] || len(n.outstanding[mh]) != 0 {
		t.Errorf("stale MH state restored: forwardTo=%v ignoreAcks=%v outstanding=%v",
			n.forwardTo[mh], n.ignoreAcks[mh], n.outstanding[mh])
	}
	rp := n.proxies[7]
	if rp == nil {
		t.Fatal("re-created proxy not restored")
	}
	if want := []ids.RequestID{reqID(4)}; !reflect.DeepEqual(rp.order, want) {
		t.Errorf("restored proxy order %v, want %v", rp.order, want)
	}
	if len(rp.abortOrder) != 0 || len(rp.abortedBatches) != 0 {
		t.Errorf("stale abort memos restored: %v", rp.abortOrder)
	}
}

// TestJournalRewriteAllocatesNothing pins the in-place rewrite: once a
// station has a record for an MH and a proxy, journaling either again
// allocates nothing.
func TestJournalRewriteAllocatesNothing(t *testing.T) {
	_, n := journalWorld(t)
	const mh = ids.MH(9)
	n.localMhs.add(mh)
	n.outstanding[mh] = map[ids.RequestID]ids.Incarnation{reqID(1): ids.FirstIncarnation, reqID(2): ids.FirstIncarnation}
	p := newProxy(ids.ProxyID{Host: n.id, Seq: 7}, mh, n)
	n.proxies[7] = p
	addProxyReqs(p, 1, 2, 3)
	bid := ids.BatchID{Origin: mh, Seq: 1}
	p.batches[bid] = &proxyBatch{id: bid, members: []ids.RequestID{reqID(1), reqID(2)}}
	p.batchOrder = append(p.batchOrder, bid)
	n.persistMH(mh)
	n.persistProxy(p)

	if avg := testing.AllocsPerRun(100, func() { n.persistMH(mh) }); avg != 0 {
		t.Errorf("persistMH rewrite: %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { n.persistProxy(p) }); avg != 0 {
		t.Errorf("persistProxy rewrite: %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkJournalPersistProxy measures one stable-store journal write
// of a hosted proxy with four requests and one batch: the write every
// requestList mutation pays under Checkpoint.
func BenchmarkJournalPersistProxy(b *testing.B) {
	_, n := journalWorld(b)
	p := newProxy(ids.ProxyID{Host: n.id, Seq: 7}, 9, n)
	addProxyReqs(p, 1, 2, 3, 4)
	bid := ids.BatchID{Origin: 9, Seq: 1}
	p.batches[bid] = &proxyBatch{id: bid, members: []ids.RequestID{reqID(1), reqID(2)}}
	p.batchOrder = append(p.batchOrder, bid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.persistProxy(p)
	}
}
