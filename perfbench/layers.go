package main

import (
	"repro/internal/ids"
	"repro/internal/rdpcore"
)

// perLayer lists the metrics a traced run reports, in output order.
// Every workload prints all of them; a layer the workload bypasses
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events_per_result", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_s", "s"},
	{"sim.queue_peak", "count"},
	{"causal.stamp_bytes_per_wired_msg", "B"},
	{"causal.queue_peak", "count"},
	{"causal.send_ns", "ns"},
	{"causal.receive_ns", "ns"},
	{"netsim.wired_sends_per_result", "count"},
	{"netsim.wireless_sends_per_result", "count"},
	{"netsim.wired_send_ns", "ns"},
	{"netsim.wireless_send_ns", "ns"},
	{"netsim.wired_deliver_self_ns", "ns"},
	{"netsim.wireless_deliver_self_ns", "ns"},
	{"netsim.drops_per_result", "count"},
	{"netsim.shed", "count"},
	{"netsim.wired_transit_p99_sim_ms", "sim_ms"},
	{"wtp.frames_per_result", "count"},
	{"wtp.msgs_per_frame", "count"},
	{"wtp.retx_per_frame", "count"},
	{"wtp.resets", "count"},
	{"wtp.rtt_p50_sim_ms", "sim_ms"},
	{"rdpcore.mss_handle_ns", "ns"},
	{"rdpcore.mh_handle_ns", "ns"},
	{"rdpcore.server_handle_ns", "ns"},
	{"rdpcore.timer_ns", "ns"},
	{"rdpcore.dup_per_result", "count"},
	{"rdpcore.handoffs_per_result", "count"},
	{"rdpcore.retransmissions_per_result", "count"},
	{"rdpcore.proxies_per_result", "count"},
	{"rdpcore.state_bytes_per_mss", "B"},
	{"rdpcore.outstanding_bytes", "B"},
	{"rdpcore.checkpoint_writes_per_result", "count"},
	{"rdpcore.inbox_peak", "count"},
	{"rdpcore.busy_refusals", "count"},
	{"msg.encode_ns", "ns"},
	{"msg.decode_ns", "ns"},
	{"msg.bytes_per_msg", "B"},
	{"tcpnet.send_ns", "ns"},
	{"tcpnet.frames_per_result", "count"},
	{"tcpnet.wired_bytes_per_frame", "B"},
	{"livenet.post_lag_us_p50", "us"},
	{"livenet.post_lag_us_p99", "us"},
	{"livenet.gen_late_ms_max", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.heap_bytes_per_result", "B"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.attributed_share", "ratio"},
	{"trace.unattributed_s", "s"},
	{"trace.spans_per_result", "count"},
	{"trace.span_cost_ns", "ns"},
}

// installSamplers makes the tracer sample the kernel queue and the
// causal hold-back queues every sampleEvery callbacks.
func (r *simRun) installSamplers() {
	var members []ids.NodeID
	for n := range r.c.index {
		members = append(members, n)
	}
	r.tr.sample = func() {
		r.queuePeak = max(r.queuePeak, r.k.Pending())
		held := 0
		for _, n := range members {
			held += len(r.wired.CausalQueue(n))
		}
		r.causalPeak = max(r.causalPeak, held)
	}
}

// rdpcoreLayers fills the protocol-layer metrics shared by every
// workload.
func rdpcoreLayers(m map[string]float64, tr *tracer, st *rdpcore.Stats, results float64) {
	m["rdpcore.mss_handle_ns"] = tr.selfNS(lMSS)
	m["rdpcore.mh_handle_ns"] = tr.selfNS(lMH)
	m["rdpcore.server_handle_ns"] = tr.selfNS(lServer)
	m["rdpcore.timer_ns"] = tr.selfNS(lTimer)
	m["rdpcore.dup_per_result"] = per(float64(st.DuplicateDeliveries.Value()), results)
	m["rdpcore.handoffs_per_result"] = per(float64(st.Handoffs.Value()), results)
	m["rdpcore.retransmissions_per_result"] = per(float64(st.Retransmissions.Value()), results)
	m["rdpcore.proxies_per_result"] = per(float64(st.ProxiesCreated.Value()+st.SharedProxies.Value()), results)
	m["rdpcore.inbox_peak"] = float64(st.InboxPeak.Value())
	m["rdpcore.busy_refusals"] = float64(st.BusyRefusals.Value())
}

// runtimeLayers fills the codec replay and tracing metrics shared by
// every workload. busy is the denominator of the attributed share: run
// wall on the simulator, process CPU on the live runtime.
func runtimeLayers(m map[string]float64, tr *tracer, c *counters, res *repResult, busy float64) {
	results := float64(res.Delivered)
	m["msg.encode_ns"], m["msg.decode_ns"], m["msg.bytes_per_msg"] = replayCodec(c.mix)
	var attributed int64
	for l := layer(0); l < nLayers; l++ {
		if l != lLoop {
			attributed += tr.self[l]
		}
	}
	m["trace.attributed_share"] = per(float64(attributed)/1e9, busy)
	m["trace.unattributed_s"] = float64(tr.self[lLoop]) / 1e9
	var spans int64
	for _, n := range tr.count {
		spans += n
	}
	m["trace.spans_per_result"] = per(float64(spans), results)
	m["trace.span_cost_ns"] = spanCost()
}

func (r *simRun) layerMetrics(res *repResult, stateBytes, outstanding int64) map[string]float64 {
	tr, st, cfg := r.tr, r.w.Stats, r.w.Config()
	results := float64(res.Delivered)
	events := float64(res.Events)
	simSelf := float64(tr.self[lLoop] + tr.self[lSchedule])
	m := make(map[string]float64)
	m["sim.events_per_result"] = per(events, results)
	m["sim.ns_per_event"] = per(simSelf, events)
	m["sim.self_s"] = simSelf / 1e9
	m["sim.queue_peak"] = float64(r.queuePeak)

	n := len(r.c.index)
	if cfg.Causal {
		m["causal.stamp_bytes_per_wired_msg"] = stampBytes(n)
		m["causal.send_ns"], m["causal.receive_ns"] = replayCausal(n, r.c.wiredPairs)
	}
	m["causal.queue_peak"] = float64(r.causalPeak)

	m["netsim.wired_sends_per_result"] = per(float64(r.c.wiredSends), results)
	m["netsim.wireless_sends_per_result"] = per(float64(r.c.wirelessSends), results)
	m["netsim.wired_send_ns"] = tr.selfNS(lWiredSend)
	m["netsim.wireless_send_ns"] = tr.selfNS(lWirelessSend)
	m["netsim.wired_deliver_self_ns"] = tr.selfNS(lWiredDeliver)
	m["netsim.wireless_deliver_self_ns"] = tr.selfNS(lWirelessDeliver)
	m["netsim.drops_per_result"] = per(float64(st.WiredDrops.Value()+st.WirelessDrops.Value()), results)
	m["netsim.shed"] = float64(st.NetworkShed.Value())
	m["netsim.wired_transit_p99_sim_ms"] = ms(quantile(r.c.transit.samples, 0.99))

	frames := float64(st.WTPFrames.Value())
	m["wtp.frames_per_result"] = per(frames, results)
	m["wtp.msgs_per_frame"] = per(float64(st.WTPFrameMsgs.Value()), frames)
	m["wtp.retx_per_frame"] = per(float64(st.WTPRetransmits.Value()), frames)
	m["wtp.resets"] = float64(st.WTPResets.Value())
	m["wtp.rtt_p50_sim_ms"] = ms(st.WTPRtt.Quantile(0.5))

	rdpcoreLayers(m, tr, st, results)
	m["rdpcore.state_bytes_per_mss"] = per(float64(stateBytes), float64(len(r.w.StationList())))
	m["rdpcore.outstanding_bytes"] = float64(outstanding)
	m["rdpcore.checkpoint_writes_per_result"] = per(float64(r.w.CheckpointWrites()), results)

	runtimeLayers(m, tr, r.c, res, res.RunS)
	return m
}

// fillRuntime records the collector's figures on every repetition. The
// report takes them from the untraced ones: the span log enlarges the
// heap the collector paces itself on.
func (res *repResult) fillRuntime() {
	if res.Layers == nil {
		res.Layers = make(map[string]float64)
	}
	res.Layers["runtime.gc_cycles"] = float64(res.GCs)
	res.Layers["runtime.gc_cpu_fraction"] = res.GCCPU
	res.Layers["runtime.heap_bytes_per_result"] = per(float64(res.Alloc), float64(res.Delivered))
}
