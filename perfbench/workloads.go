package main

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sidam"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wtp"
)

// Workload sizes. A run repeats its workload in fresh processes until
// --seconds is spent, so these set the work per repetition, not the
// run length.
const (
	handoffHosts   = 2000
	handoffHorizon = 6 * time.Second

	lossyHosts   = 64
	lossyHorizon = 40 * time.Second

	subscribers = 100_000
)

// handoff is the paper's protocol under heavy mobility: cell residence
// near four times the §5 threshold t_wired + t_wireless, a fifth of
// the residence periods ending in inactivity, Poisson requests.
var handoff = &simWorkload{
	config: func(seed int64) rdpcore.Config {
		cfg := rdpcore.DefaultConfig()
		cfg.Seed = seed
		cfg.NumMSS = 16
		cfg.NumServers = 2
		// §5's latency model: t_wired and t_wireless are fixed (as in E3),
		// so the threshold t_wired + t_wireless is crisp.
		cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
		cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
		cfg.ServerProc = netsim.Exponential{MeanDelay: 50 * time.Millisecond, Floor: 5 * time.Millisecond}
		cfg.Causal = true
		cfg.AckPriority = true
		cfg.ProcDelay = 100 * time.Microsecond
		cfg.Checkpoint = true
		return cfg
	},
	populate: func(r *simRun) {
		cells := r.w.StationList()
		servers := r.servers()
		threshold := 25 * time.Millisecond // t_wired + t_wireless
		// The floor keeps every stay longer than the greet's own radio
		// trip and the hand-off that follows it, the premise of the
		// protocol's delivery guarantee.
		residence := netsim.Exponential{MeanDelay: 4 * threshold, Floor: 30 * time.Millisecond}
		mob := workload.Mobility{
			Picker:            workload.UniformCells{Cells: cells},
			Residence:         residence,
			InactiveProb:      0.2,
			InactiveDur:       netsim.Exponential{MeanDelay: 2 * residence.MeanDelay, Floor: 10 * time.Millisecond},
			MoveWhileInactive: 0.4,
		}
		reqs := workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 400 * time.Millisecond, Floor: 5 * time.Millisecond},
			Servers:      servers,
			PayloadBytes: 32,
		}
		for i := 1; i <= handoffHosts; i++ {
			start := cells[r.gen.Intn(len(cells))]
			h := r.addHost(ids.MH(i), start)
			h.steps = mobileScript(r.gen, mob, reqs, start, handoffHorizon)
		}
	},
	end:       handoffHorizon + 3*time.Second,
	measureAt: handoffHorizon / 2,
}

// mobileScript merges a host's itinerary and request arrivals into one
// time-ordered script that ends with the host active, so every result
// can reach it during the drain.
func mobileScript(rng *sim.RNG, mob workload.Mobility, reqs workload.Requests, start ids.MSS, horizon time.Duration) []step {
	var steps []step
	for _, ev := range workload.Itinerary(rng, mob, start, horizon) {
		s := step{at: ev.At, cell: ev.Cell}
		switch ev.Kind {
		case workload.EvMigrate:
			s.kind = stMigrate
		case workload.EvDeactivate:
			s.kind = stSleep
		case workload.EvActivate:
			s.kind = stWake
		}
		steps = append(steps, s)
	}
	for _, a := range workload.Schedule(rng, reqs, horizon) {
		steps = append(steps, step{at: a.At, kind: stIssue, server: a.Server, payload: a.Payload})
	}
	slices.SortStableFunc(steps, func(a, b step) int { return cmp.Compare(a.at, b.at) })
	return append(steps, step{at: horizon, kind: stWake})
}

// lossyRadio is the windowed radio at 12% frame loss under twice the
// stop-and-wait link capacity, with admission control and client
// request retry on and no mobility.
var lossyRadio = &simWorkload{
	config: func(seed int64) rdpcore.Config {
		cfg := rdpcore.DefaultConfig()
		cfg.Seed = seed
		cfg.NumMSS = 8
		cfg.NumServers = 2
		cfg.WiredLatency = netsim.Uniform{Lo: 1 * time.Millisecond, Hi: 3 * time.Millisecond}
		cfg.WirelessLatency = netsim.Uniform{Lo: 20 * time.Millisecond, Hi: 30 * time.Millisecond}
		cfg.ServerProc = netsim.Uniform{Lo: 500 * time.Microsecond, Hi: 1500 * time.Microsecond}
		// At exactly 10% loss one request in a hundred loses both its
		// first send and its first retry, which puts the p99 on the edge
		// between the one-retry and two-retry latency clusters, where it
		// jumps by a fifth from seed to seed; 12% puts it inside the
		// second cluster.
		cfg.WirelessLoss = 0.12
		cfg.WirelessQueueLimit = 1024
		cfg.AdmissionHighWater = 64
		cfg.BusyRetryBase = 50 * time.Millisecond
		cfg.RequestTimeout = 500 * time.Millisecond
		cfg.WirelessWTP = wtp.Config{Enabled: true}
		return cfg
	},
	populate: func(r *simRun) {
		cells := r.w.StationList()
		// Stop-and-wait carries one frame per radio round trip of 2×25ms.
		linkRate := 1.0 / (50 * time.Millisecond).Seconds()
		reqs := workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: time.Duration(float64(time.Second) / (2 * linkRate)), Floor: time.Millisecond},
			Servers:      r.servers(),
			PayloadBytes: 32,
		}
		for i := 1; i <= lossyHosts; i++ {
			h := r.addHost(ids.MH(i), cells[i%len(cells)])
			for _, a := range workload.Schedule(r.gen, reqs, lossyHorizon) {
				h.steps = append(h.steps, step{at: a.At, kind: stIssue, server: a.Server, payload: a.Payload})
			}
		}
	},
	end:       lossyHorizon + 10*time.Second,
	measureAt: lossyHorizon / 2,
}

// SIDAM notification schedule, as in E16: subscriptions over the first
// second, a hand-off wave at 2s, one update per region from 3.5s
// staggered 5ms apart, and a second update wave after the first drains.
const (
	subSpread      = 1024 * time.Millisecond
	subMigrateAt   = 2 * time.Second
	subMigrateSpan = 128 * time.Millisecond
	subMeasureAt   = 3400 * time.Millisecond
	subUpdateAt    = 3500 * time.Millisecond
	subStagger     = 5 * time.Millisecond
	subDrain       = 1500 * time.Millisecond
)

const (
	subStations  = subscribers / 1024
	subUpdate2At = subUpdateAt + subStations*subStagger + subDrain
)

// subscribersWL is E16's SIDAM notification workload: every host
// subscribes to its region's congestion feed through shared group
// proxies over aggregated location state; a tenth of them hand off
// before the notification fires and another tenth while it fans out.
var subscribersWL = &simWorkload{
	config: func(seed int64) rdpcore.Config {
		cfg := rdpcore.DefaultConfig()
		cfg.Seed = seed
		cfg.NumMSS = subStations
		cfg.NumServers = 8
		// A constant wired latency keeps each link FIFO, which the
		// protocol needs once causal order is off.
		cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
		cfg.WirelessLatency = netsim.Uniform{Lo: 15 * time.Millisecond, Hi: 25 * time.Millisecond}
		cfg.Causal = false
		cfg.AggregatedState = true
		cfg.GroupTopic = sidam.SubscribeTopic
		cfg.AggFlushDelay = 50 * time.Millisecond
		return cfg
	},
	populate: func(r *simRun) {
		stations := subStations
		net := sidam.Install(r.w, sidam.Config{
			Regions:           uint32(stations),
			LocalProc:         netsim.Constant(20 * time.Millisecond),
			HopProc:           netsim.Constant(5 * time.Millisecond),
			InitialCongestion: 60,
		})
		const threshold, update1, update2 = 30, 95, 10
		for i := 1; i <= subscribers; i++ {
			home := ids.MSS(1 + (i-1)%stations)
			region := uint32(home - 1)
			h := r.addHost(ids.MH(i), home)
			h.steps = append(h.steps, step{
				at:      r.gen.Uniform(0, subSpread),
				kind:    stIssue,
				server:  net.Owner(region),
				payload: sidam.EncodeSubscribe(region, threshold),
			})
			cell := home
			if r.gen.Prob(0.1) {
				cell = ids.MSS(1 + int(cell)%stations)
				h.steps = append(h.steps, step{
					at:   subMigrateAt + r.gen.Uniform(0, subMigrateSpan),
					kind: stMigrate,
					cell: cell,
				})
			}
			// A second tenth hands off while the notification fans out,
			// so the group proxies chase hosts mid-delivery.
			if r.gen.Prob(0.1) {
				h.steps = append(h.steps, step{
					at:   subUpdateAt + r.gen.Uniform(0, time.Duration(stations)*subStagger+subMigrateSpan),
					kind: stMigrate,
					cell: ids.MSS(1 + int(cell)%stations),
				})
			}
		}
		for j := 1; j <= stations; j++ {
			region := uint32(j - 1)
			h := r.addHost(ids.MH(subscribers+j), ids.MSS(j))
			stag := time.Duration(j-1) * subStagger
			h.steps = []step{
				{at: subUpdateAt + stag, kind: stIssue, server: net.Owner(region), payload: sidam.EncodeUpdate(region, update1)},
				{at: subUpdate2At + stag, kind: stIssue, server: net.Owner(region), payload: sidam.EncodeUpdate(region, update2)},
			}
		}
	},
	end:       subUpdate2At + subStations*subStagger + subDrain,
	measureAt: subMeasureAt,
}
