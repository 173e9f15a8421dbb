package main

import (
	"runtime"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/dataplane"
	"sdx/internal/pkt"
	"sdx/internal/rs"
)

// Per-layer measurements for the traced run. Each times calls into one
// layer's public functions from outside, on the workload's own inputs.

// microBudget is how long each microbenchmark loop runs.
const microBudget = 150 * time.Millisecond

// decodeNS is bgp.Unmarshal's cost per UPDATE over the wire bytes of the
// UPDATEs the phases sent.
func decodeNS(sent []*bgp.Update) (float64, int, error) {
	wire := make([][]byte, len(sent))
	for i, u := range sent {
		b, err := bgp.Marshal(u)
		if err != nil {
			return 0, 0, err
		}
		wire[i] = b
	}
	n := 0
	start := time.Now()
	for time.Since(start) < microBudget {
		for _, b := range wire {
			if _, _, err := bgp.Unmarshal(b); err != nil {
				return 0, 0, err
			}
		}
		n += len(wire)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), n, nil
}

// twinResult is a standalone route server fed the workload's table and
// churn, the decision process without the controller around it.
type twinResult struct {
	loadUS, heapB, decideUS float64
	prefixes, decisions     int
}

func rsTwin(in *inputs, churn []*bgp.Update) twinResult {
	var res twinResult
	heap0 := liveHeap()
	srv := rs.New()
	for i := range in.x.Participants {
		wp := &in.x.Participants[i]
		// Registration fails only on a duplicate AS, which NewIXP never makes.
		_ = srv.AddParticipant(rs.ParticipantConfig{AS: wp.AS, RouterID: wp.Ports[0].IP()})
	}
	start := time.Now()
	for i := range in.x.Participants {
		as := in.x.Participants[i].AS
		batch := make([]rs.PeerUpdate, len(in.table[as]))
		for j, u := range in.table[as] {
			batch[j] = rs.PeerUpdate{From: as, Update: u}
			res.prefixes += len(u.NLRI)
		}
		srv.Apply(batch)
	}
	load := time.Since(start)
	res.loadUS = us(load) / float64(res.prefixes)
	res.heapB = float64(int64(liveHeap())-int64(heap0)) / float64(res.prefixes)

	start = time.Now()
	for _, u := range churn {
		srv.Apply([]rs.PeerUpdate{{From: in.announcer, Update: u}})
	}
	if res.decisions = len(churn); res.decisions > 0 {
		res.decideUS = us(time.Since(start)) / float64(res.decisions)
	}
	runtime.KeepAlive(srv)
	return res
}

// dataplaneResult is the lookup path timed on a copy of the remote
// fabric's table.
type dataplaneResult struct {
	hitNS, missNS, allocsPerPkt float64
	buildMS                     samples
}

func dataplaneMicro(remote *dataplane.Switch, tr *traffic) dataplaneResult {
	var res dataplaneResult
	table := dataplane.NewFlowTable()
	entries := remote.Table().Entries()
	for i, e := range entries {
		entries[i] = e.Clone()
	}
	table.AddBatch(entries)

	perPacket := func(stream []pkt.Packet) float64 {
		out := make([]pkt.Packet, 0, 4*batchSize)
		n := 0
		start := time.Now()
		for time.Since(start) < microBudget {
			for lo := 0; lo+batchSize <= len(stream); lo += batchSize {
				out = table.ProcessBatch(stream[lo:lo+batchSize], out[:0], nil)
				n += batchSize
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	perPacket(tr.hot) // warm the cache
	res.hitNS = perPacket(tr.hot)
	// A one-verdict-per-shard cache turns every lookup into an engine miss.
	table.SetCacheCapacity(1)
	res.missNS = perPacket(tr.all)

	// Engine rebuild after a write, as every fast-band push causes.
	probe := &dataplane.FlowEntry{Priority: 1, Match: pkt.MatchAll.DstPort(9), Cookie: 0xbe9c4}
	for k := 0; k < 7; k++ {
		table.AddBatch([]*dataplane.FlowEntry{probe.Clone()})
		t0 := time.Now()
		table.Precompile()
		res.buildMS = append(res.buildMS, ms(time.Since(t0)))
		table.DeleteCookie(probe.Cookie)
	}

	// Allocations on the remote switch's batched path, warm and quiet.
	buf := make([]pkt.Packet, batchSize)
	inject := func(k int) {
		for i := 0; i < k; i++ {
			b := &tr.batches[i%len(tr.batches)]
			copy(buf, b.pkts)
			remote.InjectBatch(b.ingress, buf)
		}
	}
	const rounds = 512
	inject(rounds)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	inject(rounds)
	runtime.ReadMemStats(&m1)
	res.allocsPerPkt = float64(m1.Mallocs-m0.Mallocs) / float64(rounds*batchSize)
	return res
}
