package rs_test

import (
	"runtime"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/rs"
	"sdx/internal/workload"
)

// BenchmarkServerLoad loads a synthesized exchange of 1000 participants
// and 2000 prefixes (the workload package's skewed announcement mix, ~30%
// of prefixes co-announced) into a fresh route server through Apply, one
// table transfer per participant in 500-prefix UPDATEs like
// workload.Load. It reports the load time and the live heap the loaded
// server holds, both per announced (prefix, participant) route.
func BenchmarkServerLoad(b *testing.B) {
	x := workload.NewIXP(workload.DefaultTopology(1000, 2000, 1))
	tables := make([][]rs.PeerUpdate, len(x.Participants))
	routes := 0
	for i := range x.Participants {
		wp := &x.Participants[i]
		for start := 0; start < len(wp.Prefixes); start += 500 {
			end := min(start+500, len(wp.Prefixes))
			tables[i] = append(tables[i], rs.PeerUpdate{From: wp.AS, Update: &bgp.Update{
				Attrs: &bgp.PathAttrs{ASPath: []uint32{wp.AS, 900 + uint32(i%7)}, NextHop: wp.Ports[0].IP()},
				NLRI:  wp.Prefixes[start:end],
			}})
			routes += end - start
		}
	}

	var elapsed time.Duration
	var heapB float64
	for n := 0; n < b.N; n++ {
		heap0 := liveHeap()
		srv := rs.New()
		for i := range x.Participants {
			wp := &x.Participants[i]
			if err := srv.AddParticipant(rs.ParticipantConfig{AS: wp.AS, RouterID: wp.Ports[0].IP()}); err != nil {
				b.Fatal(err)
			}
		}
		start := time.Now()
		for _, t := range tables {
			if len(t) > 0 {
				srv.Apply(t)
			}
		}
		elapsed += time.Since(start)
		heapB = float64(int64(liveHeap())-int64(heap0)) / float64(routes)
		runtime.KeepAlive(srv)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*routes), "ns/prefix")
	b.ReportMetric(heapB, "heapB/prefix")
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
