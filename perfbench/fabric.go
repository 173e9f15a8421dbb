package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// batchSize is the packets per InjectBatch call.
const batchSize = 64

// flowPopulation is the number of distinct flows offered to the fabric:
// larger than the megaflow cache (16 shards × 4096), so both the cache
// hit and the engine miss paths carry traffic. Packets are drawn from it
// uniformly.
const flowPopulation = 96 * 1024

// hitFlows is the size of the flow subset the cache-hit microbenchmark
// replays; it fits in the cache. It does not shape the offered traffic.
const hitFlows = 8 * 1024

// traffic is a precomputed closed-loop packet stream: batches of
// VMAC-tagged minimum-size frames, each batch from one ingress port.
type traffic struct {
	batches []trafficBatch
	hot     []pkt.Packet // a cache-sized subset, for the cache-hit microbenchmark
	all     []pkt.Packet // every flow, for the engine-miss microbenchmark
}

type trafficBatch struct {
	ingress pkt.PortID
	pkts    []pkt.Packet
}

// genTraffic builds the flow population from the routes each participant
// reaches through a virtual next hop, skipping churned prefixes (their
// VNHs move while the phase runs).
func genTraffic(ex *exchange, churned []iputil.Prefix, rng *rand.Rand) (*traffic, error) {
	exclude := make(map[iputil.Prefix]bool, len(churned))
	for _, p := range churned {
		exclude[p] = true
	}
	routes := ex.vmacRoutes(exclude)
	sources := sortedASes(routes)
	if len(sources) == 0 {
		return nil, fmt.Errorf("no participant reaches a prefix through a virtual next hop")
	}
	dstPorts := []uint16{80, 443, 8080, 53, 22, 25}
	tr := &traffic{}
	var srcOf []uint32
	for len(tr.all) < flowPopulation {
		as := sources[rng.Intn(len(sources))]
		port := ex.in.x.Participant(as).Ports[0]
		r := routes[as][rng.Intn(len(routes[as]))]
		p := pkt.Packet{
			InPort:  port.ID,
			SrcMAC:  port.MAC(),
			DstMAC:  r.mac,
			EthType: pkt.EthTypeIPv4,
			SrcIP:   iputil.Addr(0x32000000 | rng.Uint32()&0xffffff),
			DstIP:   r.prefix.Addr() | iputil.Addr(rng.Intn(256)),
			Proto:   []uint8{pkt.ProtoTCP, pkt.ProtoUDP}[rng.Intn(2)],
			SrcPort: uint16(1024 + rng.Intn(4)),
			DstPort: dstPorts[rng.Intn(len(dstPorts))],
		}
		if rng.Intn(2) == 0 {
			p.SrcPort = uint16(32768 + rng.Intn(28000))
		}
		tr.all = append(tr.all, p)
		srcOf = append(srcOf, as)
	}
	tr.hot = tr.all[:hitFlows]
	// Each batch comes from one source port, its packets drawn uniformly
	// from that source's flows.
	bySource := make(map[uint32][]pkt.Packet)
	for i, p := range tr.all {
		bySource[srcOf[i]] = append(bySource[srcOf[i]], p)
	}
	for len(tr.batches) < 2*flowPopulation/batchSize {
		flows := bySource[sources[rng.Intn(len(sources))]]
		if len(flows) == 0 {
			continue
		}
		b := trafficBatch{pkts: make([]pkt.Packet, batchSize)}
		for i := range b.pkts {
			b.pkts[i] = flows[rng.Intn(len(flows))]
		}
		b.ingress = b.pkts[0].InPort
		tr.batches = append(tr.batches, b)
	}
	return tr, nil
}

// fwdWindow is how long one forwarding window lasts. The phase's rate
// and batch-time p99 are medians over its windows, so a window disturbed
// by a background Recompile or a neighbour on the host moves them less.
// Both are taken on the injecting thread's CPU clock: in a closed loop
// with one injector that is the forwarding time, minus the time the host
// gave to other processes.
const fwdWindow = 250 * time.Millisecond

// fwdResult is one forwarding phase's record.
type fwdResult struct {
	packets, delivered int64
	batches            int
	elapsed            time.Duration
	mpps, batchP99US   samples // one per full window
	hits, misses       uint64
	packetIns, builds  uint64
}

// forwarder runs the closed-loop injector on its own goroutine until
// stopped.
type forwarder struct {
	stop atomic.Bool
	done chan struct{}
	res  fwdResult
}

func startForwarder(sw *dataplane.Switch, tr *traffic) *forwarder {
	f := &forwarder{done: make(chan struct{})}
	st0 := sw.Table().Stats()
	pi0, b0 := sw.PacketIns(), sw.Table().EngineBuilds()
	go func() {
		defer close(f.done)
		// Batches are timed on this thread's CPU clock, so the goroutine
		// must stay on one thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]pkt.Packet, batchSize)
		var window samples
		var windowPkts int64
		var windowCPU time.Duration
		start := time.Now()
		winStart := start
		for i := 0; !f.stop.Load(); i++ {
			b := &tr.batches[i%len(tr.batches)]
			copy(buf, b.pkts)
			c0 := threadCPU()
			n := sw.InjectBatch(b.ingress, buf)
			c1 := threadCPU()
			window = append(window, us(c1-c0))
			windowPkts += int64(n)
			windowCPU += c1 - c0
			f.res.packets += int64(len(buf))
			f.res.delivered += int64(n)
			f.res.batches++
			if time.Since(winStart) >= fwdWindow {
				p99, _ := window.quantile(0.99)
				f.res.batchP99US = append(f.res.batchP99US, p99)
				f.res.mpps = append(f.res.mpps, float64(windowPkts)/windowCPU.Seconds()/1e6)
				window, windowPkts, windowCPU, winStart = window[:0], 0, 0, time.Now()
			}
		}
		f.res.elapsed = time.Since(start)
		st1 := sw.Table().Stats()
		f.res.hits, f.res.misses = st1.Hits-st0.Hits, st1.Misses-st0.Misses
		f.res.packetIns = sw.PacketIns() - pi0
		f.res.builds = sw.Table().EngineBuilds() - b0
	}()
	return f
}

// add folds another phase's record into this one.
func (r *fwdResult) add(o *fwdResult) {
	r.packets += o.packets
	r.delivered += o.delivered
	r.batches += o.batches
	r.elapsed += o.elapsed
	r.mpps = append(r.mpps, o.mpps...)
	r.batchP99US = append(r.batchP99US, o.batchP99US...)
	r.hits += o.hits
	r.misses += o.misses
	r.packetIns += o.packetIns
	r.builds += o.builds
}

func (f *forwarder) halt() *fwdResult {
	f.stop.Store(true)
	<-f.done
	return &f.res
}

// oracleSample is how many flows the forwarding oracle checks per phase.
const oracleSample = 512

// checkForwarding injects sampled flows one at a time into the quiescent
// remote fabric and checks each egresses exactly where the controller's
// table says it should, by the naive reference scan (LookupNaive). It
// returns how many packets the oracle expected delivered that were not.
func (ex *exchange) checkForwarding(tr *traffic, rng *rand.Rand) (checked, missing int, err error) {
	oracle := ex.ctrl.Switch().Table()
	ex.capture.on.Store(true)
	defer ex.capture.on.Store(false)
	ex.capture.take()
	for k := 0; k < oracleSample; k++ {
		p := tr.all[rng.Intn(len(tr.all))]
		e := oracle.LookupNaive(p)
		if e == nil {
			continue // a table miss goes to the controller, not to a port
		}
		var want []pkt.Packet
		for _, a := range e.Actions {
			if q, ok := a.Apply(p); ok {
				want = append(want, q)
			}
		}
		ex.remote.Inject(p.InPort, p)
		got := ex.capture.take()
		checked++
		if len(got) < len(want) {
			missing += len(want) - len(got)
		}
		for i := range got {
			if i >= len(want) || got[i].InPort != want[i].InPort || got[i].DstMAC != want[i].DstMAC {
				return checked, missing, fmt.Errorf("flow %v from port %d: fabric delivered %v, oracle says %v", p.DstIP, p.InPort, got, want)
			}
		}
	}
	return checked, missing, nil
}

// timedSink wraps the fabric mirror to time each push and remember when
// each fast VMAC's FlowMod went out (traced runs only).
type timedSink struct {
	inner core.RuleSink
	on    atomic.Bool // when off, the wrapper only forwards

	mu     sync.Mutex
	pushUS samples
	rules  int64
	at     map[pkt.MAC]time.Time
}

func newTimedSink(inner core.RuleSink) *timedSink {
	return &timedSink{inner: inner, at: make(map[pkt.MAC]time.Time)}
}

func (s *timedSink) AddBatch(entries []*dataplane.FlowEntry) {
	if !s.on.Load() {
		s.inner.AddBatch(entries)
		return
	}
	t0 := time.Now()
	s.inner.AddBatch(entries)
	t1 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushUS = append(s.pushUS, us(t1.Sub(t0)))
	s.rules += int64(len(entries))
	for _, e := range entries {
		if mac, ok := e.Match.GetDstMAC(); ok && core.IsVMAC(mac) {
			s.at[mac] = t1
		}
	}
}

func (s *timedSink) Replace(cookie uint64, entries []*dataplane.FlowEntry) {
	s.inner.Replace(cookie, entries)
	if !s.on.Load() {
		return
	}
	s.mu.Lock()
	s.rules += int64(len(entries))
	s.mu.Unlock()
}

func (s *timedSink) DeleteCookie(cookie uint64) { s.inner.DeleteCookie(cookie) }

// FlushAll forwards the flush, so a resync through the wrapper still
// starts from an empty remote table.
func (s *timedSink) FlushAll() {
	if f, ok := s.inner.(core.RuleFlusher); ok {
		f.FlushAll()
	}
}

func (s *timedSink) pushedAt(mac pkt.MAC) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.at[mac]
	return t, ok
}

// counts returns the push samples and rules pushed since the last call.
func (s *timedSink) counts() (samples, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, n := s.pushUS, s.rules
	s.pushUS, s.rules = nil, 0
	return out, n
}
