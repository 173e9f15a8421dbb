// Command perfbench measures how long a BGP UPDATE takes to become
// forwarding state on an SDX fabric, how many UPDATEs per second the
// controller keeps up with, and how fast the fabric forwards, over real
// loopback sockets.
//
// One run assembles the exchange the way sdxd does (controller, BGP
// listener with the coalescing ingestion queue, the 5 s background
// optimizer, a remote fabric switch programmed over the OpenFlow
// channel), then drives it with open-loop UPDATE churn from real BGP
// sessions and closed-loop traffic into the fabric:
//
//	perfbench --workload policy_churn --seed 1 --seconds 40 --trace 0
//
// It prints every metric with its unit and sample count, checks the
// exchange's outputs, and ends with one JSON line. --trace 1 adds the
// per-layer measurements. See NOTES.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sdx"
	"sdx/internal/bgp"
	"sdx/internal/iputil"
)

// spec is one workload's fixed parameters.
type spec struct {
	Name         string `json:"name"`
	Participants int    `json:"participants"`
	Prefixes     int    `json:"prefixes"`
	Groups       int    `json:"groups"` // 0: the full §6.1 policy mix
	// PlainChurn churns prefixes in no group in the base and peak phases
	// (no fast path); otherwise they churn grouped prefixes.
	PlainChurn   bool    `json:"plain_churn"`
	BaseRate     float64 `json:"base_rate_ups"`
	PeakRate     float64 `json:"peak_rate_ups"`
	FwdChurnRate float64 `json:"fwd_churn_rate_ups"` // UPDATEs beside forwarding
	// Shares of --seconds given to the base, peak and forwarding phases.
	BaseShare float64 `json:"base_share"`
	PeakShare float64 `json:"peak_share"`
	FwdShare  float64 `json:"fwd_share"`
	Setups    int     `json:"setups"`
}

var specs = []spec{
	// The fast path: every UPDATE re-announces a grouped prefix, so it
	// costs a fast compile, a fast-band FlowMod push and a barrier, with
	// the optimizer's lock-holding Recompile beside it.
	// experiments.NewGroupedExchange(100, 300).
	{Name: "policy_churn", Participants: 100, Prefixes: 1000, Groups: 300,
		BaseRate: 150, PeakRate: 300,
		BaseShare: 0.5, PeakShare: 0.3, FwdShare: 0.2, Setups: 5},
	// The route server: ungrouped prefixes skip the fast path, so the
	// cost is BGP decode, the queue and a decision for 500 viewers.
	{Name: "route_churn", Participants: 500, Prefixes: 5000, PlainChurn: true,
		BaseRate: 200, PeakRate: 400,
		BaseShare: 0.5, PeakShare: 0.3, FwdShare: 0.2, Setups: 3},
	// The dataplane: the paper's §6 working point (~7k rules) forwarding
	// VMAC-tagged traffic while fast-band writes land beside it at a low
	// rate. A fast-path UPDATE costs ~8 ms of CPU on this exchange, so the
	// base and peak phases churn plain prefixes and keep the control
	// plane light. experiments.NewGroupedExchange(300, 600).
	{Name: "fabric_traffic", Participants: 300, Prefixes: 1200, Groups: 600, PlainChurn: true,
		BaseRate: 200, PeakRate: 300, FwdChurnRate: 20,
		BaseShare: 0.5, PeakShare: 0.25, FwdShare: 0.25, Setups: 3},
}

// exchangeSeed generates every workload's exchange (members, prefixes,
// policies): the exchange is part of the workload, and --seed varies the
// load on it (churn sequence, flows, oracle samples). Across exchange
// seeds the rule count alone moves every metric by more than its bound.
const exchangeSeed = 1

// maxLate is how far behind schedule the open-loop generator may fall
// before the run is marked invalid: half a second behind, it no longer
// offers the phase's rate. Background Recompiles hold both CPUs for up
// to a few seconds, which delays it by tens of milliseconds.
const maxLate = 500 * time.Millisecond

func main() {
	name := flag.String("workload", "policy_churn", "workload: policy_churn, route_churn or fabric_traffic")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 40, "measured seconds, split across the phases")
	trace := flag.Int("trace", 0, "1 adds the per-layer measurements")
	flag.Parse()

	var w spec
	for _, s := range specs {
		if s.Name == *name {
			w = s
		}
	}
	if w.Name == "" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	out, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name the metrics of the final line, without and
// with --trace. The report prints more (p99s, failed_frac); endToEnd
// keeps the ones steady enough to gate on (see NOTES.md).
var endToEnd = []string{
	"setup_s", "setup_heap_mb", "converge_p50_ms", "converge_p50_ms.peak", "fwd_mpps",
}

var perLayer = []string{
	"bgp.decode_ns_per_update",
	"ingest.coalesce_ratio", "ingest.batch_mean", "ingest.depth_max", "ingest.blocked",
	"rs.decide_us_per_prefix", "core.events_per_update", "rs.load_us_per_prefix", "rs.heap_b_per_prefix",
	"core.apply_us_per_update", "core.fast_compiles", "core.fast_compile_share",
	"core.full_compile_ms.p50", "core.full_compile_ms.max", "core.full_compiles",
	"openflow.push_us_per_batch", "openflow.rules_pushed", "openflow.barrier_rtt_us", "openflow.resync_ms",
	"dataplane.hit_ns_per_pkt", "dataplane.miss_ns_per_pkt", "dataplane.hit_rate", "dataplane.packet_ins",
	"dataplane.engine_build_ms", "dataplane.engine_builds", "dataplane.allocs_per_pkt",
	"span.due_to_advert_ms.p50", "span.due_to_advert_ms.p99",
	"span.due_to_push_ms.p50", "span.due_to_push_ms.p99",
	"span.advert_to_recv_ms.p50", "span.advert_to_recv_ms.p99",
	"span.recv_to_ack_ms.p50", "span.recv_to_ack_ms.p99",
	"trace.overhead_pct", "gen.late_ms_max", "max_rate_ups",
}

// bench is one run in progress.
type bench struct {
	w      spec
	traced bool
	ex     *exchange
	// grouped holds the announcer's sole prefixes in a compiled group
	// (their UPDATEs take the fast path), plain the rest (they do not);
	// churned is both.
	grouped, plain, churned []iputil.Prefix
	rng                     *rand.Rand
	tag                     uint32 // next MED tag

	compileMS samples // every timed full Recompile after setup
	lateMax   time.Duration
	attempted int
	failed    int
	rep       report
}

func run(w spec, seed int64, d time.Duration, traced bool) (*result, error) {
	host := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"os": runtime.GOOS, "arch": runtime.GOARCH,
	}
	hb, _ := json.Marshal(host)
	pb, _ := json.Marshal(w)
	fmt.Printf("host %s\n", hb)
	fmt.Printf("params %s exchange_seed=%d seed=%d seconds=%.1f trace=%v\n", pb, exchangeSeed, seed, d.Seconds(), traced)

	in, err := genInputs(w)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, traced: traced, rng: rand.New(rand.NewSource(seed + 1)), tag: 1}
	var setupS, heapMB, resyncMS samples
	for k := 0; k < w.Setups; k++ {
		ex, res, err := setup(in, traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, res.elapsed.Seconds())
		heapMB = append(heapMB, res.heapMB)
		resyncMS = append(resyncMS, ms(res.resync))
		b.compileMS = append(b.compileMS, ms(res.compile))
		if k < w.Setups-1 {
			ex.close()
			continue
		}
		b.ex = ex
	}
	defer b.ex.close()
	fmt.Printf("exchange participants=%d announcer=AS%d observer=AS%d groups=%d rules=%d\n",
		len(in.x.Participants), in.announcer, in.observer, len(b.ex.ctrl.Compiled().Groups),
		b.ex.ctrl.Switch().Table().Len())

	groupIdx := b.ex.ctrl.Compiled().GroupIdx
	for _, p := range in.sole {
		if _, ok := groupIdx[p]; ok {
			b.grouped = append(b.grouped, p)
		} else {
			b.plain = append(b.plain, p)
		}
	}
	b.churned = in.sole
	fmt.Printf("churn pools: %d grouped, %d plain prefixes\n", len(b.grouped), len(b.plain))

	b.rep.add("setup_s", setupS.median(), "s", len(setupS))
	b.rep.add("setup_heap_mb", heapMB.median(), "MB", len(heapMB))
	if err := b.phases(d, resyncMS); err != nil {
		return nil, err
	}

	b.rep.add("failed_frac", float64(b.failed)/float64(b.attempted), "ratio", b.attempted)
	b.rep.add("gen.late_ms_max", ms(b.lateMax), "ms", 1)
	valid := b.lateMax <= maxLate
	fmt.Printf("open-loop valid=%v (generator at most %v late, limit %v)\n", valid, b.lateMax, maxLate)
	b.rep.print(os.Stdout)

	names := endToEnd
	if traced {
		names = perLayer
	}
	out := &result{Correct: valid, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		m, ok := b.rep.get(n)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return out, nil
}

// quiesce folds pending fast-band rules with a Recompile, so every phase
// starts from the same optimized tables, and waits for the fabric. It
// then collects the garbage the previous phase and the Recompile left,
// so no phase pays for its predecessor's allocations. Churn that took no
// fast path leaves the tables as they were; the optimizer folds it.
func (b *bench) quiesce() error {
	if b.ex.ctrl.FastRules() > 0 {
		t := time.Now()
		b.ex.ctrl.Recompile()
		b.compileMS = append(b.compileMS, ms(time.Since(t)))
	}
	if err := b.ex.of.Barrier(); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

// phase is one measured interval: open-loop churn of a prefix pool at a
// rate, optionally with the closed-loop forwarder running beside it.
type phase struct {
	name    string
	pool    []iputil.Prefix
	rate    float64
	d       time.Duration
	traced  bool
	traffic *traffic
	// firstTick is when the optimizer first ticks in the phase (then
	// every optimizeInterval); 0 means after optimizeInterval.
	firstTick time.Duration
	// probe marks a ladder rung: run past the knee on purpose, so its
	// UPDATEs do not count as the run's operations.
	probe bool
}

type phaseResult struct {
	churn *churnResult
	fwd   *fwdResult
	// Registry and queue state around the phase.
	snap0, snap1 sdx.Snapshot
	q0, q1       sdx.QueueStats
}

func (r *phaseResult) delta(counter string) int64 {
	return r.snap1.Counters[counter] - r.snap0.Counters[counter]
}

// histSum is the exact sum a histogram gained during the phase (its
// buckets are never read).
func (r *phaseResult) histSum(name string) int64 {
	return r.snap1.Histograms[name].Sum - r.snap0.Histograms[name].Sum
}

// rounded is one phase's results over the rounds of a run.
type rounded []*phaseResult

// converge pools the rounds' convergence samples.
func (rs rounded) converge() samples {
	var s samples
	for _, r := range rs {
		s = append(s, r.churn.converge...)
	}
	return s
}

// p50s is each round's p50.
func (rs rounded) p50s() samples {
	var s samples
	for _, r := range rs {
		s = append(s, r.churn.converge.median())
	}
	return s
}

func (rs rounded) delta(counter string) int64 {
	var n int64
	for _, r := range rs {
		n += r.delta(counter)
	}
	return n
}

func (rs rounded) histSum(name string) int64 {
	var n int64
	for _, r := range rs {
		n += r.histSum(name)
	}
	return n
}

func (b *bench) runPhase(p phase) (*phaseResult, error) {
	ex := b.ex
	if p.rate > 0 && len(p.pool) < 8 {
		return nil, fmt.Errorf("%s: churn pool has only %d prefixes", p.name, len(p.pool))
	}
	if err := b.quiesce(); err != nil {
		return nil, err
	}
	if ex.timed != nil {
		ex.timed.on.Store(p.traced)
	}
	reg := ex.ctrl.Metrics()
	res := &phaseResult{snap0: reg.Snapshot(), q0: ex.queue.Stats()}
	first := p.firstTick
	if first == 0 {
		first = optimizeInterval
	}
	opt := startOptimizer(ex.ctrl, first, func(d time.Duration) { b.compileMS = append(b.compileMS, ms(d)) })
	var fwd *forwarder
	if p.traffic != nil {
		fwd = startForwarder(ex.remote, p.traffic)
	}
	var err error
	if p.rate > 0 {
		res.churn, err = ex.churn(p.pool, p.rate, p.d, b.rng, b.tag, p.traced)
		b.tag += uint32(p.rate * p.d.Seconds())
	} else {
		time.Sleep(p.d)
	}
	if fwd != nil {
		res.fwd = fwd.halt()
	}
	opt.halt()
	res.snap1, res.q1 = reg.Snapshot(), ex.queue.Stats()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	if err := b.check(p.name); err != nil {
		return nil, err
	}
	if c := res.churn; c != nil {
		if !p.probe {
			b.attempted += c.attempted
			b.failed += c.failed
			b.lateMax = max(b.lateMax, c.lateMax)
		}
		fmt.Printf("phase %s: %d UPDATEs at %.0f/s, %d converged, %d failed, generator %v late at most\n",
			p.name, c.attempted, p.rate, len(c.converge), c.failed, c.lateMax)
	}
	if f := res.fwd; f != nil {
		fmt.Printf("phase %s: %d packets in %d batches injected, %d delivered in %v, %d windows of %v\n",
			p.name, f.packets, f.batches, f.delivered, f.elapsed, len(f.mpps), fwdWindow)
	}
	return res, nil
}

// check runs the quiescent correctness checks after a phase.
func (b *bench) check(phase string) error {
	ex := b.ex
	if err := ex.of.Barrier(); err != nil {
		return err
	}
	for name, err := range map[string]error{
		"sessions":             ex.sessionsUp(),
		"remote table":         ex.tablesEqual(),
		"observer FIB":         ex.observerConverged(b.churned),
		"route server UPDATEs": ex.checkUpdatesIn(),
	} {
		if err != nil {
			return fmt.Errorf("after %s, %s check failed: %w", phase, name, err)
		}
	}
	fmt.Printf("checks after %s: remote table equal, observer FIB equal, bgp.updates_in=%d equal, sessions up\n",
		phase, ex.sent)
	return nil
}

// rounds is how many times a run forwards, then churns at the base
// rate, then at the peak rate, so each measurement is spread over the
// whole run. A p50 is the best round's, the lowest: the host's other
// tenants only ever slow a round down, by up to a third in a busy
// stretch of a shared host, and such stretches come and go within a
// run; the best round is the one they disturbed least. Every round's
// p50 is printed. The p99s pool the rounds' samples. The forwarding
// rate, timed on the CPU clock, is the median over every round's
// windows: its windows scatter by ~10% even on a quiet host, so the
// best of them would pick noise.
const rounds = 5

// stallTail is how long before a base phase ends the optimizer ticks;
// it is shorter than any full Recompile of the workloads' exchanges.
const stallTail = 100 * time.Millisecond

// phases runs the churn and forwarding phases and records their metrics
// (and, traced, the per-layer ones).
func (b *bench) phases(d time.Duration, resyncMS samples) error {
	w, ex := b.w, b.ex
	pool := b.grouped
	if w.PlainChurn {
		pool = b.plain
	}
	dur := func(share float64) time.Duration { return time.Duration(share * float64(d) / rounds) }
	// Every base phase sees one background Recompile: the optimizer's
	// first tick falls stallTail before the phase ends. The UPDATEs that
	// wait for it are those due in that tail, however long it takes, so a
	// Recompile the host slows down delays them more but not more of
	// them. A peak phase is shorter than the interval and sees none.
	base := phase{name: "base", pool: pool, rate: w.BaseRate, d: dur(w.BaseShare)}
	base.firstTick = max(base.d-stallTail, base.d/2)
	peak := phase{name: "peak", pool: pool, rate: w.PeakRate, d: dur(w.PeakShare), traced: b.traced}

	tr, err := genTraffic(ex, b.churned, b.rng)
	if err != nil {
		return err
	}
	f := &fwdResult{}
	var fwdConverge samples
	forward := func(k int) error {
		r, err := b.runPhase(phase{name: fmt.Sprintf("forward%d", k), pool: b.grouped, rate: w.FwdChurnRate,
			d: dur(w.FwdShare), traced: b.traced, traffic: tr})
		if err != nil {
			return err
		}
		f.add(r.fwd)
		if r.churn != nil {
			fwdConverge = append(fwdConverge, r.churn.converge...)
		}
		return nil
	}

	var untracedP50 float64
	if b.traced {
		// The overhead reference: a base phase with tracing off.
		r, err := b.runPhase(base)
		if err != nil {
			return err
		}
		untracedP50 = r.churn.converge.median()
		base.traced = true
	}
	var rb, rp rounded
	for k := 1; k <= rounds; k++ {
		if err := forward(k); err != nil {
			return err
		}
		base.name, peak.name = fmt.Sprintf("base%d", k), fmt.Sprintf("peak%d", k)
		r, err := b.runPhase(base)
		if err != nil {
			return err
		}
		rb = append(rb, r)
		if r, err = b.runPhase(peak); err != nil {
			return err
		}
		rp = append(rp, r)
	}
	fmt.Printf("rounds: converge_p50_ms %.4f\n", rb.p50s())
	fmt.Printf("rounds: converge_p50_ms.peak %.4f\n", rp.p50s())
	baseConv, peakConv := rb.converge(), rp.converge()
	b.rep.add("converge_p50_ms", rb.p50s().min(), "ms", len(baseConv))
	b.rep.addQuantile("converge_p99_ms", baseConv, 0.99, "ms")
	b.rep.add("converge_p50_ms.peak", rp.p50s().min(), "ms", len(peakConv))
	b.rep.addQuantile("converge_p99_ms.peak", peakConv, 0.99, "ms")
	b.rep.add("fwd_mpps", f.mpps.median(), "Mpps", len(f.mpps))
	b.rep.add("fwd_batch_p99_us", f.batchP99US.median(), "us", len(f.batchP99US))
	fmt.Printf("fabric cache: %.4f hit rate over %d lookups, %d packet-ins\n",
		float64(f.hits)/float64(max(f.hits+f.misses, 1)), f.hits+f.misses, f.packetIns)
	if len(fwdConverge) > 0 {
		b.rep.addQuantile("converge_p50_ms.fwd", fwdConverge, 0.5, "ms")
	}
	checked, missing, err := ex.checkForwarding(tr, b.rng)
	if err != nil {
		return err
	}
	b.attempted += checked
	b.failed += missing
	fmt.Printf("forwarding oracle: %d sampled flows checked against LookupNaive, %d expected packets missing\n", checked, missing)

	// Isolation: grouped churn takes the fast path on (nearly) every
	// applied UPDATE; plain churn never does.
	both := append(append(rounded(nil), rb...), rp...)
	applied := both.delta("controller.updates_in")
	fast := both.delta("controller.fast_compiles")
	share := float64(fast) / float64(max(applied, 1))
	switch {
	case !w.PlainChurn && share < 0.95:
		return fmt.Errorf("only %d of %d applied UPDATEs took the fast path", fast, applied)
	case w.PlainChurn && fast != 0:
		return fmt.Errorf("%d fast compiles during plain churn", fast)
	}
	fmt.Printf("isolation: %d fast compiles over %d applied UPDATEs in the base and peak phases\n", fast, applied)
	if !b.traced {
		return nil
	}

	// Per-layer metrics.
	rep := &b.rep
	var sent []*bgp.Update
	var depthMax int
	for _, r := range both {
		sent = append(sent, r.churn.sent...)
		depthMax = max(depthMax, r.churn.depthMax)
	}
	dec, n, err := decodeNS(sent)
	if err != nil {
		return err
	}
	rep.add("bgp.decode_ns_per_update", dec, "ns", n)
	var enq, appl, drains int64
	for _, r := range both {
		enq += r.q1.Enqueued - r.q0.Enqueued
		appl += r.q1.Applied - r.q0.Applied
		drains += r.q1.Drains - r.q0.Drains
	}
	rep.add("ingest.coalesce_ratio", float64(enq)/float64(max(appl, 1)), "ratio", int(enq))
	rep.add("ingest.batch_mean", float64(appl)/float64(max(drains, 1)), "count", int(drains))
	rep.add("ingest.depth_max", float64(depthMax), "count", 1)
	rep.add("ingest.blocked", float64(both.delta("ingest.blocked")), "count", 1)

	twin := rsTwin(ex.in, sent)
	rep.add("rs.decide_us_per_prefix", twin.decideUS, "us", twin.decisions)
	rep.add("core.events_per_update", float64(both.delta("controller.update_events"))/float64(max(applied, 1)), "ratio", int(applied))
	rep.add("rs.load_us_per_prefix", twin.loadUS, "us", twin.prefixes)
	rep.add("rs.heap_b_per_prefix", twin.heapB, "B", twin.prefixes)

	updNS := both.histSum("controller.update_ns")
	rep.add("core.apply_us_per_update", float64(updNS)/1e3/float64(max(applied, 1)), "us", int(applied))
	rep.add("core.fast_compiles", float64(fast), "count", 1)
	rep.add("core.fast_compile_share", share, "ratio", int(applied))
	rep.addQuantile("core.full_compile_ms.p50", b.compileMS, 0.5, "ms")
	rep.add("core.full_compile_ms.max", b.compileMS.max(), "ms", len(b.compileMS))
	rep.add("core.full_compiles", float64(both.delta("controller.full_compiles")), "count", 1)

	push, rules := ex.timed.counts()
	rep.add("openflow.push_us_per_batch", push.sum()/float64(max(len(push), 1)), "us", len(push))
	rep.add("openflow.rules_pushed", float64(rules), "count", 1)
	var barrier samples
	for _, r := range rb {
		barrier = append(barrier, r.churn.barrier...)
	}
	rep.addQuantile("openflow.barrier_rtt_us", barrier, 0.5, "us")
	rep.add("openflow.resync_ms", resyncMS.median(), "ms", len(resyncMS))

	dp := dataplaneMicro(ex.remote, tr)
	rep.add("dataplane.hit_ns_per_pkt", dp.hitNS, "ns", 1)
	rep.add("dataplane.miss_ns_per_pkt", dp.missNS, "ns", 1)
	rep.add("dataplane.hit_rate", float64(f.hits)/float64(max(f.hits+f.misses, 1)), "ratio", int(f.hits+f.misses))
	rep.add("dataplane.packet_ins", float64(f.packetIns), "count", 1)
	rep.add("dataplane.engine_build_ms", dp.buildMS.median(), "ms", len(dp.buildMS))
	rep.add("dataplane.engine_builds", float64(f.builds), "count", 1)
	rep.add("dataplane.allocs_per_pkt", dp.allocsPerPkt, "count", 1)

	for _, s := range []string{"span.due_to_advert_ms", "span.due_to_push_ms", "span.advert_to_recv_ms", "span.recv_to_ack_ms"} {
		var sp samples
		for _, r := range rb {
			sp = append(sp, r.churn.spans[s]...)
		}
		rep.addQuantile(s+".p50", sp, 0.5, "ms")
		rep.addQuantile(s+".p99", sp, 0.99, "ms")
	}
	if untracedP50 <= 0 {
		return errors.New("no untraced convergence to compare the traced run with")
	}
	rep.add("trace.overhead_pct", 100*(rb[0].churn.converge.median()/untracedP50-1), "%", 2)

	rate, rungs, err := b.ladder(pool)
	if err != nil {
		return err
	}
	rep.add("max_rate_ups", rate, "1/s", rungs)
	return nil
}

// Rate ladder: offered rates rise by ladderStep per rung from the peak
// rate; a rung passes when converge_p99_ms stays within the paper's
// "sub-second" and no UPDATE is still unconverged one timeout after it.
// Each rung offers ladderSamples UPDATEs, so its p99 has 10 beyond it.
const (
	ladderStep    = 1.25
	ladderSamples = 1000
	maxRungs      = 16
	subSecond     = 1000 // ms
)

// ladder returns the highest passing rung's rate and how many rungs ran
// (maxRungs when even the last passed). Each rung starts quiesced with a
// fresh optimizer ticker and lasts under 5 s, so no background Recompile
// lands in it: this is the controller's capacity between optimizer
// passes.
func (b *bench) ladder(pool []iputil.Prefix) (float64, int, error) {
	best, rate := 0.0, b.w.PeakRate
	for rung := 1; rung <= maxRungs; rung++ {
		d := time.Duration(ladderSamples / rate * float64(time.Second))
		r, err := b.runPhase(phase{name: fmt.Sprintf("rung%d", rung), pool: pool, rate: rate, d: d, probe: true})
		if err != nil {
			return 0, rung, err
		}
		p99, _ := r.churn.converge.quantile(0.99)
		if r.churn.failed > 0 || p99 > subSecond || r.churn.lateMax > maxLate {
			return best, rung, nil
		}
		best = rate
		rate *= ladderStep
	}
	return best, maxRungs, nil
}
