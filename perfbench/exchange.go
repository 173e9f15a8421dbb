package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdx"
	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
	"sdx/internal/workload"
)

// routeServerAS is the exchange's own (private) AS, as in sdxd.
const routeServerAS = 64512

// maxTwoOctetAS is the largest AS the two-octet BGP codec can encode.
// Topologies past it make the route server's initial table transfer fail
// to marshal and tear the session down (see NOTES.md), so inputs that
// would cross it are refused up front.
const maxTwoOctetAS = 65535

// inputs is the exchange a workload runs on, generated from the
// workload's exchange seed before any clock starts.
type inputs struct {
	w        spec
	x        *workload.IXP
	policies map[uint32]*workload.Policies
	// table holds each participant's announcements, in 500-prefix
	// UPDATEs sharing one attribute vector, as a table transfer sends them.
	table map[uint32][]*bgp.Update
	// announcer originates the churn; observer watches it arrive. Both
	// are BGP session members; every other participant is loaded through
	// Controller.ApplyBatch.
	announcer, observer uint32
	// sole lists the prefixes the announcer alone announces.
	sole []iputil.Prefix
}

func genInputs(w spec) (*inputs, error) {
	seed := int64(exchangeSeed)
	x := workload.NewIXP(workload.DefaultTopology(w.Participants, w.Prefixes, seed))
	for i := range x.Participants {
		if as := x.Participants[i].AS; as > maxTwoOctetAS {
			return nil, fmt.Errorf("participant AS%d does not fit the two-octet BGP codec; use at most %d participants",
				as, maxTwoOctetAS-65000+1)
		}
	}
	in := &inputs{w: w, x: x, table: make(map[uint32][]*bgp.Update)}

	// The table is what workload.Load feeds the route server, drawn from
	// the exchange's generator in the same order, so a grouped workload's
	// exchange is experiments.NewGroupedExchange's (bench_test.go checks).
	rng := rand.New(rand.NewSource(x.Rand().Int63()))
	announcers := make(map[iputil.Prefix]int)
	for i := range x.Participants {
		wp := &x.Participants[i]
		for _, p := range wp.Prefixes {
			announcers[p]++
		}
		const batch = 500
		for start := 0; start < len(wp.Prefixes); start += batch {
			end := min(start+batch, len(wp.Prefixes))
			path := []uint32{wp.AS}
			for h := 0; h < rng.Intn(3); h++ {
				path = append(path, uint32(900+rng.Intn(100)))
			}
			in.table[wp.AS] = append(in.table[wp.AS], &bgp.Update{
				Attrs: &bgp.PathAttrs{ASPath: path, NextHop: wp.Ports[0].IP()},
				NLRI:  wp.Prefixes[start:end],
			})
		}
	}
	if w.Groups > 0 {
		in.policies = groupedPolicies(x, w.Participants, w.Groups, seed)
	} else {
		in.policies = workload.AssignPolicies(x, workload.DefaultPolicyMix(seed))
	}

	// An outbound term without a destination prefix puts every prefix of
	// its target in a group; one with a destination pins that prefix.
	// Inbound terms group their owner's prefixes.
	wholesale := make(map[uint32]bool)
	pinned := make(map[iputil.Prefix]bool)
	for as, p := range in.policies {
		if len(p.In) > 0 {
			wholesale[as] = true
		}
		for _, t := range p.Out {
			if q, ok := t.Match.GetDstIP(); ok {
				pinned[q] = true
			} else {
				wholesale[t.Action.ToParticipant] = true
			}
		}
	}
	// The announcer is the participant with the most churnable prefixes
	// among those it alone announces: pinned ones, whose UPDATEs take the
	// fast path, and plain ones, whose UPDATEs do not. Which prefixes are
	// grouped is read from the compiled exchange after setup; this only
	// picks a participant likely to have enough of the kinds it needs.
	best, most := -1, 0
	for i := range x.Participants {
		wp := &x.Participants[i]
		var sole []iputil.Prefix
		nPinned, nPlain := 0, 0
		for _, p := range wp.Prefixes {
			if announcers[p] != 1 {
				continue
			}
			sole = append(sole, p)
			if pinned[p] {
				nPinned++
			} else if !wholesale[wp.AS] {
				nPlain++
			}
		}
		n := nPinned
		switch {
		case w.PlainChurn && w.FwdChurnRate > 0:
			n = min(nPinned, nPlain)
		case w.PlainChurn:
			n = nPlain
		}
		if n > most {
			best, most, in.sole = i, n, sole
		}
	}
	if best < 0 || most < 8 {
		return nil, errors.New("no participant has enough churnable prefixes")
	}
	in.announcer = x.Participants[best].AS
	// The observer is the largest other announcer, so its session carries
	// a real table transfer during setup.
	for i := range x.Participants {
		wp := &x.Participants[i]
		if wp.AS == in.announcer {
			continue
		}
		if in.observer == 0 || len(wp.Prefixes) > len(x.Participant(in.observer).Prefixes) {
			in.observer = wp.AS
		}
	}
	return in, nil
}

// groupedPolicies is the policy set of experiments.NewGroupedExchange:
// the §6.1 inbound mix plus exactly `groups` single-prefix outbound terms,
// each pinned to a distinct announced prefix and steering web traffic to
// its announcer from several of the top announcers. It is a copy of that
// builder, which is not exported; call it after the table is drawn, so it
// takes the same numbers from the exchange's generator.
func groupedPolicies(x *workload.IXP, participants, groups int, seed int64) map[uint32]*workload.Policies {
	pols := workload.AssignPolicies(x, workload.DefaultPolicyMix(seed))
	for _, p := range pols {
		p.Out = nil
	}
	rng := x.Rand()
	announcedBy := make(map[iputil.Prefix]uint32)
	for i := range x.Participants {
		for _, q := range x.Participants[i].Prefixes {
			announcedBy[q] = x.Participants[i].AS
		}
	}
	all := append([]iputil.Prefix(nil), x.Prefixes...)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	senders := x.TopAnnouncers()
	perPrefix := max(participants/50, 1)
	added, cursor := 0, 0
	for _, q := range all {
		if added >= groups {
			break
		}
		owner := announcedBy[q]
		if owner == 0 {
			continue
		}
		installed := 0
		for k := 0; k < len(senders) && installed < perPrefix; k++ {
			sender := senders[cursor%len(senders)]
			cursor++
			if sender.AS == owner {
				continue
			}
			p := pols[sender.AS]
			if p == nil {
				p = &workload.Policies{}
				pols[sender.AS] = p
			}
			m := pkt.MatchAll.DstIP(q).DstPort([]uint16{80, 443}[added%2])
			p.Out = append(p.Out, core.Fwd(m, owner))
			installed++
		}
		if installed > 0 {
			added++
		}
	}
	return pols
}

// exchange is one assembled SDX, wired the way sdxd and the full-system
// test wire it: a controller behind a BGP listener with the coalescing
// ingestion queue, programming a remote fabric switch over the OpenFlow
// channel, with the announcer and observer routers on real BGP sessions.
type exchange struct {
	in     *inputs
	ctrl   *sdx.Controller
	queue  *sdx.UpdateQueue
	srv    *sdx.BGPServer
	remote *dataplane.Switch
	ofLn   net.Listener
	of     *openflow.Client
	timed  *timedSink    // the mirror's timing wrapper, in traced runs
	agent  chan struct{} // closed when the switch agent has exited

	announcer, observer *router
	capture             capture

	// sent counts UPDATEs the routers sent over BGP; the route server's
	// bgp.updates_in must match it.
	sent int64
}

// router is a participant border router on a real BGP session. Its FIB
// is what the route server advertised to it.
type router struct {
	as   uint32
	port core.PhysicalPort
	sess *bgp.Session
	down atomic.Bool

	mu  sync.Mutex
	fib map[iputil.Prefix]bgp.PathAttrs
	// onUpdate, when set, sees every received UPDATE after the FIB is
	// updated (the convergence tracker's receipt hook).
	onUpdate func(u *bgp.Update, at time.Time)
}

func dialRouter(addr string, as uint32, port core.PhysicalPort) (*router, error) {
	r := &router{as: as, port: port, fib: make(map[iputil.Prefix]bgp.PathAttrs)}
	sess, err := sdx.DialBGP(addr, bgp.SessionConfig{
		LocalAS:  as,
		RouterID: port.IP(),
		OnUpdate: r.receive,
		OnDown:   func(*bgp.Session, error) { r.down.Store(true) },
	})
	if err != nil {
		return nil, err
	}
	r.sess = sess
	return r, nil
}

func (r *router) receive(_ *bgp.Session, u *bgp.Update) {
	at := time.Now()
	r.mu.Lock()
	for _, p := range u.Withdrawn {
		delete(r.fib, p)
	}
	for _, p := range u.NLRI {
		r.fib[p] = *u.Attrs
	}
	hook := r.onUpdate
	r.mu.Unlock()
	if hook != nil {
		hook(u, at)
	}
}

func (r *router) setHook(h func(u *bgp.Update, at time.Time)) {
	r.mu.Lock()
	r.onUpdate = h
	r.mu.Unlock()
}

func (r *router) fibSnapshot() map[iputil.Prefix]bgp.PathAttrs {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[iputil.Prefix]bgp.PathAttrs, len(r.fib))
	for p, a := range r.fib {
		out[p] = a
	}
	return out
}

// capture records what the remote fabric delivers while the oracle check
// runs; during measurement it costs one atomic load per packet.
type capture struct {
	on  atomic.Bool
	mu  sync.Mutex
	got []pkt.Packet
}

func (c *capture) deliver(p pkt.Packet) {
	if !c.on.Load() {
		return
	}
	c.mu.Lock()
	c.got = append(c.got, p)
	c.mu.Unlock()
}

func (c *capture) take() []pkt.Packet {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.got
	c.got = nil
	return out
}

// setupResult is one timed cold start.
type setupResult struct {
	elapsed time.Duration
	heapMB  float64
	compile time.Duration // initial Recompile
	resync  time.Duration // AddRuleMirror plus barrier
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setup assembles a cold exchange and times it until ready: participants
// registered, sessions up, tables loaded, policies installed, initial
// Recompile done, remote fabric synced and barrier-acked, and the
// observer's FIB equal to what the route server says it should be.
func setup(in *inputs, traced bool) (*exchange, setupResult, error) {
	var res setupResult
	heapBase := liveHeap()
	start := time.Now()

	ex := &exchange{in: in, ctrl: sdx.New(), agent: make(chan struct{})}
	fail := func(err error) (*exchange, setupResult, error) {
		ex.close()
		return nil, res, err
	}
	for i := range in.x.Participants {
		wp := &in.x.Participants[i]
		if _, err := ex.ctrl.AddParticipant(sdx.ParticipantConfig{AS: wp.AS, Name: wp.Name, Ports: wp.Ports}); err != nil {
			return fail(err)
		}
	}

	// Remote fabric: a separate switch reached only over the control
	// channel, with one port per participant port.
	ex.remote = dataplane.NewSwitch("fabric")
	for i := range in.x.Participants {
		for _, pp := range in.x.Participants[i].Ports {
			if err := ex.remote.AddPort(pp.ID, in.x.Participants[i].Name, ex.capture.deliver); err != nil {
				return fail(err)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	ex.ofLn = ln
	agent := openflow.NewAgent(ex.remote)
	go func() {
		defer close(ex.agent)
		_ = agent.ListenAndServe(ln) // returns once the listener closes
	}()
	if ex.of, err = openflow.Dial(ln.Addr().String()); err != nil {
		return fail(err)
	}
	ctrl, of := ex.ctrl, ex.of
	of.OnPacketIn = func(p pkt.Packet) {
		if egress, ok := ctrl.NormalEgress(p); ok {
			// A failed PACKET_OUT means the channel died; the
			// after-phase checks report that.
			_ = of.PacketOut(egress, p)
		}
	}
	of.Start()

	if ex.srv, err = sdx.ListenBGP(ex.ctrl, "127.0.0.1:0", routeServerAS); err != nil {
		return fail(err)
	}
	ex.queue = sdx.NewUpdateQueue(ex.ctrl, sdx.QueueConfig{})
	ex.srv.UseIngestQueue(ex.queue)

	// Sessions connect before their participants' routes load: PeerUp
	// flushes a peer's Adj-RIB-In.
	ann, obs := in.x.Participant(in.announcer), in.x.Participant(in.observer)
	if ex.announcer, err = dialRouter(ex.srv.Addr(), ann.AS, ann.Ports[0]); err != nil {
		return fail(err)
	}
	if ex.observer, err = dialRouter(ex.srv.Addr(), obs.AS, obs.Ports[0]); err != nil {
		return fail(err)
	}
	reg := ex.ctrl.Metrics()
	if err := waitFor(10*time.Second, func() bool {
		return reg.Counter("bgp.sessions_established").Value() == 2
	}); err != nil {
		return fail(fmt.Errorf("sessions: %w", err))
	}

	// Non-session members load through the batch API; session members
	// announce over BGP.
	var prefixes int64
	for i := range in.x.Participants {
		as := in.x.Participants[i].AS
		for _, u := range in.table[as] {
			prefixes += int64(len(u.NLRI))
		}
		if as == in.announcer || as == in.observer {
			continue
		}
		batch := make([]sdx.PeerUpdate, len(in.table[as]))
		for j, u := range in.table[as] {
			batch[j] = sdx.PeerUpdate{From: as, Update: u}
		}
		ex.ctrl.ApplyBatch(batch...)
	}
	var overBGP int64
	for _, r := range []*router{ex.announcer, ex.observer} {
		for _, u := range in.table[r.as] {
			if err := r.sess.SendUpdate(u); err != nil {
				return fail(err)
			}
			ex.sent++
			overBGP += int64(len(u.NLRI))
		}
	}
	if err := waitFor(30*time.Second, func() bool {
		return reg.Counter("bgp.updates_in").Value() == ex.sent &&
			ex.queue.Stats().Enqueued == overBGP
	}); err != nil {
		return fail(fmt.Errorf("table transfer: %w", err))
	}
	ex.queue.Flush()

	if err := workload.InstallPolicies(ex.ctrl, in.policies); err != nil {
		return fail(err)
	}
	t := time.Now()
	if rep := ex.ctrl.Recompile(); rep.Err != nil {
		return fail(rep.Err)
	}
	res.compile = time.Since(t)

	t = time.Now()
	var sink core.RuleSink = openflow.Mirror{C: ex.of}
	if traced {
		ex.timed = newTimedSink(sink)
		sink = ex.timed
	}
	ex.ctrl.AddRuleMirror(sink)
	if err := ex.of.Barrier(); err != nil {
		return fail(err)
	}
	res.resync = time.Since(t)

	if err := waitFor(30*time.Second, func() bool { return ex.observerConverged(nil) == nil }); err != nil {
		return fail(fmt.Errorf("observer table: %v", ex.observerConverged(nil)))
	}
	res.elapsed = time.Since(start)
	if err := ex.sessionsUp(); err != nil {
		return fail(err)
	}
	res.heapMB = float64(int64(liveHeap())-int64(heapBase)) / (1 << 20)
	return ex, res, nil
}

// waitFor polls cond every 200µs until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("not reached within %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// sessionsUp fails when a BGP session dropped: a silently lost session
// would leave fewer UPDATEs measured.
func (ex *exchange) sessionsUp() error {
	for _, r := range []*router{ex.announcer, ex.observer} {
		if r.down.Load() {
			return fmt.Errorf("BGP session of AS%d dropped: %v", r.as, r.sess.Err())
		}
	}
	select {
	case <-ex.of.Done():
		return fmt.Errorf("OpenFlow channel dropped: %v", ex.of.Err())
	default:
	}
	return nil
}

// observerConverged compares the observer's FIB with RoutesFor(observer),
// over the given prefixes (all of them when nil): next hop and MED must
// agree, and nothing may be missing or extra.
func (ex *exchange) observerConverged(only []iputil.Prefix) error {
	want := ex.ctrl.RoutesFor(ex.observer.as)
	got := ex.observer.fibSnapshot()
	if only == nil {
		if len(got) != len(want) {
			return fmt.Errorf("observer FIB has %d routes, route server advertises %d", len(got), len(want))
		}
		for _, ad := range want {
			a, ok := got[ad.Prefix]
			if !ok || a.NextHop != ad.NextHop || a.MED != ad.Attrs.MED {
				return fmt.Errorf("observer FIB %v: have %v, want next hop %v MED %d", ad.Prefix, a.NextHop, ad.NextHop, ad.Attrs.MED)
			}
		}
		return nil
	}
	byPrefix := make(map[iputil.Prefix]sdx.RouteAd, len(want))
	for _, ad := range want {
		byPrefix[ad.Prefix] = ad
	}
	for _, p := range only {
		ad, okWant := byPrefix[p]
		a, okGot := got[p]
		if okWant != okGot || (okWant && (a.NextHop != ad.NextHop || a.MED != ad.Attrs.MED)) {
			return fmt.Errorf("observer FIB %v: have %v (MED %d), want %v (MED %d)", p, a.NextHop, a.MED, ad.NextHop, ad.Attrs.MED)
		}
	}
	return nil
}

// tablesEqual checks that the remote fabric holds exactly the controller's
// table, entry by entry in precedence order. Call it quiescent, after a
// barrier.
func (ex *exchange) tablesEqual() error {
	want := ex.ctrl.Switch().Table().Entries()
	got := ex.remote.Table().Entries()
	if len(want) != len(got) {
		return fmt.Errorf("remote fabric has %d entries, controller %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Cookie != got[i].Cookie || want[i].String() != got[i].String() {
			return fmt.Errorf("remote entry %d is %v (cookie %d), controller has %v (cookie %d)",
				i, got[i], got[i].Cookie, want[i], want[i].Cookie)
		}
	}
	return nil
}

// checkUpdatesIn verifies the route server received every UPDATE sent.
func (ex *exchange) checkUpdatesIn() error {
	if n := ex.ctrl.Metrics().Counter("bgp.updates_in").Value(); n != ex.sent {
		return fmt.Errorf("bgp.updates_in is %d, routers sent %d", n, ex.sent)
	}
	return nil
}

// close tears everything down and waits for the switch agent to exit.
// The route server closes first: a closing BGPServer does not start
// PeerDown route aging, whose timers would otherwise flush a discarded
// exchange's routes 30 s later, in the middle of a measured phase.
func (ex *exchange) close() {
	if ex.srv != nil {
		_ = ex.srv.Close() // the listener error at shutdown carries nothing
	}
	for _, r := range []*router{ex.announcer, ex.observer} {
		if r != nil {
			_ = r.sess.Close() // best-effort CEASE at shutdown
			<-r.sess.Done()
		}
	}
	if ex.queue != nil {
		ex.queue.Stop()
	}
	if ex.of != nil {
		_ = ex.of.Close()
	}
	if ex.ofLn != nil {
		_ = ex.ofLn.Close()
		<-ex.agent
	}
}

// vmacRoutes returns, for each source participant, the prefixes it
// reaches through a virtual next hop, with the resolved VMAC: the
// destinations of VMAC-tagged traffic, resolved through the routers' FIB
// (RoutesFor) and the controller's ARP responder.
func (ex *exchange) vmacRoutes(exclude map[iputil.Prefix]bool) map[uint32][]vmacRoute {
	out := make(map[uint32][]vmacRoute)
	for i := range ex.in.x.Participants {
		as := ex.in.x.Participants[i].AS
		for _, ad := range ex.ctrl.RoutesFor(as) {
			if exclude[ad.Prefix] || !core.VNHSubnet.Contains(ad.NextHop) {
				continue
			}
			mac, ok := ex.ctrl.ARP().Resolve(ad.NextHop)
			if !ok {
				continue
			}
			out[as] = append(out[as], vmacRoute{prefix: ad.Prefix, mac: mac})
		}
	}
	return out
}

type vmacRoute struct {
	prefix iputil.Prefix
	mac    pkt.MAC
}

// sortedASes returns the map's keys in ascending order, so generation
// from a seed does not depend on map iteration order.
func sortedASes[V any](m map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for as := range m {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
