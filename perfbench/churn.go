package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sdx"
	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// convergeTimeout is how long an UPDATE may take to converge before it
// counts as a failed operation.
const convergeTimeout = 10 * time.Second

// optimizeInterval is sdxd's -optimize-interval default.
const optimizeInterval = 5 * time.Second

// optimizer is sdxd's background loop: a Dirty-gated Recompile every
// optimizeInterval. It is restarted at each phase start, its first tick
// after first, so its ticks fall at the same offsets in every run.
type optimizer struct {
	stop, done chan struct{}
}

func startOptimizer(ctrl *sdx.Controller, first time.Duration, onCompile func(time.Duration)) *optimizer {
	o := &optimizer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		tick := time.NewTimer(first)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if ctrl.Dirty() {
					t := time.Now()
					ctrl.Recompile()
					onCompile(time.Since(t))
				}
				tick.Reset(optimizeInterval)
			case <-o.stop:
				return
			}
		}
	}()
	return o
}

// halt stops the loop and waits for an in-flight Recompile to finish.
func (o *optimizer) halt() {
	close(o.stop)
	<-o.done
}

// tracker follows every UPDATE of a phase from its due time until it has
// converged: the observer received a re-advertisement carrying its tag
// (or a later tag for the same prefix, since the queue may coalesce) and
// a barrier sent on the fabric channel after that receipt was
// acknowledged. The controller pushes fast-band FlowMods before it
// re-advertises, on the same FIFO channel, so the ack proves the rules
// are installed on the remote switch.
type tracker struct {
	start time.Time
	tag0  uint32 // MED tag of UPDATE 0

	mu       sync.Mutex
	due      []time.Duration // per UPDATE, from phase start
	advert   []time.Duration // -1 until seen (traced runs only)
	push     []time.Duration // -1 until seen (traced runs only)
	recv     []time.Duration // -1 until received
	ack      []time.Duration // -1 until acked
	byPrefix map[iputil.Prefix]*prefixQueue
	waiting  []int // received, awaiting a barrier
	acked    int
	errs     []error

	kick, finished chan struct{}
	quit, exited   chan struct{}

	barrier samples // barrier round trips, µs
}

// prefixQueue holds one prefix's UPDATE indexes in send order, with the
// next not yet advertised and not yet received.
type prefixQueue struct {
	idx            []int
	nextAd, nextRx int
}

func newTracker(n int, tag0 uint32) *tracker {
	t := &tracker{
		tag0:     tag0,
		due:      make([]time.Duration, n),
		advert:   make([]time.Duration, n),
		push:     make([]time.Duration, n),
		recv:     make([]time.Duration, n),
		ack:      make([]time.Duration, n),
		byPrefix: make(map[iputil.Prefix]*prefixQueue),
		kick:     make(chan struct{}, 1),
		finished: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		exited:   make(chan struct{}),
	}
	for i := range t.recv {
		t.advert[i], t.push[i], t.recv[i], t.ack[i] = -1, -1, -1, -1
	}
	return t
}

// expect registers UPDATE i for prefix p, due at d.
func (t *tracker) expect(i int, p iputil.Prefix, d time.Duration) {
	t.due[i] = d
	q := t.byPrefix[p]
	if q == nil {
		q = &prefixQueue{}
		t.byPrefix[p] = q
	}
	q.idx = append(q.idx, i)
}

// tagged returns the index of the last UPDATE an advertisement carrying
// this MED covers, or false when the tag is not from this phase.
func (t *tracker) tagged(attrs *bgp.PathAttrs) (int, bool) {
	if attrs == nil || !attrs.HasMED || attrs.MED < t.tag0 {
		return 0, false
	}
	last := int(attrs.MED - t.tag0)
	return last, last < len(t.due)
}

// received is the observer's UPDATE hook.
func (t *tracker) received(u *bgp.Update, at time.Time) {
	last, ok := t.tagged(u.Attrs)
	if !ok {
		return
	}
	now := at.Sub(t.start)
	t.mu.Lock()
	for _, p := range u.NLRI {
		q := t.byPrefix[p]
		if q == nil {
			continue
		}
		for q.nextRx < len(q.idx) && q.idx[q.nextRx] <= last {
			i := q.idx[q.nextRx]
			t.recv[i] = now
			t.waiting = append(t.waiting, i)
			q.nextRx++
		}
	}
	t.mu.Unlock()
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// advertised is the traced run's extra Controller.OnRoute sink for the
// observer; pushAt maps a fast VMAC to when its FlowMod was pushed.
func (t *tracker) advertised(ad sdx.RouteAd, pushAt func(pkt.MAC) (time.Time, bool)) {
	if ad.Withdraw {
		return
	}
	last, ok := t.tagged(ad.Attrs)
	if !ok {
		return
	}
	at := time.Now()
	var pushed time.Duration = -1
	if core.VNHSubnet.Contains(ad.NextHop) {
		if pt, ok := pushAt(core.VMAC(uint32(ad.NextHop - core.VNHSubnet.Addr()))); ok {
			pushed = pt.Sub(t.start)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.byPrefix[ad.Prefix]
	if q == nil {
		return
	}
	for q.nextAd < len(q.idx) && q.idx[q.nextAd] <= last {
		i := q.idx[q.nextAd]
		t.advert[i] = at.Sub(t.start)
		t.push[i] = pushed
		q.nextAd++
	}
}

// ackLoop sends one barrier for everything received since the last one
// and stamps the ack time on all of it.
func (t *tracker) ackLoop(barrier func() error) {
	defer close(t.exited)
	for {
		select {
		case <-t.kick:
		case <-t.quit:
			return
		}
		t.mu.Lock()
		batch := t.waiting
		t.waiting = nil
		t.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		b0 := time.Now()
		err := barrier()
		b1 := time.Now()
		t.mu.Lock()
		if err != nil {
			t.errs = append(t.errs, fmt.Errorf("barrier: %w", err))
		}
		t.barrier = append(t.barrier, us(b1.Sub(b0)))
		for _, i := range batch {
			t.ack[i] = b1.Sub(t.start)
		}
		t.acked += len(batch)
		done := t.acked == len(t.due)
		t.mu.Unlock()
		if done {
			select {
			case t.finished <- struct{}{}:
			default:
			}
		}
	}
}

// churnResult is one phase's convergence record.
type churnResult struct {
	attempted, failed int
	converge          samples // ms, converged UPDATEs only
	lateMax           time.Duration
	depthMax          int                // ingestion queue depth after each send (traced)
	spans             map[string]samples // ms, traced runs only
	barrier           samples            // µs
	sent              []*bgp.Update
}

// churn drives one open-loop phase: n UPDATEs at a fixed rate, each a
// re-announcement of a pool prefix by the announcer with a fresh AS path
// and its sequence tag in MED. The route server passes MED through, and
// each pool prefix has a single announcer, so the tag never changes the
// decision. Convergence is timed from each UPDATE's due time.
func (ex *exchange) churn(pool []iputil.Prefix, rate float64, d time.Duration, rng *rand.Rand, tag0 uint32, traced bool) (*churnResult, error) {
	n := int(rate * d.Seconds())
	t := newTracker(n, tag0)
	prefixes := make([]iputil.Prefix, n)
	interval := time.Duration(float64(time.Second) / rate)
	for i := range prefixes {
		prefixes[i] = pool[rng.Intn(len(pool))]
		t.expect(i, prefixes[i], time.Duration(i)*interval)
	}
	ann := ex.announcer
	res := &churnResult{attempted: n, sent: make([]*bgp.Update, n)}
	for i := range res.sent {
		tag := tag0 + uint32(i)
		res.sent[i] = &bgp.Update{
			Attrs: &bgp.PathAttrs{
				ASPath:  []uint32{ann.as, 100 + tag%60000},
				NextHop: ann.port.IP(),
				MED:     tag, HasMED: true,
			},
			NLRI: []iputil.Prefix{prefixes[i]},
		}
	}

	// The phase clock starts before any hook can observe a tagged route.
	t.start = time.Now()
	if traced {
		unregister, err := ex.ctrl.OnRoute(ex.observer.as, func(ad sdx.RouteAd) {
			t.advertised(ad, ex.timed.pushedAt)
		})
		if err != nil {
			return nil, err
		}
		defer unregister()
	}
	ex.observer.setHook(t.received)
	defer ex.observer.setHook(nil)
	go t.ackLoop(ex.of.Barrier)
	defer func() {
		close(t.quit)
		<-t.exited
	}()

	for i, u := range res.sent {
		due := t.start.Add(t.due[i])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.lateMax = max(res.lateMax, time.Since(due))
		if err := ann.sess.SendUpdate(u); err != nil {
			return nil, fmt.Errorf("sending UPDATE %d: %w", i, err)
		}
		ex.sent++
		if traced {
			res.depthMax = max(res.depthMax, ex.queue.Stats().Depth)
		}
	}
	if n > 0 {
		select {
		case <-t.finished:
		case <-time.After(time.Until(t.start.Add(t.due[n-1] + convergeTimeout))):
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) > 0 {
		return nil, t.errs[0]
	}
	res.barrier = t.barrier
	for i := range t.due {
		c := t.ack[i] - t.due[i]
		if t.ack[i] < 0 || c > convergeTimeout {
			res.failed++
			continue
		}
		res.converge = append(res.converge, ms(c))
	}
	if traced {
		res.spans = map[string]samples{}
		span := func(name string, from, to []time.Duration) {
			var s samples
			for i := range from {
				if from[i] >= 0 && to[i] >= 0 {
					s = append(s, ms(to[i]-from[i]))
				}
			}
			res.spans[name] = s
		}
		span("span.due_to_advert_ms", t.due, t.advert)
		span("span.due_to_push_ms", t.due, t.push)
		span("span.advert_to_recv_ms", t.advert, t.recv)
		span("span.recv_to_ack_ms", t.recv, t.ack)
	}
	return res, nil
}
