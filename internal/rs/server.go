// Package rs implements the SDX route server (§3.2, §5.1): it collects the
// BGP routes advertised by every participant, applies per-participant
// export policies, computes one best route per prefix on behalf of each
// participant, and emits per-prefix change records that drive the SDX
// policy compiler. Re-advertisement (with virtual next hops substituted)
// is delegated to a per-participant callback so the controller layer can
// rewrite next hops before the update leaves the box.
//
// The decision process ranks each prefix once, not once per participant.
// Nearly every participant sees the same candidate routes, so a prefix's
// Loc-RIB state is one common best route plus an exception list for the
// few participants a filter names (see locEntry).
//
// The server is sharded for full-table feeds: the merged Adj-RIB-In and
// the Loc-RIB are split into bgp.RIBShards lock domains keyed by
// bgp.ShardOf, and the decision process for a batch of updates runs one
// goroutine per touched shard. Updates for prefixes in different shards
// never contend; the participant registry has its own lock (pmu) that
// decision workers only read-hold.
package rs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
	"sdx/internal/telemetry"
)

// ExportPolicy restricts which of a participant's routes the route server
// re-advertises to which peers. The zero value exports everything to
// everyone (the common IXP default).
type ExportPolicy struct {
	// DenyAllTo lists peers that receive none of this participant's routes.
	DenyAllTo map[uint32]bool
	// DenyTo lists specific prefixes withheld from specific peers; a
	// route is withheld when its prefix equals a listed prefix.
	DenyTo map[uint32][]iputil.Prefix
}

// Allows reports whether a route for prefix may be exported to peer `to`.
func (e *ExportPolicy) Allows(to uint32, prefix iputil.Prefix) bool {
	if e == nil {
		return true
	}
	if e.DenyAllTo[to] {
		return false
	}
	for _, p := range e.DenyTo[to] {
		if p == prefix {
			return false
		}
	}
	return true
}

// appendNamed appends the peers the policy withholds prefix from: every
// peer Allows(peer, prefix) is false for.
func (e *ExportPolicy) appendNamed(dst []uint32, prefix iputil.Prefix) []uint32 {
	if e == nil {
		return dst
	}
	for to, deny := range e.DenyAllTo {
		if deny {
			dst = append(dst, to)
		}
	}
	for to, ps := range e.DenyTo {
		if slices.Contains(ps, prefix) {
			dst = append(dst, to)
		}
	}
	return dst
}

// ParticipantConfig describes one route-server client.
type ParticipantConfig struct {
	AS       uint32
	RouterID iputil.Addr
	Export   *ExportPolicy
	// Advertise, when non-nil, is called for every best-route change the
	// server wants to announce to this participant: route is nil for a
	// withdrawal. Called with the owning shard's lock held, and — because
	// the decision process runs per-shard in parallel — possibly
	// concurrently from different goroutines for prefixes in different
	// shards. It must not call back into the server.
	Advertise func(prefix iputil.Prefix, route *bgp.Route)
}

// PeerUpdate pairs one BGP UPDATE with the participant it was received
// from — the unit of the batch-first ingestion API (Server.Apply,
// core's Controller.ApplyBatch).
type PeerUpdate struct {
	From   uint32
	Update *bgp.Update
}

// Event records a best-route change for one (participant, prefix) pair.
type Event struct {
	Participant uint32 // whose view changed
	Prefix      iputil.Prefix
	Old, New    *bgp.Route // nil means no route
}

// String renders the event.
func (e Event) String() string {
	return fmt.Sprintf("best(%d, %s): %v -> %v", e.Participant, e.Prefix, e.Old, e.New)
}

// Change records what one decision pass did to one prefix, for every
// participant at once. Participants not listed in Viewers moved from Old
// to New, the common best route (nil means no route). Viewers lists, by
// ascending AS, the participants whose transition differs from that; an
// entry with Old == New is a participant the common change passed by.
// A Change is emitted only when some participant's best route changed.
type Change struct {
	Prefix   iputil.Prefix
	Old, New *bgp.Route
	Viewers  []Event

	// ases is the registry the change was decided against, shared with
	// the server (which replaces rather than edits it).
	ases []uint32
}

// Each calls fn with the per-participant Event of every participant whose
// best route changed, in ascending AS order, until fn returns false.
func (c *Change) Each(fn func(Event) bool) {
	if c.Old == c.New {
		for _, e := range c.Viewers {
			if e.Old != e.New && !fn(e) {
				return
			}
		}
		return
	}
	vi := 0
	for _, as := range c.ases {
		if vi < len(c.Viewers) && c.Viewers[vi].Participant == as {
			e := c.Viewers[vi]
			vi++
			if e.Old == e.New {
				continue
			}
			if !fn(e) {
				return
			}
			continue
		}
		if !fn(Event{Participant: as, Prefix: c.Prefix, Old: c.Old, New: c.New}) {
			return
		}
	}
}

type participant struct {
	cfg ParticipantConfig
}

// viewerRoute is one participant's best route for a prefix, where it
// differs from the prefix's common best route.
type viewerRoute struct {
	as    uint32
	route *bgp.Route // nil: the participant has no route
}

// locEntry is the Loc-RIB state of one prefix. A participant is *named*
// for the prefix when a filter treats it specially: it advertised a route
// for the prefix, an advertiser's export policy withholds the prefix from
// it, or a route-server community selects it. Every participant no filter
// names sees the same candidate routes, so common is exactly their best
// route; except holds, by ascending AS, the named participants whose best
// route is not common. Each exception is bgp.Best over that participant's
// own filtered candidates: deterministic MED is not a total order, so "the
// first eligible route of a global ranking" can be wrong.
type locEntry struct {
	global *bgp.Route // bgp.Best over every route, no participant excluded
	common *bgp.Route
	except []viewerRoute
}

// view returns participant as's best route (nil for none). Registration
// is the caller's concern: unregistered ASes see nothing.
func (e *locEntry) view(as uint32) *bgp.Route {
	if i, ok := exceptAt(e.except, as); ok {
		return e.except[i].route
	}
	return e.common
}

// exceptAt binary-searches an exception list for participant as.
func exceptAt(except []viewerRoute, as uint32) (int, bool) {
	return slices.BinarySearchFunc(except, as, func(v viewerRoute, as uint32) int {
		return cmp.Compare(v.as, as)
	})
}

// routes returns how many of viewers registered participants have a best
// route for the prefix.
func (e *locEntry) routes(viewers int) int {
	n := 0
	for _, v := range e.except {
		if v.route != nil {
			n++
		}
	}
	if e.common != nil {
		n += viewers - len(e.except)
	}
	return n
}

// locShard is one lock domain of the Loc-RIB: the decision state for
// every prefix p with bgp.ShardOf(p) == this shard's index. Aligning the
// Loc-RIB shards 1:1 with the Adj-RIB-In shards lets one goroutine apply a
// shard's RIB mutations and rerun its slice of the decision process
// without touching any other shard's lock.
type locShard struct {
	mu      sync.RWMutex
	entries map[iputil.Prefix]locEntry
}

// ribMutation is one Adj-RIB-In change extracted from an UPDATE: an
// announcement (route != nil) or a withdrawal (route == nil) of prefix by
// participant `from`.
type ribMutation struct {
	prefix iputil.Prefix
	from   uint32
	route  *bgp.Route
}

// Server is the SDX route server. It is safe for concurrent use.
type Server struct {
	// pmu guards the participant registry (and the indexes derived from
	// it) and communityAS. Decision workers hold it for reading; lock
	// order is pmu before any shard lock, never the reverse.
	pmu          sync.RWMutex
	participants map[uint32]*participant
	ases         []uint32            // registered ASes, sorted; replaced on change, never edited
	byLow16      map[uint32][]uint32 // AS & 0xffff -> registered ASes (communities carry 16 bits)
	callbacks    []*participant      // participants with an Advertise callback, by AS
	communityAS  uint32              // community semantics (see EnableCommunities); 0 disables

	adjIn   *bgp.RIB // merged Adj-RIB-In: route per (prefix, advertising participant)
	shards  [bgp.RIBShards]locShard
	updates atomic.Int64 // UPDATE messages processed

	// Resolved metric handles; nil (the default) makes every update a
	// no-op, so an unobserved server pays nothing.
	mUpdatesIn   *telemetry.Counter
	mBestChanges *telemetry.Counter
	mDecisionNS  *telemetry.Histogram
}

// Option configures a Server.
type Option func(*Server)

// WithMetrics publishes route-server metrics into reg:
//
//	rs.updates_in     counter   UPDATE messages processed
//	rs.best_changes   counter   change records emitted (prefixes whose
//	                            best route changed for some participant)
//	rs.decision_ns    histogram decision-process latency per batch
//	rs.adj_rib_routes gauge     routes in the merged Adj-RIB-In
//	rs.loc_rib_routes gauge     best routes across all participant views
//	rs.participants   gauge     registered participants
//
// The size gauges are snapshot-time callbacks; they add no work to the
// update path.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(s *Server) {
		s.mUpdatesIn = reg.Counter("rs.updates_in")
		s.mBestChanges = reg.Counter("rs.best_changes")
		s.mDecisionNS = reg.Histogram("rs.decision_ns")
		reg.RegisterGaugeFunc("rs.adj_rib_routes", func() int64 {
			return int64(s.adjIn.Len())
		})
		reg.RegisterGaugeFunc("rs.loc_rib_routes", func() int64 {
			return int64(s.locRIBRoutes())
		})
		reg.RegisterGaugeFunc("rs.participants", func() int64 {
			s.pmu.RLock()
			defer s.pmu.RUnlock()
			return int64(len(s.participants))
		})
	}
}

// locRIBRoutes counts best routes across all participant views.
func (s *Server) locRIBRoutes() int {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	viewers := len(s.participants)
	n := 0
	for si := range s.shards {
		sh := &s.shards[si]
		//lint:ignore lockblock pmu-before-shard is the documented lock order; read-only count over bounded in-memory maps
		sh.mu.RLock()
		for _, e := range sh.entries {
			n += e.routes(viewers)
		}
		sh.mu.RUnlock()
	}
	return n
}

// EnableCommunities turns on conventional route-server community
// handling with the given route-server AS number, re-deciding every
// prefix under the new semantics.
func (s *Server) EnableCommunities(localAS uint32) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.communityAS == localAS {
		return
	}
	s.communityAS = localAS
	s.redecideAllLocked(0)
}

// communityAllows evaluates the community semantics for exporting route r
// to participant `to` under route-server AS localAS (0 disables):
//
//	(0, peer)       do not announce this route to AS peer
//	(0, localAS)    do not announce this route to anyone
//	(localAS, peer) announce only to AS peer (whitelist mode when
//	                any such community is present)
func communityAllows(localAS uint32, r *bgp.Route, to uint32) bool {
	if localAS == 0 || r.Attrs == nil {
		return true
	}
	whitelist := false
	whitelisted := false
	for _, c := range r.Attrs.Communities {
		hi, lo := c>>16, c&0xffff
		switch {
		case hi == 0 && lo == localAS&0xffff:
			return false // announce to no one
		case hi == 0 && lo == to&0xffff:
			return false // do not announce to `to`
		case hi == localAS&0xffff:
			whitelist = true
			if lo == to&0xffff {
				whitelisted = true
			}
		}
	}
	if whitelist {
		return whitelisted
	}
	return true
}

// communityOpen is communityAllows for a participant no community of r
// names (see named): r reaches it unless r goes to no one or to a
// whitelist.
func communityOpen(localAS uint32, r *bgp.Route) bool {
	if localAS == 0 || r.Attrs == nil {
		return true
	}
	local := localAS & 0xffff
	for _, c := range r.Attrs.Communities {
		if hi := c >> 16; hi == local || hi == 0 && c&0xffff == local {
			return false
		}
	}
	return true
}

// New returns an empty route server.
func New(opts ...Option) *Server {
	s := &Server{
		participants: make(map[uint32]*participant),
		byLow16:      make(map[uint32][]uint32),
		adjIn:        bgp.NewRIB(),
	}
	for si := range s.shards {
		s.shards[si].entries = make(map[iputil.Prefix]locEntry)
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// NumShards returns the number of lock domains the server's RIBs are
// split into (bgp.RIBShards); prefix p belongs to shard bgp.ShardOf(p).
func (s *Server) NumShards() int { return bgp.RIBShards }

// AddParticipant registers a participant. It fails on duplicate AS.
// The late joiner learns the current best route for every known prefix,
// including those where a filter names it.
func (s *Server) AddParticipant(cfg ParticipantConfig) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if _, dup := s.participants[cfg.AS]; dup {
		return fmt.Errorf("rs: duplicate participant AS%d", cfg.AS)
	}
	p := &participant{cfg: cfg}
	s.participants[cfg.AS] = p
	i, _ := slices.BinarySearch(s.ases, cfg.AS)
	s.ases = slices.Insert(slices.Clip(s.ases), i, cfg.AS)
	low := cfg.AS & 0xffff
	s.byLow16[low] = append(s.byLow16[low], cfg.AS)
	if cfg.Advertise != nil {
		i, _ := slices.BinarySearchFunc(s.callbacks, cfg.AS, func(q *participant, as uint32) int {
			return cmp.Compare(q.cfg.AS, as)
		})
		s.callbacks = slices.Insert(s.callbacks, i, p)
	}
	s.redecideAllLocked(cfg.AS)
	return nil
}

// redecideAllLocked reruns the decision process over every prefix, one
// shard after another so Advertise callbacks fire serially. A join needs
// it because existing routes may name the new participant, and routes it
// sent before registering fall under its export policy; enabling
// communities changes every filter. fresh (if non-zero) is the
// participant just registered: its previous view was empty. Caller holds
// pmu for writing.
func (s *Server) redecideAllLocked(fresh uint32) {
	for si := range s.shards {
		sh := &s.shards[si]
		//lint:ignore lockblock pmu-before-shard is the documented lock order; shard critical sections are bounded (no I/O) so registry holders never wait on anything unbounded
		sh.mu.Lock()
		for _, prefix := range s.adjIn.ShardPrefixes(si) {
			s.decideLocked(sh, prefix, fresh)
		}
		sh.mu.Unlock()
	}
}

// RemoveParticipant withdraws every route learned from the participant and
// deregisters it, returning the resulting changes for other participants.
func (s *Server) RemoveParticipant(as uint32) []Change {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if p := s.participants[as]; p != nil {
		delete(s.participants, as)
		if i, ok := slices.BinarySearch(s.ases, as); ok {
			s.ases = slices.Delete(slices.Clone(s.ases), i, i+1)
		}
		low := as & 0xffff
		s.byLow16[low] = slices.DeleteFunc(s.byLow16[low], func(v uint32) bool { return v == as })
		s.callbacks = slices.DeleteFunc(s.callbacks, func(q *participant) bool { return q == p })
	}
	return s.removePeerRoutes(as, true)
}

// FlushPeer withdraws every route learned from the participant while
// keeping it registered, returning the resulting changes — the route
// server's half of session-flap degradation: a peer whose BGP session
// stayed down past the controller's age-out loses its routes, but can
// re-announce them on the next session without re-registering.
func (s *Server) FlushPeer(as uint32) []Change {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.removePeerRoutes(as, false)
}

// allShards lists every shard index, for passes that touch them all.
var allShards = func() []int {
	out := make([]int, bgp.RIBShards)
	for i := range out {
		out[i] = i
	}
	return out
}()

// removePeerRoutes drops every route learned from `as` shard by shard in
// parallel, rerunning the decision process over the affected prefixes.
// dropView additionally discards the participant's own exceptions
// (deregistration). Caller holds pmu.
func (s *Server) removePeerRoutes(as uint32, dropView bool) []Change {
	t := telemetry.StartTimer(s.mDecisionNS)
	changes := s.inShards(allShards, func(si int) []Change {
		sh := &s.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if dropView {
			for prefix, e := range sh.entries {
				if k, ok := exceptAt(e.except, as); ok {
					e.except = slices.Delete(e.except, k, k+1)
					sh.entries[prefix] = e
				}
			}
		}
		var out []Change
		for _, prefix := range s.adjIn.ShardRemovePeer(si, as) {
			if ch, ok := s.decideLocked(sh, prefix, 0); ok {
				out = append(out, ch)
			}
		}
		return out
	})
	t.Stop()
	s.mBestChanges.Add(int64(len(changes)))
	return changes
}

// inShards runs work once per listed shard, each on its own goroutine,
// and returns the change records sorted by prefix — a deterministic order
// regardless of shard scheduling. Callers hold pmu: workers only read
// state pmu guards (never acquire pmu themselves) and finish in bounded
// time, so holding it across the join keeps the registry stable for the
// whole decision pass.
func (s *Server) inShards(shards []int, work func(si int) []Change) []Change {
	var results [bgp.RIBShards][]Change
	var wg sync.WaitGroup
	for _, si := range shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			results[si] = work(si)
		}(si)
	}
	wg.Wait()
	n := 0
	for _, r := range results {
		n += len(r)
	}
	if n == 0 {
		return nil
	}
	out := make([]Change, 0, n)
	for _, r := range results {
		out = append(out, r...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// Participants returns the registered AS numbers, sorted.
func (s *Server) Participants() []uint32 {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return slices.Clone(s.ases)
}

// HandleUpdate applies one UPDATE received from participant `from` and
// returns the best-route changes it caused across all participants.
// Advertise callbacks fire before HandleUpdate returns.
//
// Deprecated-style single-update entry point: it is Apply with a
// one-element batch. Callers with more than one UPDATE in hand should
// use Apply (or HandleUpdates) so the decision process runs once per
// batch instead of once per update.
func (s *Server) HandleUpdate(from uint32, u *bgp.Update) []Change {
	return s.Apply([]PeerUpdate{{From: from, Update: u}})
}

// HandleUpdates applies a burst of UPDATEs from one participant as a
// single batch. Equivalent to Apply with every update attributed to
// `from`.
func (s *Server) HandleUpdates(from uint32, us ...*bgp.Update) []Change {
	batch := make([]PeerUpdate, len(us))
	for i, u := range us {
		batch[i] = PeerUpdate{From: from, Update: u}
	}
	return s.Apply(batch)
}

// Apply applies a batch of UPDATEs — possibly from many participants —
// and returns one change record per prefix whose best route changed for
// some participant, sorted by prefix. RIB mutations are partitioned by
// prefix shard and applied concurrently, one goroutine per touched shard,
// each rerunning the decision process over only its own affected
// prefixes; within a shard, mutations apply in batch order, so the final
// state for every (prefix, peer) pair is the last update in the batch
// that touched it. Advertise callbacks fire before Apply returns (see
// ParticipantConfig for their concurrency contract).
func (s *Server) Apply(batch []PeerUpdate) []Change {
	if len(batch) == 0 {
		return nil
	}
	s.updates.Add(int64(len(batch)))
	s.mUpdatesIn.Add(int64(len(batch)))
	s.pmu.RLock()
	defer s.pmu.RUnlock()

	var perShard [bgp.RIBShards][]ribMutation
	for _, pu := range batch {
		u := pu.Update
		for _, p := range u.Withdrawn {
			si := bgp.ShardOf(p)
			perShard[si] = append(perShard[si], ribMutation{prefix: p, from: pu.From})
		}
		if len(u.NLRI) == 0 {
			continue
		}
		routerID := iputil.Addr(pu.From)
		if sender := s.participants[pu.From]; sender != nil {
			routerID = sender.cfg.RouterID
		}
		// One copy per UPDATE, shared by its routes: nothing writes a
		// stored route's attributes.
		attrs := u.Attrs.Clone()
		for _, p := range u.NLRI {
			si := bgp.ShardOf(p)
			perShard[si] = append(perShard[si], ribMutation{prefix: p, from: pu.From,
				route: &bgp.Route{Prefix: p, Attrs: attrs, PeerAS: pu.From, PeerID: routerID}})
		}
	}

	t := telemetry.StartTimer(s.mDecisionNS)
	touched := make([]int, 0, bgp.RIBShards)
	for si := range perShard {
		if len(perShard[si]) > 0 {
			touched = append(touched, si)
		}
	}
	changes := s.inShards(touched, func(si int) []Change {
		return s.applyShard(si, perShard[si])
	})
	t.Stop()
	s.mBestChanges.Add(int64(len(changes)))
	return changes
}

// applyShard applies one shard's RIB mutations in order and reruns the
// decision process over the prefixes that changed. Caller holds pmu.
func (s *Server) applyShard(si int, muts []ribMutation) []Change {
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var affected []iputil.Prefix
	seen := make(map[iputil.Prefix]bool, len(muts))
	for _, m := range muts {
		if m.route != nil {
			s.adjIn.Add(m.route)
		} else if !s.adjIn.Remove(m.prefix, m.from) {
			continue // withdrawal of a route we never had: no-op
		}
		if !seen[m.prefix] {
			seen[m.prefix] = true
			affected = append(affected, m.prefix)
		}
	}
	var out []Change
	for _, prefix := range affected {
		if ch, ok := s.decideLocked(sh, prefix, 0); ok {
			out = append(out, ch)
		}
	}
	return out
}

// decideLocked ranks prefix once from its Adj-RIB-In routes, stores the
// result in sh, fires Advertise callbacks for participants whose best
// route changed, and returns the change record; ok is false when no
// registered participant's best route changed. fresh, when non-zero, is a
// participant registered since the prefix was last decided: its previous
// view is empty rather than common. Caller holds pmu and sh.mu.
func (s *Server) decideLocked(sh *locShard, prefix iputil.Prefix, fresh uint32) (ch Change, ok bool) {
	old := sh.entries[prefix]
	if fresh != 0 {
		i, _ := exceptAt(old.except, fresh)
		old.except = slices.Insert(slices.Clip(old.except), i, viewerRoute{as: fresh})
	}
	var cur locEntry
	if routes := s.adjIn.Routes(prefix); len(routes) > 0 {
		cur = s.rank(prefix, routes)
		sh.entries[prefix] = cur
	} else {
		delete(sh.entries, prefix)
	}
	for _, p := range s.callbacks {
		if r := cur.view(p.cfg.AS); r != old.view(p.cfg.AS) {
			p.cfg.Advertise(prefix, r)
		}
	}
	return s.diff(prefix, &old, &cur)
}

// rank computes one prefix's Loc-RIB state from its routes. Caller holds
// pmu.
func (s *Server) rank(prefix iputil.Prefix, routes []*bgp.Route) locEntry {
	e := locEntry{global: bgp.Best(routes)}
	e.common = e.global
	if s.communityAS != 0 {
		open := make([]*bgp.Route, 0, len(routes))
		for _, r := range routes {
			if communityOpen(s.communityAS, r) {
				open = append(open, r)
			}
		}
		if len(open) < len(routes) {
			e.common = bgp.Best(open)
		}
	}
	for _, as := range s.named(prefix, routes) {
		if r := s.bestFor(as, prefix, routes); r != e.common {
			e.except = append(e.except, viewerRoute{as: as, route: r})
		}
	}
	return e
}

// named returns the registered participants some filter names for
// prefix, sorted: the advertisers, the peers an advertiser's export
// policy withholds the prefix from, and the peers a (0, peer) or
// (localAS, peer) community selects. Caller holds pmu.
func (s *Server) named(prefix iputil.Prefix, routes []*bgp.Route) []uint32 {
	var buf [8]uint32
	out := buf[:0]
	local := s.communityAS & 0xffff
	for _, r := range routes {
		out = append(out, r.PeerAS)
		if adv := s.participants[r.PeerAS]; adv != nil {
			out = adv.cfg.Export.appendNamed(out, prefix)
		}
		if s.communityAS == 0 || r.Attrs == nil {
			continue
		}
		for _, c := range r.Attrs.Communities {
			if hi := c >> 16; hi == 0 || hi == local {
				out = append(out, s.byLow16[c&0xffff]...)
			}
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	return slices.DeleteFunc(out, func(as uint32) bool { return s.participants[as] == nil })
}

// bestFor computes the best route for prefix from participant as's view:
// the best among routes advertised by other participants whose export
// policy and communities allow as to see them. Caller holds pmu.
func (s *Server) bestFor(as uint32, prefix iputil.Prefix, routes []*bgp.Route) *bgp.Route {
	var buf [8]*bgp.Route
	candidates := buf[:0]
	for _, r := range routes {
		if r.PeerAS == as {
			continue // never reflect a route back to its advertiser
		}
		if adv := s.participants[r.PeerAS]; adv != nil && !adv.cfg.Export.Allows(as, prefix) {
			continue
		}
		if !communityAllows(s.communityAS, r, as) {
			continue
		}
		candidates = append(candidates, r)
	}
	return bgp.Best(candidates)
}

// diff builds the change record between two decisions for one prefix.
// Only participants with an exception in either decision can move other
// than old.common -> cur.common. Caller holds pmu.
func (s *Server) diff(prefix iputil.Prefix, old, cur *locEntry) (Change, bool) {
	ch := Change{Prefix: prefix, Old: old.common, New: cur.common, ases: s.ases}
	moved := old.common != cur.common
	changed := false
	listed := 0
	i, j := 0, 0
	for i < len(old.except) || j < len(cur.except) {
		e := Event{Prefix: prefix}
		switch {
		case j == len(cur.except) || i < len(old.except) && old.except[i].as < cur.except[j].as:
			e.Participant, e.Old, e.New = old.except[i].as, old.except[i].route, cur.common
			i++
		case i == len(old.except) || cur.except[j].as < old.except[i].as:
			e.Participant, e.Old, e.New = cur.except[j].as, old.common, cur.except[j].route
			j++
		default:
			e.Participant, e.Old, e.New = cur.except[j].as, old.except[i].route, cur.except[j].route
			i++
			j++
		}
		listed++
		if e.Old != e.New {
			changed = true
		} else if !moved {
			continue
		}
		ch.Viewers = append(ch.Viewers, e)
	}
	if moved && len(s.ases) > listed {
		changed = true
	}
	return ch, changed
}

// BestRoute returns participant as's current best route for prefix.
func (s *Server) BestRoute(as uint32, prefix iputil.Prefix) (*bgp.Route, bool) {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	if s.participants[as] == nil {
		return nil, false
	}
	sh := &s.shards[bgp.ShardOf(prefix)]
	//lint:ignore lockblock pmu-before-shard is the documented lock order; one bounded map lookup
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entries[prefix]
	if !ok {
		return nil, false
	}
	r := e.view(as)
	return r, r != nil
}

// BestRoutes returns a copy of participant as's Loc-RIB, merged across
// shards; nil if as is not a registered participant.
func (s *Server) BestRoutes(as uint32) map[iputil.Prefix]*bgp.Route {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	if s.participants[as] == nil {
		return nil
	}
	out := make(map[iputil.Prefix]*bgp.Route)
	for si := range s.shards {
		sh := &s.shards[si]
		//lint:ignore lockblock pmu-before-shard is the documented lock order; read-only snapshot over bounded in-memory maps
		sh.mu.RLock()
		for prefix, e := range sh.entries {
			if r := e.view(as); r != nil {
				out[prefix] = r
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// ReachablePrefixes returns the prefixes that participant `via` has
// exported to participant `viewer` — the set the SDX compiler uses to
// restrict viewer's outbound policies toward via ("forwarding only along
// BGP-advertised paths", §3.2). The result is sorted.
func (s *Server) ReachablePrefixes(viewer, via uint32) []iputil.Prefix {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	adv := s.participants[via]
	var out []iputil.Prefix
	s.adjIn.Walk(func(prefix iputil.Prefix, routes []*bgp.Route) bool {
		for _, r := range routes {
			if r.PeerAS != via {
				continue
			}
			if adv != nil && !adv.cfg.Export.Allows(viewer, prefix) {
				continue
			}
			if !communityAllows(s.communityAS, r, viewer) {
				continue
			}
			out = append(out, prefix)
		}
		return true
	})
	return out
}

// Exports reports whether participant `via` currently announces prefix and
// exports it to `viewer` — the membership query behind the SDX fast path.
func (s *Server) Exports(viewer, via uint32, prefix iputil.Prefix) bool {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	r, ok := s.adjIn.Get(prefix, via)
	if !ok {
		return false
	}
	if adv := s.participants[via]; adv != nil && !adv.cfg.Export.Allows(viewer, prefix) {
		return false
	}
	return communityAllows(s.communityAS, r, viewer)
}

// GlobalBest returns the best route for prefix across every participant's
// announcements, with no viewer exclusion — the route server's single
// default next hop used by the SDX's forwarding-equivalence-class grouping
// (§4.2 pass 2).
func (s *Server) GlobalBest(prefix iputil.Prefix) *bgp.Route {
	sh := &s.shards[bgp.ShardOf(prefix)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entries[prefix].global
}

// AnnouncedPrefixes returns the prefixes participant as currently
// announces, sorted.
func (s *Server) AnnouncedPrefixes(as uint32) []iputil.Prefix {
	var out []iputil.Prefix
	s.adjIn.Walk(func(prefix iputil.Prefix, routes []*bgp.Route) bool {
		for _, r := range routes {
			if r.PeerAS == as {
				out = append(out, prefix)
				break
			}
		}
		return true
	})
	return out
}

// Prefixes returns every prefix known to the route server, sorted.
func (s *Server) Prefixes() []iputil.Prefix {
	return s.adjIn.Prefixes()
}

// RIB exposes the merged Adj-RIB-In (read-only use: attribute filters such
// as RIB().FilterASPath for §3.2-style policies).
func (s *Server) RIB() *bgp.RIB { return s.adjIn }

// UpdatesProcessed returns the number of UPDATE messages applied.
func (s *Server) UpdatesProcessed() int {
	return int(s.updates.Load())
}
