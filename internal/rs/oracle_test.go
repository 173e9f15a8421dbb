package rs

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
	"sdx/internal/telemetry"
)

// The decision process keeps one common best route per prefix plus
// exceptions; the tests here check it against ReferenceLocRIB, the naive
// per-viewer pass, after every operation of seeded random sequences.

// oracleAS is the pool the random sequences draw participants from. The
// last AS shares its low 16 bits with the first (communities carry only
// 16 bits of the peer AS), so a community aimed at one names both.
var oracleAS = []uint32{100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 65536 + 100}

var oraclePrefixes = func() []iputil.Prefix {
	var out []iputil.Prefix
	for i := 0; i < 6; i++ {
		out = append(out, iputil.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i)))
	}
	return out
}()

// viewRecorder keeps the Loc-RIB a participant learns from its Advertise
// callback, which may fire concurrently from different shards.
type viewRecorder struct {
	mu   sync.Mutex
	view map[iputil.Prefix]*bgp.Route
}

func (v *viewRecorder) advertise(p iputil.Prefix, r *bgp.Route) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if r == nil {
		delete(v.view, p)
	} else {
		v.view[p] = r
	}
}

// oracleRun drives one random sequence against a server and checks it.
type oracleRun struct {
	t    *testing.T
	rng  *rand.Rand
	s    *Server
	reg  *telemetry.Registry
	ref  map[uint32]map[iputil.Prefix]*bgp.Route
	recs map[uint32]*viewRecorder
}

func (o *oracleRun) randomExport() *ExportPolicy {
	if o.rng.Intn(3) == 0 {
		return nil
	}
	e := &ExportPolicy{DenyAllTo: map[uint32]bool{}, DenyTo: map[uint32][]iputil.Prefix{}}
	for i := o.rng.Intn(2); i > 0; i-- {
		e.DenyAllTo[oracleAS[o.rng.Intn(len(oracleAS))]] = o.rng.Intn(4) != 0
	}
	for i := o.rng.Intn(4); i > 0; i-- {
		to := oracleAS[o.rng.Intn(len(oracleAS))]
		e.DenyTo[to] = append(e.DenyTo[to], oraclePrefixes[o.rng.Intn(len(oraclePrefixes))])
	}
	return e
}

func (o *oracleRun) add(as uint32) {
	cfg := ParticipantConfig{AS: as, RouterID: iputil.Addr(o.rng.Intn(8)), Export: o.randomExport()}
	if o.rng.Intn(2) == 0 {
		rec := &viewRecorder{view: map[iputil.Prefix]*bgp.Route{}}
		cfg.Advertise = rec.advertise
		o.recs[as] = rec
	}
	if err := o.s.AddParticipant(cfg); err != nil {
		o.t.Fatal(err)
	}
}

// randomUpdate announces or withdraws a few prefixes. First ASes come
// from a small pool so routes share MED groups.
func (o *oracleRun) randomUpdate() *bgp.Update {
	var ps []iputil.Prefix
	for _, i := range o.rng.Perm(len(oraclePrefixes))[:1+o.rng.Intn(3)] {
		ps = append(ps, oraclePrefixes[i])
	}
	if o.rng.Intn(4) == 0 {
		return &bgp.Update{Withdrawn: ps}
	}
	attrs := &bgp.PathAttrs{NextHop: iputil.Addr(o.rng.Intn(1000))}
	for i := 0; i <= o.rng.Intn(3); i++ {
		attrs.ASPath = append(attrs.ASPath, 7000+uint32(o.rng.Intn(3)))
	}
	if o.rng.Intn(2) == 0 {
		attrs.MED, attrs.HasMED = uint32(o.rng.Intn(3)), true
	}
	if o.rng.Intn(6) == 0 {
		attrs.LocalPref, attrs.HasLocalPref = 150, true
	}
	for i := o.rng.Intn(3); i > 0; i-- {
		peer := oracleAS[o.rng.Intn(len(oracleAS))] & 0xffff
		switch o.rng.Intn(4) {
		case 0:
			attrs.Communities = append(attrs.Communities, peer) // (0, peer)
		case 1:
			attrs.Communities = append(attrs.Communities, rsAS&0xffff) // (0, rsAS)
		case 2:
			attrs.Communities = append(attrs.Communities, rsAS<<16|peer) // (rsAS, peer)
		default:
			attrs.Communities = append(attrs.Communities, 3000<<16|peer) // not for the route server
		}
	}
	return &bgp.Update{Attrs: attrs, NLRI: ps}
}

func (o *oracleRun) registered() []uint32 { return o.s.Participants() }

func (o *oracleRun) pick(from []uint32) uint32 { return from[o.rng.Intn(len(from))] }

// step runs one random operation and returns its change records (nil
// and false for operations that return none).
func (o *oracleRun) step() (string, []Change, bool) {
	reg := o.registered()
	switch k := o.rng.Intn(20); {
	case k < 12 && len(reg) > 0:
		var batch []PeerUpdate
		for i := 0; i <= o.rng.Intn(3); i++ {
			from := o.pick(reg)
			if o.rng.Intn(10) == 0 {
				from = o.pick(oracleAS) // unregistered senders are accepted too
			}
			batch = append(batch, PeerUpdate{From: from, Update: o.randomUpdate()})
		}
		return fmt.Sprintf("apply %d updates", len(batch)), o.s.Apply(batch), true
	case k < 15:
		var absent []uint32
		for _, as := range oracleAS {
			if !slices.Contains(reg, as) {
				absent = append(absent, as)
			}
		}
		if len(absent) == 0 {
			return "nothing", nil, false
		}
		as := o.pick(absent)
		o.add(as)
		return fmt.Sprintf("add AS%d", as), nil, false
	case k < 17 && len(reg) > 0:
		as := o.pick(reg)
		delete(o.recs, as)
		return fmt.Sprintf("remove AS%d", as), o.s.RemoveParticipant(as), true
	case k < 19 && len(reg) > 0:
		as := o.pick(reg)
		return fmt.Sprintf("flush AS%d", as), o.s.FlushPeer(as), true
	case k == 19:
		o.s.EnableCommunities(rsAS)
		return "enable communities", nil, false
	}
	return "nothing", nil, false
}

// expand flattens change records into per-participant Events, sorted by
// (prefix, participant) when the records are sorted by prefix.
func expand(changes []Change) []Event {
	var out []Event
	for i := range changes {
		changes[i].Each(func(e Event) bool {
			out = append(out, e)
			return true
		})
	}
	return out
}

// expectedEvents diffs two oracle Loc-RIBs over the participants
// registered after the operation, in (prefix, participant) order.
func expectedEvents(before, after map[uint32]map[iputil.Prefix]*bgp.Route) []Event {
	var ases []uint32
	seen := map[iputil.Prefix]bool{}
	var prefixes []iputil.Prefix
	for as, view := range after {
		ases = append(ases, as)
		for _, m := range []map[iputil.Prefix]*bgp.Route{before[as], view} {
			for p := range m {
				if !seen[p] {
					seen[p] = true
					prefixes = append(prefixes, p)
				}
			}
		}
	}
	slices.Sort(ases)
	slices.SortFunc(prefixes, iputil.Prefix.Compare)
	var out []Event
	for _, p := range prefixes {
		for _, as := range ases {
			if o, n := before[as][p], after[as][p]; o != n {
				out = append(out, Event{Participant: as, Prefix: p, Old: o, New: n})
			}
		}
	}
	return out
}

// check compares every reader with the oracle.
func (o *oracleRun) check(op string, changes []Change, hasChanges bool) {
	t := o.t
	t.Helper()
	ref := o.s.ReferenceLocRIB()
	if hasChanges {
		want, got := expectedEvents(o.ref, ref), expand(changes)
		if !slices.Equal(want, got) {
			t.Fatalf("%s: change records expand to\n%v\nwant\n%v", op, got, want)
		}
		for i := 1; i < len(changes); i++ {
			if changes[i-1].Prefix.Compare(changes[i].Prefix) >= 0 {
				t.Fatalf("%s: change records not one per prefix in order", op)
			}
		}
		for _, ch := range changes {
			n := 0
			ch.Each(func(Event) bool { n++; return true })
			if n == 0 {
				t.Fatalf("%s: record for %s changes no participant's view", op, ch.Prefix)
			}
		}
	}
	o.ref = ref

	total := 0
	for _, as := range oracleAS {
		view, registered := ref[as]
		total += len(view)
		got := o.s.BestRoutes(as)
		if !registered {
			if got != nil {
				t.Fatalf("%s: unregistered AS%d has a Loc-RIB %v", op, as, got)
			}
		} else if !mapsEqual(got, view) {
			t.Fatalf("%s: BestRoutes(AS%d) = %v, oracle %v", op, as, got, view)
		}
		for _, p := range oraclePrefixes {
			r, ok := o.s.BestRoute(as, p)
			if want, wantOK := view[p]; r != want || ok != wantOK {
				t.Fatalf("%s: BestRoute(AS%d, %s) = %v %v, oracle %v %v", op, as, p, r, ok, want, wantOK)
			}
		}
		if rec := o.recs[as]; rec != nil && !mapsEqual(rec.view, view) {
			t.Fatalf("%s: AS%d learned %v through Advertise, oracle %v", op, as, rec.view, view)
		}
	}
	if g := o.reg.Snapshot().Gauges["rs.loc_rib_routes"]; g != int64(total) {
		t.Fatalf("%s: rs.loc_rib_routes = %d, oracle %d", op, g, total)
	}
	for _, p := range oraclePrefixes {
		if got, want := o.s.GlobalBest(p), bgp.Best(o.s.RIB().Routes(p)); got != want {
			t.Fatalf("%s: GlobalBest(%s) = %v, want %v", op, p, got, want)
		}
	}
}

func mapsEqual(a, b map[iputil.Prefix]*bgp.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for p, r := range a {
		if b[p] != r {
			return false
		}
	}
	return true
}

// TestDecisionMatchesOracle runs seeded random sequences of announcements
// and withdrawals (shared first-AS MED groups, the three route-server
// community forms, export policies) mixed with late joins, removals,
// peer flushes and enabling communities, and after every operation
// checks BestRoute, BestRoutes, Advertise callbacks, the expanded change
// records and the Loc-RIB gauge against the naive per-viewer oracle.
func TestDecisionMatchesOracle(t *testing.T) {
	seeds, steps := 60, 150
	if testing.Short() {
		seeds = 10
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			o := &oracleRun{t: t, rng: rand.New(rand.NewSource(int64(seed))), s: New(WithMetrics(reg)),
				reg: reg, ref: map[uint32]map[iputil.Prefix]*bgp.Route{}, recs: map[uint32]*viewRecorder{}}
			if seed%4 != 0 {
				o.s.EnableCommunities(rsAS)
			}
			for _, i := range o.rng.Perm(len(oracleAS))[:4+o.rng.Intn(4)] {
				o.add(oracleAS[i])
			}
			o.check("setup", nil, false)
			for i := 0; i < steps; i++ {
				op, changes, ok := o.step()
				o.check(fmt.Sprintf("step %d (%s)", i, op), changes, ok)
			}
		})
	}
}

// TestExceptionUsesFilteredBest pins why an exception is bgp.Best over
// the participant's own candidates rather than the first route of a
// global ranking it may receive: deterministic MED is not a total order.
// A and B share first AS 1 (A wins on MED), C has first AS 2 and beats A
// on router ID, so C is the global best. Without A, B beats C on router
// ID: A's advertiser must get B, not C.
func TestExceptionUsesFilteredBest(t *testing.T) {
	s := New()
	for _, p := range []ParticipantConfig{
		{AS: 10, RouterID: 5}, // advertises A
		{AS: 20, RouterID: 1}, // advertises B
		{AS: 30, RouterID: 3}, // advertises C
		{AS: 40, RouterID: 9}, // advertises nothing
	} {
		if err := s.AddParticipant(p); err != nil {
			t.Fatal(err)
		}
	}
	p := pfx("10.0.0.0/8")
	s.Apply([]PeerUpdate{
		{From: 10, Update: announceAttrs("10.0.0.0/8", bgp.PathAttrs{ASPath: []uint32{1}, MED: 0, HasMED: true})},
		{From: 20, Update: announceAttrs("10.0.0.0/8", bgp.PathAttrs{ASPath: []uint32{1}, MED: 10, HasMED: true})},
		{From: 30, Update: announceAttrs("10.0.0.0/8", bgp.PathAttrs{ASPath: []uint32{2}})},
	})
	if g := s.GlobalBest(p); g == nil || g.PeerAS != 30 {
		t.Fatalf("global best %v, want C (AS30)", g)
	}
	want := map[uint32]uint32{10: 20, 20: 30, 30: 10, 40: 30}
	ref := s.ReferenceLocRIB()
	for viewer, via := range want {
		r, ok := s.BestRoute(viewer, p)
		if !ok || r.PeerAS != via {
			t.Fatalf("AS%d best %v, want via AS%d", viewer, r, via)
		}
		if ref[viewer][p] != r {
			t.Fatalf("AS%d best %v, oracle %v", viewer, r, ref[viewer][p])
		}
	}
}

// TestApplySharesOneAttrsCopyPerUpdate: Apply copies an UPDATE's
// attributes once for all its prefixes, so later changes to the caller's
// Update leave the stored routes alone.
func TestApplySharesOneAttrsCopyPerUpdate(t *testing.T) {
	s := newServer(t, 100, 200)
	u := announce([]string{"10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"}, 200, 900)
	u.Attrs.Communities = []uint32{1}
	s.HandleUpdate(200, u)
	u.Attrs.ASPath[1] = 901
	u.Attrs.Communities[0] = 2
	u.Attrs.MED, u.Attrs.HasMED = 7, true

	var first *bgp.PathAttrs
	for _, p := range []string{"10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"} {
		r, ok := s.BestRoute(100, pfx(p))
		if !ok {
			t.Fatalf("no route for %s", p)
		}
		if a := r.Attrs; a == u.Attrs || a.ASPath[1] != 900 || a.Communities[0] != 1 || a.HasMED {
			t.Fatalf("%s: stored attributes follow the caller's update: %v", p, a)
		}
		if first == nil {
			first = r.Attrs
		} else if r.Attrs != first {
			t.Fatalf("%s: attributes copied per prefix, want one copy per UPDATE", p)
		}
	}
}
