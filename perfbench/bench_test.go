package main

import (
	"reflect"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/experiments"
	"sdx/internal/iputil"
	"sdx/internal/workload"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	if v, ok := s.quantile(0.99); v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v (reportable %v), want 990 with 10 beyond", v, ok)
	}
	if _, ok := s[:999].quantile(0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be flagged")
	}
	if v := s.median(); v != 500 {
		t.Fatalf("median = %v, want 500", v)
	}
}

// A receipt carrying tag k converges every outstanding UPDATE of that
// prefix up to k (the queue may coalesce them), and nothing of another
// prefix or with a later tag.
func TestTrackerCoalescedReceipt(t *testing.T) {
	p, q := iputil.MustParsePrefix("16.0.0.0/24"), iputil.MustParsePrefix("16.0.1.0/24")
	tr := newTracker(4, 100)
	tr.start = time.Now()
	tr.expect(0, p, 0)
	tr.expect(1, q, time.Millisecond)
	tr.expect(2, p, 2*time.Millisecond)
	tr.expect(3, p, 3*time.Millisecond)
	tr.received(&bgp.Update{
		Attrs: &bgp.PathAttrs{MED: 102, HasMED: true},
		NLRI:  []iputil.Prefix{p},
	}, time.Now())
	got := []bool{tr.recv[0] >= 0, tr.recv[1] >= 0, tr.recv[2] >= 0, tr.recv[3] >= 0}
	if want := []bool{true, false, true, false}; !equalBools(got, want) {
		t.Fatalf("received = %v, want %v", got, want)
	}
	// Untagged and earlier-phase routes are ignored.
	tr.received(&bgp.Update{Attrs: &bgp.PathAttrs{MED: 7, HasMED: true}, NLRI: []iputil.Prefix{q}}, time.Now())
	tr.received(&bgp.Update{Attrs: &bgp.PathAttrs{}, NLRI: []iputil.Prefix{q}}, time.Now())
	if tr.recv[1] >= 0 {
		t.Fatal("a route without this phase's tag converged an UPDATE")
	}
}

func equalBools(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// A miniature exchange runs every phase, every correctness check and the
// traced per-layer measurements end to end over loopback sockets.
func TestMiniatureRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a whole exchange")
	}
	w := spec{Name: "mini", Participants: 30, Prefixes: 300, Groups: 40,
		BaseRate: 100, PeakRate: 1000, FwdChurnRate: 20,
		BaseShare: 0.4, PeakShare: 0.3, FwdShare: 0.3, Setups: 2}
	out, err := run(w, 7, 2*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("run: correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	for _, name := range perLayer {
		if _, ok := out.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
	}
	if out.Metrics["core.fast_compile_share"].Value < 0.95 {
		t.Errorf("grouped churn: fast-path share %v", out.Metrics["core.fast_compile_share"].Value)
	}
}

func TestTwoOctetASGuard(t *testing.T) {
	w := spec{Name: "big", Participants: 600, Prefixes: 1000}
	if _, err := genInputs(w); err == nil {
		t.Fatal("an exchange with ASes past 65535 was accepted")
	}
}

// The grouped workloads run on experiments.NewGroupedExchange: their
// generated table and policies, loaded the way workload.Load loads an
// exchange, give the same routes and the same compiled fabric.
func TestGroupedInputsMatchExperiments(t *testing.T) {
	w := specs[0]
	if w.Name != "policy_churn" || w.Prefixes != max(2*w.Groups, 1000) {
		t.Fatalf("spec %+v is not a NewGroupedExchange exchange", w)
	}
	in, err := genInputs(w)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := experiments.NewGroupedExchange(w.Participants, w.Groups, exchangeSeed)
	if err != nil {
		t.Fatal(err)
	}
	got := core.NewController()
	for i := range in.x.Participants {
		wp := &in.x.Participants[i]
		if _, err := got.AddParticipant(core.ParticipantConfig{AS: wp.AS, Name: wp.Name, Ports: wp.Ports}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range in.x.Participants {
		as := in.x.Participants[i].AS
		got.ApplyUpdates(as, in.table[as]...)
	}
	if err := workload.InstallPolicies(got, in.policies); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*core.Controller{ref, got} {
		if rep := c.Recompile(); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	if g, r := len(got.Compiled().Groups), len(ref.Compiled().Groups); g != r {
		t.Fatalf("benchmark exchange has %d groups, NewGroupedExchange %d", g, r)
	}
	if got.Compiled().Canonical() != ref.Compiled().Canonical() {
		t.Fatal("compiled fabric differs from NewGroupedExchange's")
	}
	for i := range in.x.Participants {
		as := in.x.Participants[i].AS
		if !reflect.DeepEqual(got.RoutesFor(as), ref.RoutesFor(as)) {
			t.Fatalf("routes for AS%d differ from NewGroupedExchange's", as)
		}
	}
}
