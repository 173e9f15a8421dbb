package rs

import (
	"sdx/internal/bgp"
	"sdx/internal/iputil"
)

// ReferenceLocRIB recomputes every registered participant's Loc-RIB from
// scratch with the naive per-viewer decision pass: for each participant
// and each prefix in the Adj-RIB-In, bgp.Best over the routes that
// participant may receive under the current configs. It keeps no state
// and shares none with the incremental decision process, which it exists
// to check; it costs O(participants × routes), so nothing on the update
// path calls it.
func (s *Server) ReferenceLocRIB() map[uint32]map[iputil.Prefix]*bgp.Route {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	out := make(map[uint32]map[iputil.Prefix]*bgp.Route, len(s.participants))
	for as := range s.participants {
		out[as] = make(map[iputil.Prefix]*bgp.Route)
	}
	s.adjIn.Walk(func(prefix iputil.Prefix, routes []*bgp.Route) bool {
		for as, view := range out {
			var candidates []*bgp.Route
			for _, r := range routes {
				if r.PeerAS == as {
					continue
				}
				if adv := s.participants[r.PeerAS]; adv != nil && !adv.cfg.Export.Allows(as, prefix) {
					continue
				}
				if !communityAllows(s.communityAS, r, as) {
					continue
				}
				candidates = append(candidates, r)
			}
			if best := bgp.Best(candidates); best != nil {
				view[prefix] = best
			}
		}
		return true
	})
	return out
}
