package core

import (
	"fmt"

	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
)

// PhysicalPort is one border-router attachment to the fabric. Its MAC and
// IXP-subnet IP are derived from the port ID (PortMAC / PortIP).
type PhysicalPort struct {
	ID pkt.PortID
}

// MAC returns the port's real MAC address.
func (p PhysicalPort) MAC() pkt.MAC { return PortMAC(p.ID) }

// IP returns the port's IXP-subnet address (used as BGP next hop for
// routes advertised through this port).
func (p PhysicalPort) IP() iputil.Addr { return PortIP(p.ID) }

// TermAction is what one policy term does with matching traffic. Exactly
// one of the forwarding choices is set; Mods (optional header rewrites)
// may accompany any of them.
type TermAction struct {
	Mods pkt.Mods

	// ToParticipant forwards to another participant's virtual switch
	// (outbound terms; §3.1 "fwd(B)"). Zero means unset.
	ToParticipant uint32
	// NoBGPCheck, together with ToParticipant, skips the BGP-consistency
	// restriction — the middlebox-redirection idiom (§2), where the
	// target hosts a middlebox and announces no routes of its own.
	NoBGPCheck bool
	// ToPort delivers on one of the participant's own physical ports
	// (inbound terms; §3.1 "fwd(B1)"). Zero means unset.
	ToPort pkt.PortID
	// Deliver resolves the packet's (possibly rewritten) destination IP
	// against the route server's current best routes and delivers it to
	// the owning participant — used by remote-participant policies such
	// as the wide-area load balancer (§5.2), where rewritten traffic must
	// continue along BGP-chosen paths.
	Deliver bool
	// Drop discards matching traffic.
	Drop bool
}

// Term is one policy term: a header match plus an action. Participants'
// policies are unions of terms (Pyretic parallel composition).
type Term struct {
	Match  pkt.Match
	Action TermAction
}

// Fwd builds the common "match >> fwd(participant)" outbound term.
func Fwd(m pkt.Match, toAS uint32) Term {
	return Term{Match: m, Action: TermAction{ToParticipant: toAS}}
}

// FwdMiddlebox builds a "match >> fwd(middlebox participant)" outbound
// term that bypasses the BGP-consistency restriction (§2's redirection
// through middleboxes).
func FwdMiddlebox(m pkt.Match, toAS uint32) Term {
	return Term{Match: m, Action: TermAction{ToParticipant: toAS, NoBGPCheck: true}}
}

// FwdPort builds the common "match >> fwd(port)" inbound term.
func FwdPort(m pkt.Match, port pkt.PortID) Term {
	return Term{Match: m, Action: TermAction{ToPort: port}}
}

// DropTerm builds a "match >> drop" term.
func DropTerm(m pkt.Match) Term {
	return Term{Match: m, Action: TermAction{Drop: true}}
}

// RewriteTerm builds a "match >> mod(...) >> deliver-by-BGP" term (the
// wide-area load balancer idiom).
func RewriteTerm(m pkt.Match, mods pkt.Mods) Term {
	return Term{Match: m, Action: TermAction{Mods: mods, Deliver: true}}
}

// ParticipantConfig declares one SDX participant.
type ParticipantConfig struct {
	AS       uint32
	Name     string
	Ports    []PhysicalPort // empty for remote participants
	RouterID iputil.Addr    // defaults to the first port's IP, or AS number
	Export   *rs.ExportPolicy
}

// Participant is the controller's view of one member AS and its policies.
type Participant struct {
	cfg   ParticipantConfig
	vport pkt.PortID

	outbound []Term // applied to traffic entering from own physical ports
	inbound  []Term // applied to traffic entering the virtual switch
}

// AS returns the participant's AS number.
func (p *Participant) AS() uint32 { return p.cfg.AS }

// Name returns the participant's display name.
func (p *Participant) Name() string { return p.cfg.Name }

// Ports returns the participant's physical ports.
func (p *Participant) Ports() []PhysicalPort { return p.cfg.Ports }

// VPort returns the participant's virtual-switch ingress port ID.
func (p *Participant) VPort() pkt.PortID { return p.vport }

// PrimaryPort returns the default delivery port (the first physical
// port); ok is false for remote participants.
func (p *Participant) PrimaryPort() (PhysicalPort, bool) {
	if len(p.cfg.Ports) == 0 {
		return PhysicalPort{}, false
	}
	return p.cfg.Ports[0], true
}

// HasPort reports whether id is one of the participant's physical ports.
func (p *Participant) HasPort(id pkt.PortID) bool {
	for _, pp := range p.cfg.Ports {
		if pp.ID == id {
			return true
		}
	}
	return false
}

func (p *Participant) routerID() iputil.Addr {
	if p.cfg.RouterID != 0 {
		return p.cfg.RouterID
	}
	if len(p.cfg.Ports) > 0 {
		return p.cfg.Ports[0].IP()
	}
	return iputil.Addr(p.cfg.AS)
}

// validateTerm checks a term against the participant's role.
func (p *Participant) validateTerm(t Term, inbound bool) error {
	a := t.Action
	set := 0
	if a.ToParticipant != 0 {
		set++
	}
	if a.ToPort != 0 {
		set++
	}
	if a.Deliver {
		set++
	}
	if a.Drop {
		set++
	}
	if set != 1 {
		return fmt.Errorf("core: term must have exactly one forwarding action, has %d", set)
	}
	if inbound {
		if a.ToParticipant != 0 {
			return fmt.Errorf("core: inbound terms cannot forward to a participant")
		}
		if a.NoBGPCheck {
			return fmt.Errorf("core: NoBGPCheck applies only to outbound terms")
		}
		if a.ToPort != 0 && !p.HasPort(a.ToPort) {
			return fmt.Errorf("core: inbound term forwards to foreign port %d", a.ToPort)
		}
	} else {
		if a.ToPort != 0 {
			return fmt.Errorf("core: outbound terms cannot forward to a port")
		}
		if a.Deliver {
			return fmt.Errorf("core: outbound terms cannot use BGP delivery")
		}
		if len(p.cfg.Ports) == 0 {
			return fmt.Errorf("core: remote participant %s cannot have outbound policies", p.cfg.Name)
		}
		if a.ToParticipant == p.cfg.AS {
			return fmt.Errorf("core: outbound term forwards to self")
		}
	}
	return nil
}
