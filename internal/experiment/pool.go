package experiment

import (
	"mtmrp/internal/network"
)

// poolKey is the session shape that must match for reuse: everything a
// Session bakes into its long-lived structures at construction time.
// Per-run inputs (seed, topology instance, receivers, packet counts, N, δ)
// are applied by Session.Reset and deliberately absent. Mobility is also
// absent: it is per-run state — Reset rebinds the session's dynamic link
// table to the start positions and redraws the motion plan — so mobile
// and static runs of one shape share a pooled session.
type poolKey struct {
	Protocol          Protocol
	MAC               network.MACKind
	DisableCollisions bool
	SigmaDB           float64
	Nodes             int     // topology node count
	Range             float64 // nominal radio range (PHY params derive from it)
}

// SessionPool reuses fully-built sessions across Monte-Carlo runs that
// share a shape, so the steady state of a sweep allocates (almost)
// nothing: the simulator arena, channel tables, MAC state, neighbor
// tables, per-session protocol blocks and metric sets are all rewound in
// place instead of rebuilt. Results are bit-identical to fresh runs — the
// pool is purely a performance cache.
//
// A pool is single-goroutine, like the sessions inside it; sweep workers
// each own one (via sweep.Config.WorkerState).
type SessionPool struct {
	sessions map[poolKey]*Session
}

// NewSessionPool returns an empty pool.
func NewSessionPool() *SessionPool {
	return &SessionPool{sessions: make(map[poolKey]*Session)}
}

// Run executes one complete session — HELLO, discovery, data — exactly
// like the package-level Run, but through a pooled session when one with
// the scenario's shape exists (resetting it in place) and pooling the
// session it builds otherwise.
//
// Scenarios that need construction-time features a reset cannot re-apply —
// a TraceWriter, or Proto/Core overrides — fall back to a fresh, unpooled
// Run.
//
// The returned Outcome aliases the pooled session (Net, Routers): it is
// valid until the next Run call on this pool with the same shape. Sweep
// drivers extract their metrics before the next round, which satisfies
// this by construction.
func (p *SessionPool) Run(sc Scenario) (*Outcome, error) {
	if sc.TraceWriter != nil || sc.Proto != nil || sc.Core != nil || sc.Topo == nil {
		return Run(sc)
	}
	key := poolKey{
		Protocol:          sc.Protocol,
		MAC:               sc.Radio.MAC,
		DisableCollisions: sc.Radio.DisableCollisions,
		SigmaDB:           sc.Radio.ShadowingSigmaDB,
		Nodes:             sc.Topo.N(),
		Range:             sc.Topo.Range,
	}
	s, ok := p.sessions[key]
	if !ok {
		var err error
		s, err = NewSession(sc)
		if err != nil {
			return nil, err
		}
		p.sessions[key] = s
	} else if err := s.Reset(sc); err != nil {
		return nil, err
	}
	s.RunHello()
	s.RunDiscovery(sc.Traffic.DiscoveryRounds)
	if _, err := s.RunData(sc.Traffic.DataPackets); err != nil {
		return nil, err
	}
	return s.Outcome()
}
