package experiment

import (
	"fmt"

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
	// sessions holds the pooled sessions of each shape. Run uses the
	// first; a round whose rows share a shape takes one each, in order.
	sessions map[poolKey][]*Session

	// Per-round scratch of RunRound, kept so rounds allocate nothing:
	// rows[r] is row r's session (nil for a row run fresh), and used
	// counts the sessions of each shape the round has taken.
	rows []*Session
	used map[poolKey]int

	// adopted counts the HELLO phases rows took from an earlier row of
	// their round instead of simulating them.
	adopted int
}

// NewSessionPool returns an empty pool.
func NewSessionPool() *SessionPool {
	return &SessionPool{sessions: make(map[poolKey][]*Session), used: make(map[poolKey]int)}
}

// pooled reports whether sc can run through a pooled session. Scenarios
// that need construction-time features a reset cannot re-apply — a
// TraceWriter, or Proto/Core overrides — run fresh instead.
func pooled(sc Scenario) bool {
	return sc.TraceWriter == nil && sc.Proto == nil && sc.Core == nil && sc.Topo != nil
}

func shapeOf(sc Scenario) poolKey {
	return poolKey{
		Protocol:          sc.Protocol,
		MAC:               sc.Radio.MAC,
		DisableCollisions: sc.Radio.DisableCollisions,
		SigmaDB:           sc.Radio.ShadowingSigmaDB,
		Nodes:             sc.Topo.N(),
		Range:             sc.Topo.Range,
	}
}

// session returns the k-th pooled session of sc's shape, reset to sc, or
// builds and pools it if the pool has fewer.
func (p *SessionPool) session(sc Scenario, k int) (*Session, error) {
	key := shapeOf(sc)
	if ss := p.sessions[key]; k < len(ss) {
		return ss[k], ss[k].Reset(sc)
	}
	s, err := NewSession(sc)
	if err != nil {
		return nil, err
	}
	p.sessions[key] = append(p.sessions[key], s)
	return s, nil
}

// Run executes one complete session — HELLO, discovery, data — exactly
// like the package-level Run, but through a pooled session when one with
// the scenario's shape exists (resetting it in place) and pooling the
// session it builds otherwise. Scenarios a pooled session cannot take
// fall back to a fresh, unpooled Run.
//
// The returned Outcome aliases the pooled session (Net, Routers): it is
// valid until the next Run or RunRound call on this pool. Sweep drivers
// extract their metrics before the next round, which satisfies this by
// construction.
func (p *SessionPool) Run(sc Scenario) (*Outcome, error) {
	if !pooled(sc) {
		return Run(sc)
	}
	s, err := p.session(sc, 0)
	if err != nil {
		return nil, err
	}
	s.RunHello()
	return s.finish()
}

// RowError reports which row of a round failed.
type RowError struct {
	Row int
	Err error
}

// Error implements error.
func (e *RowError) Error() string { return fmt.Sprintf("row %d: %v", e.Row, e.Err) }

// Unwrap returns the row's error.
func (e *RowError) Unwrap() error { return e.Err }

// RunRound runs the rows of one paired round, each exactly as Run would,
// and hands every row's outcome to each in row order. A row's failure is
// returned as a *RowError; an error from each is returned as is. The
// outcomes alias pooled sessions and are valid until the next Run or
// RunRound call on this pool.
//
// The rows of a round usually run the same HELLO phase (sameHello), and
// the pool simulates it once: the first row running on proto.Base
// routers runs HELLO, and every later row with the same HELLO inputs
// adopts that row's post-HELLO state instead. Rows that cannot share —
// Flooding and GMR, scenarios with other HELLO inputs, and rows that run
// fresh — run their own HELLO. Every row then runs its discovery and
// data phases, so results are bit-identical to running the rows one by
// one.
//
// RunRound returns the number of events the round simulated: an adopted
// HELLO phase counts once, in the row that ran it, although every
// adopting session's Processed counts it too.
func (p *SessionPool) RunRound(scs []Scenario, each func(row int, out *Outcome) error) (uint64, error) {
	if err := p.startRound(scs); err != nil {
		return 0, err
	}
	return p.finishRound(scs, each)
}

// startRound takes and resets a pooled session for every pooled row and
// brings each past HELLO, by running it or by adopting it from the
// round's first proto.Base row.
func (p *SessionPool) startRound(scs []Scenario) error {
	clear(p.used)
	p.rows = p.rows[:0]
	var src *Session
	for r, sc := range scs {
		if !pooled(sc) {
			p.rows = append(p.rows, nil)
			continue
		}
		key := shapeOf(sc)
		s, err := p.session(sc, p.used[key])
		if err != nil {
			return &RowError{r, err}
		}
		p.used[key]++
		p.rows = append(p.rows, s)
		base := helloBase(s.routers[0]) != nil
		if base && src != nil && sameHello(src.sc, s.sc) {
			s.adoptHello(src)
			p.adopted++
			continue
		}
		s.RunHello()
		if base && src == nil {
			src = s
		}
	}
	return nil
}

// finishRound runs every row on from where startRound left it and hands
// its outcome to each.
func (p *SessionPool) finishRound(scs []Scenario, each func(row int, out *Outcome) error) (uint64, error) {
	var events uint64
	for r, s := range p.rows {
		var out *Outcome
		var err error
		if s == nil {
			out, err = Run(scs[r])
		} else {
			out, err = s.finish()
		}
		if err != nil {
			return 0, &RowError{r, err}
		}
		events += out.Net.Sim.Processed()
		if s != nil {
			events -= s.adoptedEvents
		}
		if err := each(r, out); err != nil {
			return 0, err
		}
	}
	return events, nil
}
