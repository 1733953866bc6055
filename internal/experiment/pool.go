package experiment

import (
	"fmt"

	"mtmrp/internal/core"
	"mtmrp/internal/network"
)

// poolKey is a session's shape: everything a Session bakes into its
// long-lived structures when it is built, and what Session.Reset refuses
// to change. Per-run inputs (seed, topology instance, receivers, packet
// counts, N, δ, faults) are applied by Session.Reset and deliberately
// absent. Mobility is also absent: it is per-run state — Reset rebinds the
// session's dynamic link table to the start positions and redraws the
// motion plan — so mobile and static runs of one shape share a session.
type poolKey struct {
	Protocol          Protocol
	MAC               network.MACKind
	DisableCollisions bool
	SigmaDB           float64
	Nodes             int     // topology node count
	Range             float64 // nominal radio range (PHY params derive from it)
	// Core is the MTMRP configuration the scenario overrides; zero when
	// its routers derive theirs from Protocol, N and Delta.
	Core core.Config
}

// SessionPool reuses fully-built sessions across Monte-Carlo runs that
// share a shape, so the steady state of a sweep allocates (almost)
// nothing: the simulator arena, channel tables, MAC state, neighbor
// tables, per-session protocol blocks and metric sets are all rewound in
// place instead of rebuilt. Every session it hands out comes from
// NewSession or Session.Reset, so results are bit-identical to fresh
// runs — the pool is purely a performance cache.
//
// A pool is single-goroutine, like the sessions inside it; sweep workers
// each own one (via sweep.Config.WorkerState).
type SessionPool struct {
	// sessions holds the pooled sessions of each shape. Run uses the
	// first; a round whose rows share a shape takes one each, in order.
	sessions map[poolKey][]*Session

	// Per-round scratch of RunRound, kept so rounds allocate nothing:
	// rows[r] is row r's session, and used counts the sessions of each
	// shape the round has taken.
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

func shapeOf(sc Scenario) poolKey {
	k := poolKey{
		Protocol:          sc.Protocol,
		MAC:               sc.Radio.MAC,
		DisableCollisions: sc.Radio.DisableCollisions,
		SigmaDB:           sc.Radio.ShadowingSigmaDB,
		Nodes:             sc.Topo.N(),
		Range:             sc.Topo.Range,
	}
	if c := sc.coreOverride(); c != nil {
		k.Core = *c
	}
	return k
}

// session returns a session reset to sc: the next pooled session of its
// shape not taken since used was cleared (built and pooled if there are
// too few), or a new, unpooled one for a traced scenario.
func (p *SessionPool) session(sc Scenario) (*Session, error) {
	if sc.TraceWriter != nil {
		return NewSession(sc) // it logs to its own writer
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	key := shapeOf(sc)
	k := p.used[key]
	p.used[key]++
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
// like the package-level Run, through the first pooled session of the
// scenario's shape (built and pooled if there is none yet; a traced
// scenario gets a session of its own).
//
// The returned Outcome aliases the session (Net, Routers): it is valid
// until the next Run or RunRound call on this pool. Sweep drivers extract
// their metrics before the next round, which satisfies this by
// construction.
func (p *SessionPool) Run(sc Scenario) (*Outcome, error) {
	clear(p.used)
	s, err := p.session(sc)
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
// outcomes alias the rows' sessions and are valid until the next Run or
// RunRound call on this pool.
//
// The rows of a round usually run the same HELLO phase (sameHello), and
// the pool simulates it once: the first row running on proto.Base
// routers runs HELLO, and every later row with the same HELLO inputs
// adopts that row's post-HELLO state instead. Rows that cannot share —
// Flooding and GMR, scenarios with other HELLO inputs, and traced rows —
// run their own HELLO. Every row then runs its discovery and data
// phases, so results are bit-identical to running the rows one by one.
//
// RunRound returns the number of events the round simulated: an adopted
// HELLO phase counts once, in the row that ran it, although every
// adopting session's Processed counts it too.
func (p *SessionPool) RunRound(scs []Scenario, each func(row int, out *Outcome) error) (uint64, error) {
	if err := p.startRound(scs); err != nil {
		return 0, err
	}
	return p.finishRound(each)
}

// startRound takes a session reset to every row and brings each past
// HELLO, by running it or by adopting it from the round's first
// proto.Base row.
func (p *SessionPool) startRound(scs []Scenario) error {
	clear(p.used)
	p.rows = p.rows[:0]
	var src *Session
	for r, sc := range scs {
		s, err := p.session(sc)
		if err != nil {
			return &RowError{r, err}
		}
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
func (p *SessionPool) finishRound(each func(row int, out *Outcome) error) (uint64, error) {
	var events uint64
	for r, s := range p.rows {
		out, err := s.finish()
		if err != nil {
			return 0, &RowError{r, err}
		}
		events += out.Net.Sim.Processed() - s.adoptedEvents
		if err := each(r, out); err != nil {
			return 0, err
		}
	}
	return events, nil
}
