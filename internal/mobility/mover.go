package mobility

import (
	"fmt"

	"mtmrp/internal/channel"
	"mtmrp/internal/geom"
	"mtmrp/internal/sim"
)

// Mover executes a Plan as ordinary simulator events: a self-rescheduling
// tick sweeps every path, interpolates the position at the current virtual
// time, and hands the tick's positions to DynamicLinkTable.MoveAll, which
// refills the link table once per tick (and not at all when no node
// moved). Ticks are plain AtCall events — closure-free, pooled by the
// scheduler — so motion interleaves with MAC, protocol and fault events
// under the normal deterministic (time, seq) ordering.
//
// Arming is idempotent per run: the session arms the mover once, at the
// start of its paced data phase, and Session.Reset builds a fresh mover
// (applyMobility) so the next run re-arms from scratch.
type Mover struct {
	plan   *Plan
	dyn    *channel.DynamicLinkTable
	step   sim.Time
	s      *sim.Simulator
	base   sim.Time
	end    sim.Time
	cursor []int
	pos    []geom.Point // the tick's positions, handed to MoveAll
	armed  bool
}

// DefaultStep is the position-update tick used when none is configured:
// 100 ms moves a 20 m/s node 2 m per tick, a twentieth of the 40 m radio
// range — fine-grained enough that connectivity changes between ticks are
// single-link events.
const DefaultStep = 100 * sim.Millisecond

// NewMover builds a mover that drives dyn along plan. step <= 0 takes
// DefaultStep. The plan must cover exactly the table's nodes.
func NewMover(plan *Plan, dyn *channel.DynamicLinkTable, step sim.Time) *Mover {
	if plan.N() != dyn.N() {
		panic(fmt.Sprintf("mobility: plan covers %d nodes, link table has %d", plan.N(), dyn.N()))
	}
	if step <= 0 {
		step = DefaultStep
	}
	n := plan.N()
	return &Mover{plan: plan, dyn: dyn, step: step, cursor: make([]int, n), pos: make([]geom.Point, n)}
}

// Arm schedules the tick chain covering [base, base+span] — clamped to
// the plan's own end, after which every path is frozen anyway. Repeated
// calls are no-ops: motion plays once per run.
func (m *Mover) Arm(s *sim.Simulator, base, span sim.Time) {
	if m.armed {
		return
	}
	m.armed = true
	m.s = s
	m.base = base
	m.end = base + span
	if e := base + m.plan.End(); e < m.end {
		m.end = e
	}
	for i := range m.cursor {
		m.cursor[i] = 0
	}
	if first := base + m.step; first <= m.end {
		s.AtCall(first, moverTickCB, m, 0)
	} else if m.end > base {
		s.AtCall(m.end, moverTickCB, m, 0)
	}
}

// Armed reports whether the mover has been armed this run.
func (m *Mover) Armed() bool { return m.armed }

// moverTickCB is the simulator callback for one motion tick.
func moverTickCB(arg any, _ int) {
	m := arg.(*Mover)
	t := m.s.Now()
	rel := t - m.base
	for i, path := range m.plan.Paths {
		m.pos[i] = path.At(rel, &m.cursor[i])
	}
	m.dyn.MoveAll(m.pos)
	if next := t + m.step; next < m.end {
		m.s.AtCall(next, moverTickCB, m, 0)
	} else if t < m.end {
		m.s.AtCall(m.end, moverTickCB, m, 0)
	}
}
