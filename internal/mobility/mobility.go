// Package mobility generates deterministic node-motion plans for dynamic
// topologies: random-waypoint motion and reference-point group mobility,
// the two models every mobile-multicast comparison study runs.
//
// The package follows the same determinism house rule as internal/fault: a
// Plan is drawn up front from a dedicated RNG substream in a fixed order —
// one (destination, speed, pause) tuple per leg, legs in time order, nodes
// in index order — so it is a pure function of (Config, stream). Motion is
// then executed as ordinary simulator events (see Mover): at each tick the
// piecewise-linear paths are interpolated and changed positions pushed
// into a channel.DynamicLinkTable. No randomness is consumed at run time,
// which is what keeps mobile runs bit-identical across worker counts and
// fresh-versus-pooled sessions.
package mobility

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"mtmrp/internal/geom"
	"mtmrp/internal/rng"
	"mtmrp/internal/sim"
)

// Model selects the motion model.
type Model uint8

// The supported motion models. None is the zero value: a scenario without
// motion, taking the static link-table path untouched.
const (
	None Model = iota
	// RandomWaypoint moves each node independently: pick a uniform
	// destination in the field, travel at a uniform speed, pause, repeat.
	RandomWaypoint
	// RPGM is reference-point group mobility: group reference centers do
	// random-waypoint motion and members translate rigidly with their
	// center (offset = their start position relative to the center's),
	// clamped to the field — correlated motion, as in a platoon.
	RPGM
)

// modelNames is the one table of motion-model spellings, indexed by Model:
// the canonical name first, then the other accepted spellings.
var modelNames = [...][]string{
	None:           {"none", "static"},
	RandomWaypoint: {"waypoint", "random-waypoint", "rwp"},
	RPGM:           {"rpgm"},
}

// String returns the model's canonical name.
func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m][0]
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// ParseModel resolves any accepted spelling of a motion model, ignoring
// case and surrounding space. The empty name matches no model: what an
// omitted model means is the caller's default.
func ParseModel(name string) (Model, bool) {
	s := strings.ToLower(strings.TrimSpace(name))
	for m, names := range modelNames {
		if slices.Contains(names, s) {
			return Model(m), true
		}
	}
	return None, false
}

// Knot is one vertex of a piecewise-linear path: the node is at Pos at
// virtual time At (relative to the start of motion) and moves linearly to
// the next knot. Repeated positions encode pauses.
type Knot struct {
	At  sim.Time   `json:"at_ns"`
	Pos geom.Point `json:"pos"`
}

// Path is one node's motion: knots in ascending time order, starting at
// relative time 0. After the last knot the node stays put.
type Path []Knot

// At interpolates the position at relative time t. cursor caches the
// current segment so a monotonically advancing caller pays O(1) per call;
// it is rewound automatically if t moves backwards.
func (p Path) At(t sim.Time, cursor *int) geom.Point {
	c := *cursor
	if c >= len(p) {
		c = len(p) - 1
	}
	for c > 0 && p[c].At > t {
		c--
	}
	for c+1 < len(p) && p[c+1].At <= t {
		c++
	}
	*cursor = c
	if c+1 >= len(p) {
		return p[c].Pos
	}
	a, b := p[c], p[c+1]
	if t <= a.At || b.At == a.At {
		return a.Pos
	}
	f := float64(t-a.At) / float64(b.At-a.At)
	return geom.Point{
		X: a.Pos.X + (b.Pos.X-a.Pos.X)*f,
		Y: a.Pos.Y + (b.Pos.Y-a.Pos.Y)*f,
	}
}

// End returns the time of the last knot — when the path freezes.
func (p Path) End() sim.Time {
	if len(p) == 0 {
		return 0
	}
	return p[len(p)-1].At
}

// Distance returns the total distance the path travels.
func (p Path) Distance() float64 {
	d := 0.0
	for k := 1; k < len(p); k++ {
		d += p[k-1].Pos.Dist(p[k].Pos)
	}
	return d
}

// Plan is the complete motion of one run: one path per node, relative to
// the instant motion is armed. Plans are inert data — replayable,
// serializable (see Save/Load) and shareable across the protocol variants
// of a paired Monte-Carlo round.
type Plan struct {
	Field float64 `json:"field"`
	Paths []Path  `json:"paths"`
}

// N returns the number of nodes the plan covers.
func (pl *Plan) N() int { return len(pl.Paths) }

// End returns the time of the last knot across all paths.
func (pl *Plan) End() sim.Time {
	var end sim.Time
	for _, p := range pl.Paths {
		if e := p.End(); e > end {
			end = e
		}
	}
	return end
}

// Config parameterises Draw.
type Config struct {
	// Model selects the motion model; None yields a frozen plan.
	Model Model
	// Field is the deployment edge length in meters; waypoints are drawn
	// uniformly inside [0,Field]² and RPGM member positions clamp to it.
	Field float64
	// MinSpeed and MaxSpeed bound the per-leg uniform speed in m/s.
	// MinSpeed <= 0 defaults to MaxSpeed/10 — the standard guard against
	// the random-waypoint speed-decay pathology (legs drawn near zero
	// speed take near-infinite time, freezing the model's average speed).
	MinSpeed, MaxSpeed float64
	// Pause is the maximum waypoint pause; each pause is uniform in
	// [0,Pause]. Zero means continuous motion.
	Pause sim.Time
	// Horizon is how much virtual time the plan must cover; legs are drawn
	// until each path reaches it.
	Horizon sim.Time
	// Groups is the RPGM group count (default 1); node i belongs to group
	// i mod Groups.
	Groups int
	// Pinned lists nodes that never move (typically the multicast source,
	// mirroring fault.PlanConfig.Protect). Pinned nodes consume no draws.
	Pinned []int
}

// Draw generates a motion plan from r in a fixed draw order, making the
// plan a pure function of (cfg, stream): RandomWaypoint draws each node's
// legs in node-index order; RPGM draws the group reference paths in group
// order (members consume no draws of their own). start gives the nodes'
// positions at motion start — every path begins exactly there, so arming
// a plan never teleports a node.
func Draw(cfg Config, start []geom.Point, r *rng.RNG) Plan {
	pl := Plan{Field: cfg.Field, Paths: make([]Path, len(start))}
	minS, maxS := cfg.MinSpeed, cfg.MaxSpeed
	if minS <= 0 {
		minS = maxS / 10
	}
	switch cfg.Model {
	case RandomWaypoint:
		for i, p := range start {
			if pinned(cfg.Pinned, i) || maxS <= 0 {
				pl.Paths[i] = Path{{At: 0, Pos: p}}
				continue
			}
			pl.Paths[i] = drawLegs(cfg, p, minS, maxS, r)
		}
	case RPGM:
		groups := cfg.Groups
		if groups <= 0 {
			groups = 1
		}
		// Reference centers start at the centroid of their members'
		// positions; each member's offset is its start position relative
		// to that centroid, so the group translates rigidly and no node
		// jumps at t=0.
		centers := make([]geom.Point, groups)
		counts := make([]int, groups)
		for i, p := range start {
			if pinned(cfg.Pinned, i) {
				continue
			}
			g := i % groups
			centers[g] = centers[g].Add(p)
			counts[g]++
		}
		refs := make([]Path, groups)
		for g := 0; g < groups; g++ {
			if counts[g] == 0 || maxS <= 0 {
				refs[g] = Path{{At: 0, Pos: centers[g]}}
				continue
			}
			centers[g] = centers[g].Scale(1 / float64(counts[g]))
			refs[g] = drawLegs(cfg, centers[g], minS, maxS, r)
		}
		for i, p := range start {
			if pinned(cfg.Pinned, i) {
				pl.Paths[i] = Path{{At: 0, Pos: p}}
				continue
			}
			ref := refs[i%groups]
			off := p.Sub(ref[0].Pos)
			path := make(Path, len(ref))
			// The first knot is the exact start position (center+off would
			// differ from it by rounding); later knots translate with the
			// reference, clamped to the field.
			path[0] = Knot{At: 0, Pos: p}
			for k := 1; k < len(ref); k++ {
				path[k] = Knot{At: ref[k].At, Pos: ref[k].Pos.Add(off).Clamp(cfg.Field)}
			}
			pl.Paths[i] = path
		}
	default:
		for i, p := range start {
			pl.Paths[i] = Path{{At: 0, Pos: p}}
		}
	}
	return pl
}

// drawLegs draws waypoint legs until the path covers cfg.Horizon. The
// per-leg draw order is fixed: destination X, destination Y, speed, then
// (when Pause > 0) the pause length.
func drawLegs(cfg Config, start geom.Point, minS, maxS float64, r *rng.RNG) Path {
	path := Path{{At: 0, Pos: start}}
	pos := start
	t := sim.Time(0)
	for t < cfg.Horizon {
		dest := geom.Point{X: r.Range(0, cfg.Field), Y: r.Range(0, cfg.Field)}
		speed := r.Range(minS, maxS)
		travel := sim.Seconds(pos.Dist(dest) / speed)
		if travel < sim.Nanosecond {
			travel = sim.Nanosecond // degenerate: dest == pos
		}
		t += travel
		path = append(path, Knot{At: t, Pos: dest})
		pos = dest
		if cfg.Pause > 0 {
			if pause := sim.Time(r.Range(0, float64(cfg.Pause))); pause > 0 {
				t += pause
				path = append(path, Knot{At: t, Pos: pos})
			}
		}
	}
	return path
}

// pinned reports whether node i is in the pinned list.
func pinned(pin []int, i int) bool {
	for _, p := range pin {
		if p == i {
			return true
		}
	}
	return false
}

// MeanSpeed returns the plan-wide mean speed in m/s over [0, End()]:
// total distance over total time, averaged across moving nodes.
func (pl *Plan) MeanSpeed() float64 {
	end := pl.End().Seconds()
	if end <= 0 {
		return 0
	}
	total := 0.0
	for _, p := range pl.Paths {
		total += p.Distance()
	}
	if math.IsNaN(total) {
		return 0
	}
	return total / (end * float64(len(pl.Paths)))
}
