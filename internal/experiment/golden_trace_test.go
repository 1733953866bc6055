package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mtmrp/internal/channel"
)

// traceDigest is one pinned frame digest (network.Network.Digest).
type traceDigest struct {
	Run    string `json:"run"`
	Digest string `json:"digest"`
}

func hexDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

// digestRounds runs a study's rounds through a session pool with the
// frame digest on and records every row's digest, round by round in row
// order.
type digestRounds struct {
	pool *SessionPool
	rows []string
	sums []traceDigest
}

func (d *digestRounds) RunRound(scs []Scenario, each func(row int, out *Outcome) error) (uint64, error) {
	for r := range scs {
		scs[r].digest = true
	}
	return d.pool.RunRound(scs, func(r int, out *Outcome) error {
		d.sums = append(d.sums, traceDigest{d.rows[r], hexDigest(out.Net.Digest())})
		return each(r, out)
	})
}

// goldenTraces digests every golden_fig5 row, then one paired round of a
// fault sweep, of a mobility sweep and of a lossy fault sweep.
func goldenTraces(t *testing.T) []traceDigest {
	t.Helper()
	var got []traceDigest
	fig5 := func(kind TopoKind, size, run int, p Protocol) {
		sc := goldenCell(t, kind, size, run, p)
		sc.digest = true
		out, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, traceDigest{fmt.Sprintf("fig5 %s %s size=%d run=%d", p, kind, size, run), hexDigest(out.Net.Digest())})
	}
	for _, p := range AllProtocols {
		for run := 0; run < 2; run++ {
			fig5(GridTopo, 20, run, p)
		}
	}
	for _, p := range AllProtocols {
		fig5(RandomTopo, 15, 0, p)
	}

	round := func(name string, protos []Protocol) (*digestRounds, EngineOptions) {
		d := &digestRounds{pool: NewSessionPool()}
		for _, p := range protos {
			d.rows = append(d.rows, name+" "+p.String())
		}
		return d, EngineOptions{Workers: 1, WorkerState: func() any { return d }}
	}
	faults := miniFaultConfig(1)
	faults.FailFractions, faults.Runs = []float64{0.2}, 1
	d, eng := round("faults", faults.Protocols)
	faults.Engine = eng
	if _, err := FaultSweep(faults); err != nil {
		t.Fatal(err)
	}
	got = append(got, d.sums...)

	mob := miniMobilityConfig(1)
	mob.Speeds, mob.Runs = []float64{15}, 1
	d, eng = round("mobility", mob.Protocols)
	mob.Engine = eng
	if _, err := MobilitySweep(mob); err != nil {
		t.Fatal(err)
	}
	got = append(got, d.sums...)

	loss := channel.DefaultLossConfig()
	d, eng = round("lossy", AllProtocols)
	if _, err := FaultSweep(FaultConfig{
		Topo: GridTopo, GroupSize: 10, FailFractions: []float64{0.2}, Runs: 1, Seed: 77,
		Protocols: AllProtocols, Packets: 8, Loss: &loss, Engine: eng,
	}); err != nil {
		t.Fatal(err)
	}
	return append(got, d.sums...)
}

// TestGoldenTrace pins the order of frames on the air, not only the
// results they sum to: the frame digest of every golden_fig5 row and of
// one fault, one mobility and one lossy round. A change that reorders
// same-instant frames, or shifts a frame by a nanosecond, and still lands
// on the same metrics passes the other goldens but fails here.
func TestGoldenTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	got := goldenTraces(t)
	path := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %d digests to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (run with -update on a known-good tree first)", err)
	}
	var want []traceDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden: %d pinned digests, produced %d", len(want), len(got))
	}
	seen := map[string]bool{}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("frame digest of %s: got %s, want %s", want[i].Run, got[i].Digest, want[i].Digest)
		}
		if seen[got[i].Digest] {
			t.Errorf("%s: digest %s repeats an earlier row's", got[i].Run, got[i].Digest)
		}
		seen[got[i].Digest] = true
	}
}
