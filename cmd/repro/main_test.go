package main

import (
	"context"
	"strings"
	"testing"

	"mtmrp"
)

// TestPrintTableMarksEmptyCells interrupts a Figure 5 sweep after its
// first run and checks that printTable shows every cell no run reached as
// "—" and every reached cell as "mean ± ci95", so a partial table cannot
// be read as measured zeros.
func TestPrintTableMarksEmptyCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := mtmrp.GroupSizeSweep(mtmrp.SweepConfig{
		Topo: mtmrp.GridTopo, Runs: 2, Seed: 2010, Protocols: mtmrp.AllProtocols,
		Engine: mtmrp.EngineOptions{Workers: 1, Ctx: ctx, Progress: func(mtmrp.Progress) { cancel() }},
	})
	if err == nil || !mtmrp.PartialOK(err) {
		t.Fatalf("sweep error = %v, want a cancellation", err)
	}
	empty, full := 0, 0
	for r := range res.Rows {
		for ai := range res.Axis {
			for m := range res.Metrics {
				if res.Cells[r][ai][m].N == 0 {
					empty++
				} else {
					full++
				}
			}
		}
	}
	if empty == 0 || full == 0 {
		t.Fatalf("interrupted sweep left %d empty and %d reached cells; want some of each", empty, full)
	}
	var b strings.Builder
	printTable(&b, res)
	out := b.String()
	if got := strings.Count(out, "—"); got != empty {
		t.Errorf("printed %d empty cells, want %d:\n%s", got, empty, out)
	}
	if got := strings.Count(out, "±"); got != full {
		t.Errorf("printed %d measured cells, want %d:\n%s", got, full, out)
	}
	// Columns stay aligned: every data line of a block is as wide as its
	// header line, counted in runes.
	for _, block := range strings.Split(out, "\n---")[1:] {
		lines := strings.Split(strings.TrimRight(block, "\n"), "\n")[1:]
		for _, l := range lines[1:] {
			if len([]rune(l)) != len([]rune(lines[0])) {
				t.Errorf("misaligned line %q under header %q", l, lines[0])
			}
		}
	}
}
