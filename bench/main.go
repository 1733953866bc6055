// Command bench is the repository benchmark: it drives the four named
// workloads (fig5, dynamics, scale-10k, serve-mix) through the public entry
// points — experiment.RunSweepFromSpec, the phased Session API and the real
// cmd/mtmrd binary over loopback HTTP — checks their outputs, prints every
// metric by name and unit, and writes a JSON result file with provenance.
//
//	bash bench/run.sh --workload fig5 --seed 2010 --seconds 20 --trace 0
//	bash bench/run.sh                      # all four workloads, one child process each
//	bash bench/run.sh --trace 1            # per-layer metrics instead of end-to-end
//	.bench_build/bin/bench compare A.json... -- B.json...
//	.bench_build/bin/bench refserver 127.0.0.1:PORT   # serve-mix starts it itself
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metric table and what is deliberately left out.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	Seed    uint64
	Seconds time.Duration // how long the measured phase should last
	Trace   bool
	Workers int    // sweep workers and client connections: the CPU count
	Dir     string // scratch directory, removed when the run ends
	Mtmrd   string // path of the mtmrd binary (serve-mix)
}

// workload is one named input set of the benchmark: run measures the
// end-to-end metrics, trace replays it for the per-layer ones.
type workload struct {
	name       string
	why        string
	run, trace func(ctx context.Context, rc runConfig) (*report, error)
}

var workloads = []workload{
	{"fig5", "the paper's own Figure 5 sweep: thousands of short 100-node sessions on one shared grid link table; pool reset, scheduler, channel, MAC and protocol handlers dominate",
		func(ctx context.Context, rc runConfig) (*report, error) { return runSweeps(ctx, rc, fig5Specs) },
		func(ctx context.Context, rc runConfig) (*report, error) { return traceSweeps(ctx, rc, fig5Specs) }},
	{"dynamics", "mobility then fault sweeps: link-table writes under motion, paced traffic, refresh floods, soft-state expiry and crashes exercise the same layers differently",
		func(ctx context.Context, rc runConfig) (*report, error) { return runSweeps(ctx, rc, dynamicsSpecs) },
		func(ctx context.Context, rc runConfig) (*report, error) { return traceSweeps(ctx, rc, dynamicsSpecs) }},
	{"scale-10k", "serial 10k-node MTMRP sessions: neighbor tables, deep event-queue horizons and memory per node dominate; no sweep engine, pool reuse or HTTP",
		func(ctx context.Context, rc runConfig) (*report, error) { return runScale(ctx, rc, scale10k) },
		func(ctx context.Context, rc runConfig) (*report, error) { return traceScale(ctx, rc, scale10k) }},
	{"serve-mix", "open-loop HTTP mix against a sharded mtmrd fleet: cache hits bypass the simulator, store hits read disk, fresh specs fan out and compose",
		func(ctx context.Context, rc runConfig) (*report, error) {
			return runServe(ctx, rc, serveMix, execFleet(rc.Mtmrd), execRefServer)
		},
		func(ctx context.Context, rc runConfig) (*report, error) { return traceServe(ctx, rc, serveMix) }},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if len(os.Args) == 3 && os.Args[1] == "refserver" {
		os.Exit(refServerMain(os.Args[2]))
	}
	os.Exit(runMain())
}

func runMain() int {
	var (
		name   = flag.String("workload", "all", "workload to run: fig5, dynamics, scale-10k, serve-mix or all")
		seed   = flag.Uint64("seed", 2010, "workload seed; the same seed generates the same inputs")
		secs   = flag.Int("seconds", 20, "length of the measured phase in seconds")
		trace  = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
		outDir = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and trace files")
		mtmrd  = flag.String("mtmrd", filepath.Join(".bench_build", "bin", "mtmrd"), "mtmrd binary for serve-mix")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *secs < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hdr := resultFile{
		Seed: *seed, Seconds: *secs, Trace: *trace == 1, Started: time.Now().UTC(),
		Provenance: currentProvenance(),
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *name == "all" {
		return runAll(ctx, hdr, *outDir)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	dir, err := os.MkdirTemp(*outDir, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rc := runConfig{
		Seed: *seed, Seconds: time.Duration(*secs) * time.Second, Trace: *trace == 1,
		Workers: runtime.NumCPU(), Dir: dir, Mtmrd: *mtmrd,
	}
	res, err := runOne(ctx, w, rc, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	hdr.Workloads = []workloadResult{res}
	path := filepath.Join(*outDir, resultName(w.name, *seed, rc.Trace))
	if err := writeJSON(path, hdr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(os.Stdout, res)
	fmt.Fprintf(os.Stdout, "result file: %s\n", path)
	if err := printLastLine(os.Stdout, res.Correct, res.Attempted, res.Failed, res.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne executes one workload and turns its report into a result entry.
func runOne(ctx context.Context, w workload, rc runConfig, outDir string) (workloadResult, error) {
	start := time.Now()
	run := w.run
	if rc.Trace {
		run = w.trace
	}
	rep, err := run(ctx, rc)
	if err != nil {
		return workloadResult{}, err
	}
	if rep.attempted < 1 {
		return workloadResult{}, errors.New("no operation was attempted")
	}
	defs := endToEnd
	if rc.Trace {
		defs = perLayer
	}
	declared, extra, err := rep.split(defs)
	if err != nil {
		return workloadResult{}, err
	}
	res := workloadResult{
		Workload: w.name, Started: start.UTC(), WallS: time.Since(start).Seconds(),
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Failures: rep.failures,
		Valid: rep.invalid == "", Invalid: rep.invalid,
		Metrics: declared, Extra: extra,
	}
	if rep.traceFile != "" {
		res.TraceFile = filepath.Join(outDir, traceName(w.name, rc.Seed))
		if err := os.Rename(rep.traceFile, res.TraceFile); err != nil {
			return workloadResult{}, err
		}
	}
	return res, nil
}

// runAll runs every workload in a fresh child process, so garbage-collector
// state and warm caches never leak from one workload into the next, and
// merges their result files.
func runAll(ctx context.Context, hdr resultFile, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	correct, attempted, failed := true, 0, 0
	var ms []metric
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		path := filepath.Join(outDir, resultName(w.name, hdr.Seed, hdr.Trace))
		os.Remove(path) // a stale file from an earlier run must not stand in for this one
		if err := runChild(ctx, self, args); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			correct = false
		}
		var rf resultFile
		if err := readJSON(path, &rf); err != nil || len(rf.Workloads) != 1 {
			fmt.Fprintf(os.Stderr, "bench: %s: no result file (%v)\n", w.name, err)
			return 1
		}
		res := rf.Workloads[0]
		hdr.Workloads = append(hdr.Workloads, res)
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		for _, m := range res.Metrics {
			m.Name = w.name + ":" + m.Name
			ms = append(ms, m)
		}
	}
	path := filepath.Join(outDir, resultName("all", hdr.Seed, hdr.Trace))
	if err := writeJSON(path, hdr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("result file: %s\n", path)
	if err := printLastLine(os.Stdout, correct, attempted, failed, ms); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, passing its output through
// except the child's final JSON line, which the merged line replaces.
func runChild(ctx context.Context, self string, args []string) error {
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	var prev string
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if prev != "" {
			fmt.Println(prev)
		}
		prev = sc.Text()
	}
	if !strings.HasPrefix(prev, "{") {
		fmt.Println(prev)
	}
	return cmd.Wait()
}

// printResult writes the human-readable metric lines.
func printResult(w io.Writer, res workloadResult) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, wall %.1f s\n", res.Workload, res.Attempted, res.Failed, res.WallS)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if !res.Valid {
		fmt.Fprintf(w, "  INVALID: %s\n", res.Invalid)
	}
	for _, group := range [][]metric{res.Metrics, res.Extra} {
		for _, m := range group {
			v := "null"
			if m.Value != nil {
				v = fmt.Sprintf("%.6g", *m.Value)
			}
			line := fmt.Sprintf("  %-28s %12s %-6s", m.Name, v, m.Unit)
			if m.Samples != nil {
				line += fmt.Sprintf("  n=%d q1=%.4g median=%.4g q3=%.4g", m.Samples.N, m.Samples.Q1, m.Samples.Median, m.Samples.Q3)
			}
			if m.Note != "" {
				line += "  (" + m.Note + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
}

// printLastLine writes the one-line JSON summary that ends standard output.
func printLastLine(w io.Writer, correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		if m.Value == nil {
			return fmt.Errorf("metric %s has no value", m.Name)
		}
		out.Metrics[m.Name] = value{*m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
