package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// resultFile is what one invocation writes: the run's settings, the host
// it ran on and one entry per workload.
type resultFile struct {
	Seed       uint64           `json:"seed"`
	Seconds    int              `json:"seconds"`
	Trace      bool             `json:"trace"`
	Started    time.Time        `json:"started"`
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

// provenance records the host and build a result was measured on.
type provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// workloadResult is one workload's outcome. Metrics holds the
// BENCHMARK.json metrics of the run's mode, Extra the workload's own
// metrics (per-class latencies, serving counters, generator health).
type workloadResult struct {
	Workload  string    `json:"workload"`
	Started   time.Time `json:"started"`
	WallS     float64   `json:"wall_s"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	// Valid is false when the measurement itself cannot be trusted (the
	// load generator ran late); compare skips invalid runs.
	Valid     bool     `json:"valid"`
	Invalid   string   `json:"invalid,omitempty"`
	Metrics   []metric `json:"metrics"`
	Extra     []metric `json:"extra,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

func currentProvenance() provenance {
	return provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: gitCommit(),
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout (a source export has no history to ask).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func resultName(workload string, seed uint64, trace bool) string {
	if trace {
		return fmt.Sprintf("%s-seed%d-trace.json", workload, seed)
	}
	return fmt.Sprintf("%s-seed%d.json", workload, seed)
}

func traceName(workload string, seed uint64) string {
	return fmt.Sprintf("%s-seed%d-spans.jsonl", workload, seed)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
