// Command e2e is the repository's end-to-end benchmark: time to a verdict per
// network and failure scenario, over five workloads that stress different
// layers, with an outside-in per-layer ledger from a separate traced pass.
// See README.md in this directory.
//
//	bench/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench/e2e/run.sh -workload all -seed 42 -out results.json -spans spans.json
//	bench/e2e/run.sh compare A.json B.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// goldenSeed is the development seed the committed golden digests belong to.
// Seed 7 is held back: no change may be tuned against it, so claims are
// confirmed on it.
const goldenSeed = 42

const goldenPath = "bench/e2e/golden.json"

//go:embed golden.json
var goldenJSON []byte

// golden is what a workload's ops must produce at goldenSeed.
type golden struct {
	Digest string           `json:"digest"`
	Counts map[string]int64 `json:"counts"`
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	out          string
	spans        string
	updateGolden bool
}

func main() {
	processStart := time.Now()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all for every workload untraced and traced")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "seed for Options.Seed, the route feed and the cut link")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the full result record(s) to this JSON file")
	flag.StringVar(&o.spans, "spans", "", "write the traced pass's spans to this JSON file")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite "+goldenPath+" from this run (benchmark PRs only; run from the repo root at seed 42)")
	flag.Parse()
	o.trace = trace != 0
	if o.seed == 0 {
		o.seed = goldenSeed // core.Options treats seed 0 as unset and uses 42
	}
	if o.updateGolden && o.seed != goldenSeed {
		fatal(fmt.Errorf("-update-golden needs -seed %d", goldenSeed))
	}

	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	w := findWorkload(o.workload)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	dir, err := os.MkdirTemp(scratchRoot(), "run-")
	if err != nil {
		fatal(err)
	}
	rec, spans := runWorkload(w, &cfg{seed: o.seed, dir: dir}, o, processStart)
	os.RemoveAll(dir)

	rec.print(os.Stdout)
	if o.updateGolden && rec.Failed == 0 {
		if err := writeGolden(w.name, golden{rec.Digest, rec.Counts}); err != nil {
			fatal(err)
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, rec); err != nil {
			fatal(err)
		}
	}
	if o.spans != "" && o.trace {
		if err := writeJSON(o.spans, spans); err != nil {
			fatal(err)
		}
	}
	fmt.Println(rec.contractLine())
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}

// scratchRoot is where runs keep their files: the build directory of the
// checkout the harness was started in, so nothing is written outside it.
func scratchRoot() string {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadGolden(data []byte) (map[string]golden, error) {
	var g struct {
		Seed      int64             `json:"seed"`
		Workloads map[string]golden `json:"workloads"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Workloads == nil {
		g.Workloads = map[string]golden{}
	}
	return g.Workloads, nil
}

// writeGolden merges one workload's entry into the golden file on disk (not
// the embedded copy, which may be a run behind during an update of all).
func writeGolden(name string, g golden) error {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	all, err := loadGolden(data)
	if err != nil {
		return err
	}
	all[name] = g
	return writeJSON(goldenPath, map[string]any{"seed": goldenSeed, "workloads": all})
}

// stamp says where and how a result file was measured; compare warns when
// two files' stamps differ.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Warmups is each workload's unmeasured op count; the measured count
	// follows from Seconds and is recorded per run.
	Warmups map[string]int `json:"warmups"`
}

func (s stamp) machine() string {
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d, GOGC %s, %s", s.CPU, s.NumCPU, s.GOMAXPROCS, s.GOGC, s.GoVersion)
}

func newStamp(o options) stamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	s := stamp{
		Commit: gitCommit(), GoVersion: runtime.Version(), CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		Seed: o.seed, Seconds: o.seconds, Warmups: map[string]int{},
	}
	for _, w := range workloads {
		s.Warmups[w.name] = w.warmups
	}
	return s
}
