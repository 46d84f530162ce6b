package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// results is the file -workload all writes and compare reads.
type results struct {
	Stamp stamp     `json:"stamp"`
	Runs  []*record `json:"runs"`
}

// runAll makes a full set: every workload untraced, then traced, each in a
// process of its own — exactly what the driver's per-workload runs measure,
// with no heap or page cache carried from one workload into the next.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(scratchRoot(), "all-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	res := results{Stamp: newStamp(o)}
	allSpans := map[string][]span{}
	failed := false
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			recPath, spanPath := filepath.Join(tmp, "record.json"), filepath.Join(tmp, "spans.json")
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-out", recPath,
			}
			if traced {
				args = append(args, "-trace", "1", "-spans", spanPath)
			} else if o.updateGolden {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", w.name, err)
				failed = true
			}
			var rec record
			if err := readJSON(recPath, &rec); err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s left no record: %v\n", w.name, err)
				failed = true
				continue
			}
			os.Remove(recPath)
			res.Runs = append(res.Runs, &rec)
			if traced {
				var spans []span
				if err := readJSON(spanPath, &spans); err == nil {
					allSpans[w.name] = spans
				}
				os.Remove(spanPath)
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			fatal(err)
		}
	}
	if o.spans != "" {
		if err := writeJSON(o.spans, allSpans); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("machine: %s; commit %s\n", res.Stamp.machine(), res.Stamp.Commit)
	if failed {
		return 1
	}
	return 0
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// gitCommit names the commit being measured, or says that it cannot: a
// checkout without git metadata, or with uncommitted changes, is stamped as
// such rather than with a commit it is not.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		commit += "+dirty"
	}
	return commit
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
