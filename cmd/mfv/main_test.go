package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"mfv"
)

// writeFig2 marshals the paper's Fig2 topology into a temp file for CLI use.
func writeFig2(t *testing.T) string {
	t.Helper()
	data, err := mfv.Fig2().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig2.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// quiet redirects stdout to /dev/null around fn: the commands under test
// print full reports, which would drown the test log.
func quiet(t *testing.T, fn func() error) error {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = null
	defer func() {
		os.Stdout = old
		null.Close()
	}()
	return fn()
}

// TestExitCodePrecedence asserts the documented exit-code ordering across
// run, chaos, and sweep: 5 (timeout/interrupt) over everything, 4
// (quarantine/degraded) over 3 (violation), 3 over 0, and usage errors
// always 2 — and that the query subcommands, which share the one bracket,
// honour the budget too.
func TestExitCodePrecedence(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI pipelines")
	}
	topo := writeFig2(t)
	cases := []struct {
		name string
		cmd  func([]string) error
		args []string
		want int
	}{
		{"run clean", cmdRun, []string{"-topo", topo}, exitOK},
		{"sweep finds violations", cmdSweep, []string{"-topo", topo, "-k", "1"}, exitViolation},
		// corrupt-config loses r4's flows AND quarantines r4; the exit code
		// must pick the more specific diagnosis (4, not 3).
		{"quarantine outranks violation", cmdRun, []string{"-topo", topo, "-chaos", "corrupt-config"}, exitDegraded},
		// An exhausted budget outranks whatever the truncated run found.
		{"timeout outranks violation", cmdSweep, []string{"-topo", topo, "-k", "1", "-timeout", "1ns"}, exitTimeout},
		{"timeout outranks quarantine", cmdRun, []string{"-topo", topo, "-chaos", "corrupt-config", "-timeout", "1ns"}, exitTimeout},
		// reach, loops, lint -live and snapshot save used to parse -timeout and
		// ignore it (the context was never set outside run/diff/chaos/sweep).
		{"reach clean", cmdReach, []string{"-topo", topo, "-src", "r1", "-dst", "2.2.2.4"}, exitOK},
		{"reach honours timeout", cmdReach, []string{"-topo", topo, "-src", "r1", "-dst", "2.2.2.4", "-timeout", "1ns"}, exitTimeout},
		{"loops honours timeout", cmdLoops, []string{"-topo", topo, "-timeout", "1ns"}, exitTimeout},
		{"lint -live honours timeout", cmdLint, []string{"-topo", topo, "-live", "-timeout", "1ns"}, exitTimeout},
		{"snapshot save honours timeout", cmdSnapshot, []string{"save", "-topo", topo, "-file", filepath.Join(t.TempDir(), "never.snap"), "-timeout", "1ns"}, exitTimeout},
		{"bad flag value", cmdSweep, []string{"-topo", topo, "-workers", "0"}, exitUsage},
		// whatif is gone; the error must name what does dispatch, show included.
		{"unknown subcommand", func(a []string) error { return dispatch("whatif", a) }, nil, exitUsage},
		{"snapshot without -file", cmdSnapshot, []string{"load"}, exitUsage},
		{"missing topo", cmdRun, nil, exitError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := quiet(t, func() error { return tc.cmd(tc.args) })
			if got := exitCode(err); got != tc.want {
				t.Fatalf("exit code %d, want %d (err: %v)", got, tc.want, err)
			}
			if tc.name == "unknown subcommand" && !strings.Contains(err.Error(), "|show|") {
				t.Fatalf("error %q does not list the dispatchable subcommands", err)
			}
		})
	}
}

// TestInterruptMapsToExitTimeout delivers a real SIGINT while a body is in
// flight — under withBudget alone, and under the full bracket every emulating
// subcommand runs in: the run context must cancel and the error must map to
// exit 5, the same class as an exhausted -timeout.
func TestInterruptMapsToExitTimeout(t *testing.T) {
	f := newFlags("test")
	for name, wrap := range map[string]func(func() error) error{"withBudget": f.withBudget, "bracket": f.bracket} {
		err := wrap(func() error {
			if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
				return err
			}
			<-f.ctx.Done()
			return f.ctx.Err()
		})
		if err == nil {
			t.Fatalf("%s: interrupted body returned nil", name)
		}
		if got := exitCode(err); got != exitTimeout {
			t.Fatalf("%s: exit code %d, want %d (err: %v)", name, got, exitTimeout, err)
		}
		if !strings.Contains(err.Error(), "interrupted") {
			t.Fatalf("%s: error %q does not say it was interrupted", name, err)
		}
	}
}

// TestSnapshotCLIRoundTrip drives the crash-safety surface end to end:
// snapshot save, validated load, run -from-snapshot, a live-vs-restored
// diff that agrees nothing changed, and a corrupted file that is refused.
func TestSnapshotCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI pipelines")
	}
	topo := writeFig2(t)
	file := filepath.Join(t.TempDir(), "fig2.snap")
	if err := quiet(t, func() error { return cmdSnapshot([]string{"save", "-topo", topo, "-file", file}) }); err != nil {
		t.Fatalf("snapshot save: %v", err)
	}
	if err := quiet(t, func() error { return cmdSnapshot([]string{"load", "-file", file, "-topo", topo}) }); err != nil {
		t.Fatalf("snapshot load with matching -topo: %v", err)
	}
	if err := quiet(t, func() error { return cmdRun([]string{"-from-snapshot", file}) }); err != nil {
		t.Fatalf("run -from-snapshot: %v", err)
	}
	if err := quiet(t, func() error { return cmdReach([]string{"-from-snapshot", file, "-src", "r1", "-dst", "2.2.2.4"}) }); err != nil {
		t.Fatalf("reach -from-snapshot: %v", err)
	}
	// A live boot diffed against the restored snapshot must agree the
	// forwarding state is identical (exit 0, no changed flows).
	if err := quiet(t, func() error { return cmdDiff([]string{"-topo", topo, "-from-snapshot2", file}) }); err != nil {
		t.Fatalf("diff live vs restored: %v", err)
	}
	// Corruption is an operational error (exit 1), never a panic.
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := quiet(t, func() error { return cmdSnapshot([]string{"load", "-file", bad}) }); err == nil || exitCode(err) != exitError {
		t.Fatalf("truncated snapshot load: err=%v code=%d, want operational error", err, exitCode(err))
	}
	// A snapshot checked against a different topology is a usage error.
	wan := filepath.Join(t.TempDir(), "wan.json")
	wdata, err := mfv.WAN(9, true).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wan, wdata, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := quiet(t, func() error { return cmdSnapshot([]string{"load", "-file", file, "-topo", wan}) }); err == nil || exitCode(err) != exitUsage {
		t.Fatalf("mismatched -topo cross-check: err=%v code=%d, want usage error", err, exitCode(err))
	}
}
