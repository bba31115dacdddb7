// First end-to-end tests for the CLI: build the real sdiq binary and
// pin its CSV outputs byte-for-byte against committed goldens. The
// goldens are the public face of the reproduction — if a refactor
// shifts a single digit of a figure export, these fail.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/sdiq -run TestGolden -update
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current binary")

// sdiqBin is the binary under test, built once by TestMain.
var sdiqBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "sdiq-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	sdiqBin = filepath.Join(dir, "sdiq")
	out, err := exec.Command("go", "build", "-o", sdiqBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building sdiq: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// runSdiq executes the binary and returns stdout, failing the test on a
// non-zero exit.
func runSdiq(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(sdiqBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sdiq %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

// checkGolden compares got against testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden.\n--- got ---\n%s--- want ---\n%s"+
			"(intentional change? regenerate with: go test ./cmd/sdiq -run TestGolden -update)",
			name, got, want)
	}
}

// TestGoldenFig8CSV pins the headline power-savings figure (figure 8)
// at a small budget: full suite, all techniques, CSV format.
func TestGoldenFig8CSV(t *testing.T) {
	got := runSdiq(t, "-experiment", "fig8", "-format", "csv", "-budget", "20000", "-seed", "42")
	checkGolden(t, "fig8_budget20k.csv", got)
}

// TestGoldenSweepExportCSV pins a two-point IQ-size sweep through the
// campaign CSV exporter (-export), the byte format the campaign
// service must reproduce exactly.
func TestGoldenSweepExportCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.csv")
	runSdiq(t, "-experiment", "sweep", "-sweep", "iq.entries=16,80",
		"-budget", "8000", "-seed", "42", "-format", "csv", "-export", out)
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_iq16_80_budget8k.csv", got)
}

// TestGoldenAllCSV pins every figure of the evaluation in CSV form:
// figures 6-12 and the headline summary, as -experiment all prints them.
func TestGoldenAllCSV(t *testing.T) {
	got := runSdiq(t, "-experiment", "all", "-format", "csv", "-budget", "20000", "-seed", "42")
	checkGolden(t, "all_budget20k.csv", got)
}

// TestGoldenSummarySampledText pins the summary of a sampled suite as
// text, which closes with the sampling error-bar report.
func TestGoldenSummarySampledText(t *testing.T) {
	got := runSdiq(t, "-experiment", "summary", "-sample", "on", "-budget", "200000", "-seed", "42")
	checkGolden(t, "summary_sampled_budget200k.txt", got)
}

// TestGoldenSweepText pins the text sweep report of a two-point IQ-size
// sweep: one table per technique, IPC with its loss vs baseline.
func TestGoldenSweepText(t *testing.T) {
	got := runSdiq(t, "-experiment", "sweep", "-sweep", "iq.entries=16,80", "-budget", "8000", "-seed", "42")
	checkGolden(t, "sweep_iq16_80_budget8k.txt", got)
}

// TestLoadRendersTablesFromCampaign: -load re-renders Table 1 from the
// loaded campaign's configuration, not from the command line's default.
func TestLoadRendersTablesFromCampaign(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "iq64.json")
	if err := os.WriteFile(cfg, []byte(`{"IQ":{"Entries":64,"BankSize":8}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "suite.json")
	runSdiq(t, "-experiment", "summary", "-config", cfg, "-budget", "5000", "-export", saved)
	const want = "64 entries (8 banks of 8)"
	for _, experiment := range []string{"table1", "all"} {
		got := runSdiq(t, "-experiment", experiment, "-load", saved)
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("-experiment %s -load: Table 1 does not show the campaign's %q:\n%s", experiment, want, got)
		}
	}
}

// TestUnknownExperimentSimulatesNothing: a bad -experiment name exits 2
// before any simulation, so the result cache stays empty.
func TestUnknownExperimentSimulatesNothing(t *testing.T) {
	cache := t.TempDir()
	var stderr bytes.Buffer
	cmd := exec.Command(sdiqBin, "-experiment", "fig13", "-cache", cache, "-budget", "20000")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("sdiq -experiment fig13: %v, want exit status 2", err)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "fig13"`) {
		t.Errorf("stderr does not name the experiment: %s", stderr.String())
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("cache holds %d entries after a rejected experiment, want 0", len(entries))
	}
}

// TestGoldenDeterminism guards the premise the goldens stand on: two
// fresh processes at different worker counts must emit identical bytes.
func TestGoldenDeterminism(t *testing.T) {
	a := runSdiq(t, "-experiment", "fig8", "-format", "csv", "-budget", "20000", "-parallel", "1")
	b := runSdiq(t, "-experiment", "fig8", "-format", "csv", "-budget", "20000", "-parallel", "8")
	if !bytes.Equal(a, b) {
		t.Errorf("fig8 CSV differs across worker counts:\n%s\nvs\n%s", a, b)
	}
}
