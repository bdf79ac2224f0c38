package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/reconfig"
)

func runRulec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// loadArtifact decodes the artifact file at path.
func loadArtifact(t *testing.T, path string) *reconfig.Artifact {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	art, err := reconfig.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func TestArtifactWithoutBackupsStaysBareArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nafta.tbl")
	code, _, stderr := runRulec(t, "-builtin", "nafta", "-artifact", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if art := loadArtifact(t, path); art.Algorithm != "nafta" {
		t.Fatalf("wrote a %s artifact for -builtin nafta", art.Algorithm)
	}
}

func TestMazeArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maze.tbl")
	code, stdout, stderr := runRulec(t, "-builtin", "maze", "-ports", "5", "-artifact", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ports=5") {
		t.Fatalf("summary does not name the port count:\n%s", stdout)
	}
	if art := loadArtifact(t, path); art.Algorithm != "maze" || art.Ports != 5 {
		t.Fatalf("wrote something other than a 5-port maze artifact: %+v", art)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown builtin lists choices",
			[]string{"-builtin", "nonesuch"},
			"valid: nara, nafta, maze, routec, routec-nft"},
		{"maze port bound",
			[]string{"-builtin", "maze", "-ports", "99"},
			"maze supports 2 to"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runRulec(t, tc.args...)
			if code == 0 {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.want)
			}
		})
	}
}
