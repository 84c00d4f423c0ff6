package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.mj")
	if err := os.WriteFile(bad, []byte("class {"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"removed -workers flag", []string{"-workers", "2", bad}, 2},
		{"removed -gen flag", []string{"-gen", bad}, 2},
		{"removed -O flag", []string{"-O", bad}, 2},
		{"removed -fleet-every flag", []string{"-fleet-every", "2", bad}, 2},
		{"two programs", []string{"a.mj", "b.mj"}, 2},
		{"heap an Addr cannot address", []string{"-heap", "8192", bad}, 2},
		{"missing program", []string{filepath.Join(dir, "nope.mj")}, 1},
		{"compile error", []string{bad}, 1},
		{"version", []string{"-version"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
		})
	}
}

func TestRunExecutesProgram(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-heap", "4", "../../examples/mj/fleetsteady.mj"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "8") {
		t.Errorf("guest output missing:\n%s", stdout.String())
	}
}

func TestRunVersionPrintsIdentity(t *testing.T) {
	var stdout bytes.Buffer
	if got := run([]string{"-version"}, &stdout, &bytes.Buffer{}); got != 0 {
		t.Fatal("version exit code")
	}
	if !strings.HasPrefix(stdout.String(), "mjrun ") {
		t.Errorf("version output %q should start with the tool name", stdout.String())
	}
}
