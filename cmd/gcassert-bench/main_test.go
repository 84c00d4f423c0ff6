package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"version", []string{"-version"}, 0},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"removed -workers flag", []string{"-workers", "2", "-bench", "no-such-workload"}, 2},
		{"removed -baseline flag", []string{"-baseline", "run.json", "-bench", "no-such-workload"}, 2},
		{"removed -compare flag", []string{"-compare", "a.json", "b.json"}, 2},
		{"removed -gate flag", []string{"-gate", "-bench", "no-such-workload"}, 2},
		{"unknown figure", []string{"-figure", "7"}, 2},
		{"stray positional", []string{"stray.json"}, 2},
		{"unknown workload", []string{"-bench", "no-such-workload"}, 1},
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

// TestFigureSmoke regenerates one figure on one workload, as small as the
// harness allows, and checks the table is printed.
func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a real workload")
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-figure", "4", "-bench", "_209_db", "-trials", "1", "-iters", "1"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 4") {
		t.Errorf("output lacks the Figure 4 table:\n%s", stdout.String())
	}
}
