package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunList smoke-tests -exp list.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "BM25") || !strings.Contains(s, "declarative") {
		t.Fatalf("-exp list output missing predicates/realizations:\n%s", s)
	}
}

// TestRunSingleExperiment runs a fast experiment end to end on a tiny
// relation.
func TestRunSingleExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "table5.1", "-scale", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Table 5.1") {
		t.Fatalf("missing table title:\n%s", out.String())
	}
}

// TestRunBadFlags pins the error paths.
func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown experiment: exit %d", code)
	}
	// A divisor below 1 used to run silently at paper scale.
	for _, scale := range []string{"0", "-3"} {
		if code := run([]string{"-scale", scale, "-exp", "table5.1"}, &out, &errOut); code != 2 {
			t.Fatalf("-scale %s: exit %d", scale, code)
		}
	}
	// The timing flags are retired: the figures they sized are Go
	// benchmarks now.
	for _, args := range [][]string{
		{"-perfsize", "1000"}, {"-perfsizes", "1000,2000"}, {"-perfqueries", "5"},
		{"-impl", "native"}, {"-list"},
	} {
		errOut.Reset()
		if code := run(append(args, "-exp", "table5.1", "-scale", "50"), &out, &errOut); code != 2 {
			t.Fatalf("%s: exit %d", args[0], code)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Fatalf("%s: stderr %q", args[0], errOut.String())
		}
	}
	// The -exp usage names the experiments the switch accepts.
	errOut.Reset()
	if code := run([]string{"-h"}, &out, &errOut); code != 2 {
		t.Fatalf("-h: exit %d", code)
	}
	if !strings.Contains(errOut.String(), "ablation.dist") {
		t.Fatalf("-exp usage leaves out ablation.dist:\n%s", errOut.String())
	}
}
