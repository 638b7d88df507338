package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunList smoke-tests the -list mode.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "BM25") || !strings.Contains(s, "declarative") {
		t.Fatalf("-list output missing predicates/realizations:\n%s", s)
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
	if code := run([]string{"-perfsizes", "12,x"}, &out, &errOut); code != 2 {
		t.Fatalf("bad perfsizes: exit %d", code)
	}
	// Any -impl other than the two realizations used to measure the
	// declarative one silently.
	if code := run([]string{"-impl", "both", "-exp", "table5.1", "-scale", "50"}, &out, &errOut); code != 2 {
		t.Fatalf("bad impl: exit %d", code)
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
