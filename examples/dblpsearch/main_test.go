package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	approxsel "repro"
)

// TestDBLPSearch runs both modes on 1 000 seeded titles: the exact target
// title's top BM25 match is its own record, in process and over HTTP, and
// the served re-query after an insert is cached the second time.
func TestDBLPSearch(t *testing.T) {
	exact := fmt.Sprintf("query %q", approxsel.DBLPTitles(1000, 7)[123])
	for _, serve := range []bool{false, true} {
		var out bytes.Buffer
		if err := run(&out, 1000, serve); err != nil {
			t.Fatalf("serve=%v: %v\noutput:\n%s", serve, err, out.String())
		}
		var first string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "  [") {
				first = line
				break
			}
		}
		if !strings.HasPrefix(first, "  [hit ]") || !strings.HasSuffix(first, exact) {
			t.Errorf("serve=%v: first search line is %q, want a hit for the exact title\n%s", serve, first, out.String())
		}
		if serve && !strings.Contains(out.String(), "re-query: cached=true") {
			t.Errorf("repeated re-query after the insert was not cached:\n%s", out.String())
		}
	}
	var out bytes.Buffer
	if err := run(&out, 300, false); err == nil {
		t.Error("run accepted 300 titles; the pruning table needs 704")
	}
}
