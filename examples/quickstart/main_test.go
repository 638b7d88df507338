package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickstart runs the walkthrough: run itself fails unless the
// declarative BM25 — built through the facade, with the intermediates its
// select does not read dropped — agrees with the native one on the top
// match.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"BM25 top 4", "Declarative BM25 agrees: top match is tid 1", "Jaccard >= 0.5", "Batch probe"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
