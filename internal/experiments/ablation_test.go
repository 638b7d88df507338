package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationMinHashK(t *testing.T) {
	o := tinyOptions()
	o.Queries = 20
	r, err := AblationMinHashK(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MAP) != len(r.Ks) {
		t.Fatalf("shape: %+v", r)
	}
	// §5.4.1: very small K loses accuracy relative to large K.
	if r.MAP[0] > r.MAP[len(r.MAP)-1]+0.05 {
		t.Errorf("K=1 MAP %.3f should not beat K=20 MAP %.3f", r.MAP[0], r.MAP[len(r.MAP)-1])
	}
	// Large K approaches the exact-Jaccard filter.
	if r.MAP[len(r.MAP)-1] < r.GESJaccard-0.1 {
		t.Errorf("K=20 MAP %.3f too far below GESJaccard %.3f", r.MAP[len(r.MAP)-1], r.GESJaccard)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "min-hash") {
		t.Fatal("print")
	}
}

func TestAblationDistributions(t *testing.T) {
	o := tinyOptions()
	o.Queries = 15
	r, err := AblationDistributions(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MAP) != 3 {
		t.Fatalf("distributions shape: %+v", r)
	}
	// §5.1: the accuracy trend is distribution-stable; BM25 should stay
	// strong under every distribution.
	for di, dist := range r.Distributions {
		for pi, v := range r.MAP[di] {
			if v <= 0 || v > 1 {
				t.Errorf("%s/%s MAP = %v", dist, r.Predicates[pi], v)
			}
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "distribution") {
		t.Fatal("print")
	}
}

func TestAblationQSweep(t *testing.T) {
	o := tinyOptions()
	o.Queries = 15
	r, err := AblationQSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MAP) != 4 {
		t.Fatalf("q sweep shape: %+v", r)
	}
	// q=2 should beat q=4 for the gram predicates (§5.3.3 trend).
	for pi, name := range r.Predicates {
		if r.MAP[3][pi] > r.MAP[1][pi]+0.05 {
			t.Errorf("%s: q=4 MAP %.3f should not beat q=2 MAP %.3f", name, r.MAP[3][pi], r.MAP[1][pi])
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "MAP vs q") {
		t.Fatal("print")
	}
}
