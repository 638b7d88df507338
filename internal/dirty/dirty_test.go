package dirty

import (
	"math"
	"strings"
	"testing"

	"repro/internal/datasets"
)

func cleanSource() []string {
	return datasets.CompanyNames(200, 11)
}

func TestGenerateBasicShape(t *testing.T) {
	p := Params{Size: 500, NumClean: 50, Dist: Uniform, ErroneousPct: 0.5,
		ErrorExtent: 0.2, TokenSwapPct: 0.2, AbbrPct: 0.5, Seed: 1}
	ds, err := Generate(cleanSource(), datasets.Abbreviations(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) != 500 {
		t.Fatalf("got %d records, want 500", len(ds.Records))
	}
	if len(ds.Clusters) != 50 {
		t.Fatalf("got %d clusters, want 50", len(ds.Clusters))
	}
	total := 0
	for c, members := range ds.Clusters {
		total += len(members)
		for _, tid := range members {
			if ds.Cluster[tid] != c {
				t.Fatalf("cluster maps disagree for tid %d", tid)
			}
		}
	}
	if total != 500 {
		t.Fatalf("cluster membership totals %d", total)
	}
	// TIDs unique and 1..500.
	seen := map[int]bool{}
	for _, r := range ds.Records {
		if seen[r.TID] {
			t.Fatalf("duplicate tid %d", r.TID)
		}
		seen[r.TID] = true
		if r.Text == "" {
			t.Fatalf("empty record text for tid %d", r.TID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Size: 200, NumClean: 20, ErroneousPct: 0.9, ErrorExtent: 0.3, Seed: 7}
	a, err := Generate(cleanSource(), nil, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cleanSource(), nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("generation not deterministic at %d: %v vs %v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestNoErrorsMeansExactDuplicates(t *testing.T) {
	p := Params{Size: 100, NumClean: 10, ErroneousPct: 0, Seed: 3}
	src := cleanSource()
	ds, err := Generate(src, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		c := ds.Cluster[r.TID]
		if r.Text != strings.Join(strings.Fields(src[c]), " ") {
			t.Fatalf("tid %d: %q differs from clean source %q with 0%% errors", r.TID, r.Text, src[c])
		}
	}
}

func TestUniformDistributionBalanced(t *testing.T) {
	p := Params{Size: 1000, NumClean: 100, Dist: Uniform, Seed: 5}
	ds, err := Generate(cleanSource(), nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for c, members := range ds.Clusters {
		if len(members) != 10 {
			t.Fatalf("uniform cluster %d has %d members, want 10", c, len(members))
		}
	}
}

func TestZipfianSkewsHead(t *testing.T) {
	p := Params{Size: 1100, NumClean: 100, Dist: Zipfian, Seed: 5}
	ds, err := Generate(cleanSource(), nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if !(len(ds.Clusters[0]) > len(ds.Clusters[99])) {
		t.Fatalf("zipfian head %d should exceed tail %d",
			len(ds.Clusters[0]), len(ds.Clusters[99]))
	}
	total := 0
	for _, m := range ds.Clusters {
		total += len(m)
	}
	if total != 1100 {
		t.Fatalf("zipfian total %d", total)
	}
}

func TestPoissonTotalsExact(t *testing.T) {
	p := Params{Size: 777, NumClean: 70, Dist: Poisson, Seed: 9}
	ds, err := Generate(cleanSource(), nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) != 777 {
		t.Fatalf("poisson total %d, want 777", len(ds.Records))
	}
}

func TestAbbreviationOnlyError(t *testing.T) {
	// F1-style dataset: only abbreviation errors. Duplicates must differ
	// from their source only by a dictionary substitution.
	src := []string{"Pacific Mills Incorporated", "Atlas Freight Inc.", "Orion Foods Ltd."}
	p := Params{Size: 30, NumClean: 3, ErroneousPct: 1, AbbrPct: 1, Seed: 2}
	ds, err := Generate(src, datasets.Abbreviations(), p)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, r := range ds.Records {
		c := ds.Cluster[r.TID]
		if r.Text == src[c] {
			continue
		}
		changed++
		// The only difference must be a long/short swap.
		switch c {
		case 0:
			if r.Text != "Pacific Mills Inc." {
				t.Fatalf("unexpected abbr variant %q", r.Text)
			}
		case 1:
			if r.Text != "Atlas Freight Incorporated" {
				t.Fatalf("unexpected abbr variant %q", r.Text)
			}
		case 2:
			if r.Text != "Orion Foods Limited" {
				t.Fatalf("unexpected abbr variant %q", r.Text)
			}
		}
	}
	if changed == 0 {
		t.Fatal("no abbreviation errors applied")
	}
}

func TestTokenSwapOnlyError(t *testing.T) {
	src := []string{"alpha beta gamma delta"}
	p := Params{Size: 20, NumClean: 1, ErroneousPct: 1, TokenSwapPct: 0.5, Seed: 4}
	ds, err := Generate(src, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		words := strings.Fields(r.Text)
		if len(words) != 4 {
			t.Fatalf("token swap must preserve word count: %q", r.Text)
		}
		// Same multiset of words.
		set := map[string]int{}
		for _, w := range words {
			set[w]++
		}
		for _, w := range []string{"alpha", "beta", "gamma", "delta"} {
			if set[w] != 1 {
				t.Fatalf("token swap must preserve words: %q", r.Text)
			}
		}
	}
}

func TestEditErrorsChangeRoughlyExtent(t *testing.T) {
	src := []string{strings.Repeat("abcdefghij", 4)} // 40 chars
	p := Params{Size: 200, NumClean: 1, ErroneousPct: 1, ErrorExtent: 0.2, Seed: 8}
	ds, err := Generate(src, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	// Mean length change should stay well below the 8 edits injected
	// (inserts and deletes roughly cancel), and strings should differ.
	diffs := 0
	lenSum := 0.0
	for _, r := range ds.Records[1:] {
		if r.Text != src[0] {
			diffs++
		}
		lenSum += float64(len(r.Text))
	}
	if diffs < 190 {
		t.Fatalf("expected nearly all duplicates dirty, got %d/199", diffs)
	}
	mean := lenSum / 199
	if math.Abs(mean-40) > 5 {
		t.Fatalf("mean length drifted to %v", mean)
	}
}

func TestParamValidation(t *testing.T) {
	src := cleanSource()
	cases := []Params{
		{Size: 10, NumClean: 0},
		{Size: 10, NumClean: 1000},
		{Size: 5, NumClean: 10},
		{Size: 10, NumClean: 5, ErroneousPct: 1.5},
		{Size: 10, NumClean: 5, ErrorExtent: -0.1},
	}
	for _, p := range cases {
		if _, err := Generate(src, nil, p); err == nil {
			t.Errorf("params %+v should be rejected", p)
		}
	}
}

// TestDBLPClusterFloor pins the §5.5 relation's shape: one clean title per
// ten tuples, but never fewer than ten, and a size below that floor is an
// error.
func TestDBLPClusterFloor(t *testing.T) {
	for _, c := range []struct{ size, clusters int }{{50, 10}, {2000, 200}} {
		ds, err := DBLP(c.size, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Records) != c.size || len(ds.Clusters) != c.clusters {
			t.Errorf("DBLP(%d): %d records in %d clusters, want %d in %d",
				c.size, len(ds.Records), len(ds.Clusters), c.size, c.clusters)
		}
	}
	if _, err := DBLP(5, 1); err == nil {
		t.Error("DBLP(5) should be rejected: fewer tuples than clean titles")
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Zipfian.String() != "zipfian" || Poisson.String() != "poisson" {
		t.Error("Distribution.String")
	}
	if !strings.Contains(Distribution(9).String(), "9") {
		t.Error("unknown distribution string")
	}
}
