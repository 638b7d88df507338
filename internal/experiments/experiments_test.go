package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyOptions keeps the accuracy experiments fast in unit tests.
func tinyOptions() Options {
	o := Defaults()
	o.Size = 400
	o.NumClean = 40
	o.Queries = 25
	return o
}

func TestScaledOptions(t *testing.T) {
	o := Scaled(10)
	if o.Size != 500 || o.NumClean != 50 || o.Queries != 50 {
		t.Fatalf("Scaled(10): %+v", o)
	}
	if o2 := Scaled(1); o2 != Defaults() {
		t.Fatalf("Scaled(1) should be Defaults")
	}
	// Floors.
	o3 := Scaled(1000)
	if o3.NumClean < 10 || o3.Queries < 20 || o3.Size < 10*o3.NumClean {
		t.Fatalf("Scaled floor: %+v", o3)
	}
}

func TestCompanySpecsMatchTable53(t *testing.T) {
	specs := CompanySpecs(Defaults())
	if len(specs) != 13 {
		t.Fatalf("want 13 datasets, got %d", len(specs))
	}
	byName := map[string]DatasetSpec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	cu1 := byName["CU1"]
	if cu1.Class != "Dirty" || cu1.P.ErroneousPct != 0.90 || cu1.P.ErrorExtent != 0.30 ||
		cu1.P.TokenSwapPct != 0.20 || cu1.P.AbbrPct != 0.50 {
		t.Fatalf("CU1 spec: %+v", cu1)
	}
	f2 := byName["F2"]
	if f2.P.ErrorExtent != 0 || f2.P.TokenSwapPct != 0.20 || f2.P.AbbrPct != 0 {
		t.Fatalf("F2 spec: %+v", f2)
	}
	classes := map[string]int{}
	for _, s := range specs {
		classes[s.Class]++
	}
	if classes["Dirty"] != 2 || classes["Medium"] != 4 || classes["Low"] != 2 || classes["-"] != 5 {
		t.Fatalf("class split: %v", classes)
	}
}

func TestTable51(t *testing.T) {
	r := Table51(Defaults())
	if r.Company.Tuples != 2139 || r.DBLP.Tuples != 10425 {
		t.Fatalf("Table 5.1 sizes: %+v", r)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Company Names") {
		t.Fatal("Table 5.1 print")
	}
}

func TestTable55ShapeHolds(t *testing.T) {
	// The paper's claim: on F1 (abbreviation errors) the weighted
	// predicates beat the unweighted overlap predicates, and on F2 (token
	// swaps) the q-gram predicates beat GES.
	o := tinyOptions()
	r, err := Table55(o)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, d := range r.Datasets {
		idx[d] = i
	}
	f1 := r.Summary[idx["F1"]]
	if !(f1["BM25"].MAP > f1["IntersectSize"].MAP-0.02) {
		t.Errorf("F1: BM25 %.3f should not trail IntersectSize %.3f",
			f1["BM25"].MAP, f1["IntersectSize"].MAP)
	}
	if f1["Cosine"].MAP < 0.9 {
		t.Errorf("F1: Cosine MAP %.3f unexpectedly low", f1["Cosine"].MAP)
	}
	f2 := r.Summary[idx["F2"]]
	if !(f2["Jaccard"].MAP > f2["GES"].MAP-0.02) {
		t.Errorf("F2: q-gram Jaccard %.3f should not trail GES %.3f",
			f2["Jaccard"].MAP, f2["GES"].MAP)
	}
	var buf bytes.Buffer
	PrintTable55(r, &buf)
	if !strings.Contains(buf.String(), "Table 5.5") {
		t.Fatal("print")
	}
}

func TestTable56EditErrorDegradation(t *testing.T) {
	o := tinyOptions()
	r, err := Table56(o)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy decreases (weakly) from F3 to F5 for the q-gram predicates.
	idx := map[string]int{}
	for i, d := range r.Datasets {
		idx[d] = i
	}
	for _, name := range []string{"Jaccard", "BM25", "Cosine"} {
		f3v := r.Summary[idx["F3"]][name].MAP
		f5v := r.Summary[idx["F5"]][name].MAP
		if f5v > f3v+0.05 {
			t.Errorf("%s: MAP should degrade with error extent (F3 %.3f → F5 %.3f)", name, f3v, f5v)
		}
	}
	var buf bytes.Buffer
	PrintTable56(r, &buf)
	if !strings.Contains(buf.String(), "Table 5.6") {
		t.Fatal("print")
	}
}

func TestFigure51ClassOrdering(t *testing.T) {
	o := tinyOptions()
	r, err := Figure51(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MAP) != 3 {
		t.Fatalf("classes: %v", r.Classes)
	}
	// Accuracy on the Low class dominates the Dirty class for the strong
	// predicates (more errors → harder).
	low, dirtyC := r.MAP[0], r.MAP[2]
	for _, name := range []string{"BM25", "HMM", "Cosine"} {
		if dirtyC[name] > low[name]+0.05 {
			t.Errorf("%s: dirty MAP %.3f should not exceed low MAP %.3f", name, dirtyC[name], low[name])
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 5.1") {
		t.Fatal("print")
	}
}

func TestTable57ThresholdMonotone(t *testing.T) {
	o := tinyOptions()
	r, err := Table57(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.GESJaccard) != 3 || len(r.GESapx) != 3 {
		t.Fatalf("threshold sweep: %+v", r)
	}
	// Higher thresholds prune more relevant records: accuracy must not
	// improve from θ=0.7 to θ=0.9 (paper: .692 → .603).
	if r.GESJaccard[2] > r.GESJaccard[0]+0.03 {
		t.Errorf("GESJaccard accuracy should fall with θ: %v", r.GESJaccard)
	}
	// The unfiltered GES bounds the filtered variants (up to noise).
	if r.GESJaccard[0] > r.GESExact+0.05 {
		t.Errorf("filter should not beat exact GES: %v vs %v", r.GESJaccard[0], r.GESExact)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Table 5.7") {
		t.Fatal("print")
	}
}

func TestQGramSize(t *testing.T) {
	o := tinyOptions()
	r, err := QGramSize(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MAP) != 2 || len(r.MAP[0]) != 4 {
		t.Fatalf("qgram result shape: %+v", r)
	}
	for qi := range r.MAP {
		for pi, v := range r.MAP[qi] {
			if v <= 0 || v > 1 {
				t.Errorf("MAP[%d][%d] = %v out of range", qi, pi, v)
			}
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "5.3.3") {
		t.Fatal("print")
	}
}

func TestFigure55PruningShape(t *testing.T) {
	o := tinyOptions()
	o.Queries = 15
	r, err := Figure55(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MAP) != len(r.Rates) {
		t.Fatalf("figure 5.5 shape")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 5.5") {
		t.Fatal("print")
	}
}

func TestFigure56Histogram(t *testing.T) {
	// Histogramming only tokenizes, so full paper scale is cheap — and the
	// low-IDF skew the paper reports only emerges at scale.
	o := Defaults()
	r, err := Figure56(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Count) != 10 || r.Total == 0 {
		t.Fatalf("figure 5.6: %+v", r)
	}
	sum := 0
	for _, c := range r.Count {
		sum += c
	}
	if sum != r.Total {
		t.Fatalf("histogram total mismatch: %d vs %d", sum, r.Total)
	}
	// The paper's observation: low-IDF mass dominates. The lowest three
	// bins together should hold a large share of occurrences.
	lowMass := r.Count[0] + r.Count[1] + r.Count[2]
	if lowMass*3 < r.Total {
		t.Errorf("expected heavy low-IDF mass, got %d of %d in lowest 3 bins", lowMass, r.Total)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 5.6") {
		t.Fatal("print")
	}
}

func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	o := tinyOptions()
	o.Queries = 10
	var buf bytes.Buffer
	if err := RunAll(&buf, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 5.1", "Table 5.3", "Table 5.5", "Table 5.6",
		"Table 5.7", "Figure 5.1", "Figure 5.5", "Figure 5.6"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("RunAll output missing %s", want)
		}
	}
}
