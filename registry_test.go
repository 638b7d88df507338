package approxsel

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// equalityPredicate is a minimal custom predicate for registry tests: score
// 1 for case-insensitive exact matches, nothing else.
type equalityPredicate struct {
	records []Record
}

func (p *equalityPredicate) Name() string { return "Equality" }

func (p *equalityPredicate) Select(query string) ([]Match, error) {
	var ms []Match
	for _, r := range p.records {
		if strings.EqualFold(r.Text, query) {
			ms = append(ms, Match{TID: r.TID, Score: 1})
		}
	}
	return ms, nil
}

func buildEquality(records []Record, _ Config) (Predicate, error) {
	return &equalityPredicate{records: records}, nil
}

func TestRegisterCustomPredicate(t *testing.T) {
	if err := Register("Equality", buildEquality); err != nil {
		t.Fatal(err)
	}
	defer Unregister("Equality")

	records := facadeRecords()
	// The custom predicate is constructible through New like a built-in,
	// under any realization (custom predicates are realization-agnostic).
	for _, r := range Realizations() {
		p, err := New("Equality", records, WithRealization(r))
		if err != nil {
			t.Fatalf("New under %s: %v", r, err)
		}
		ms, err := p.Select(strings.ToLower(records[4].Text))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || ms[0].TID != records[4].TID {
			t.Fatalf("realization %s: %+v", r, ms)
		}
	}
	// And it rides the same helper machinery (TopK via the option path).
	p, err := New("Equality", records)
	if err != nil {
		t.Fatal(err)
	}
	top, err := TopK(p, records[0].Text, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].TID != records[0].TID {
		t.Fatalf("TopK over custom predicate: %+v", top)
	}
}

func TestRegisterErrors(t *testing.T) {
	if err := Register("", buildEquality); err == nil {
		t.Error("empty name must error")
	}
	if err := Register("NilBuilder", nil); err == nil {
		t.Error("nil builder must error")
	}
	if err := Register("BM25", buildEquality); err == nil {
		t.Error("built-in name collision must error")
	}
	if err := Register("DupCustom", buildEquality); err != nil {
		t.Fatal(err)
	}
	defer Unregister("DupCustom")
	if err := Register("DupCustom", buildEquality); err == nil {
		t.Error("duplicate registration must error")
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister on a taken name must panic")
		}
	}()
	MustRegister("BM25", buildEquality)
}

func TestPredicateNamesIncludesCustom(t *testing.T) {
	if err := Register("ZCustom", buildEquality); err != nil {
		t.Fatal(err)
	}
	defer Unregister("ZCustom")
	names := PredicateNames()
	if names[len(names)-1] != "ZCustom" {
		t.Fatalf("custom predicates must follow the built-ins: %v", names)
	}
	if len(names) != 14 {
		t.Fatalf("13 built-ins + 1 custom, got %d", len(names))
	}
}

func TestRealizations(t *testing.T) {
	rs := Realizations()
	if len(rs) != 2 || rs[0] != Declarative || rs[1] != Native {
		t.Fatalf("Realizations() = %v", rs)
	}
}

func TestNewUnknown(t *testing.T) {
	records := facadeRecords()[:5]
	if _, err := New("NoSuchPredicate", records); err == nil {
		t.Error("unknown predicate must error")
	}
	if _, err := New("BM25", records, WithRealization("vectorized")); err == nil {
		t.Error("unknown realization must error")
	}
}

// TestUnknownPredicateListsRegistered pins the discoverability contract:
// the unknown-name error of New and Corpus.Predicate names every
// registerable predicate, sorted, including Register-ed customs.
func TestUnknownPredicateListsRegistered(t *testing.T) {
	MustRegister("AAListedCustom", func(records []Record, cfg Config) (Predicate, error) {
		return New("Jaccard", records, cfg)
	})
	defer func() {
		if err := Unregister("AAListedCustom"); err != nil {
			t.Fatal(err)
		}
	}()
	records := facadeRecords()[:5]
	_, err := New("NoSuchPredicate", records)
	if err == nil {
		t.Fatal("unknown predicate must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "registered predicates:") {
		t.Fatalf("error must list registered predicates: %s", msg)
	}
	// Sorted: the custom sorts before every built-in, BM25 before Cosine.
	for _, probe := range []string{"AAListedCustom", "BM25", "Cosine", "EditDistance"} {
		if !strings.Contains(msg, probe) {
			t.Fatalf("error must name %s: %s", probe, msg)
		}
	}
	if strings.Index(msg, "AAListedCustom") > strings.Index(msg, "BM25") ||
		strings.Index(msg, "BM25") > strings.Index(msg, "Cosine") {
		t.Fatalf("registered names must be sorted: %s", msg)
	}

	// The corpus attach path reports the same hint.
	c, err := OpenCorpus(records)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Predicate("NoSuchPredicate")
	if err == nil || !strings.Contains(err.Error(), "registered predicates:") {
		t.Fatalf("Corpus.Predicate must list registered predicates: %v", err)
	}
}

func TestBuildOptionsCompose(t *testing.T) {
	records := facadeRecords()
	// A Config replaces the parameters wholesale, so the last one wins, and
	// WithRealization composes with it in either order.
	q4, q3 := DefaultConfig(), DefaultConfig()
	q4.Q, q3.Q = 4, 3
	p, err := New("Jaccard", records, WithRealization(Declarative), q4, q3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New("Jaccard", records, q3, WithRealization(Declarative))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Predicate{p, want} {
		if _, ok := q.(core.ContextPredicate); ok {
			t.Fatal("WithRealization must build the declarative realization in either order")
		}
	}
	a, err := p.Select(records[1].Text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.Select(records[1].Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("option composition: %d vs %d matches", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("option composition diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
