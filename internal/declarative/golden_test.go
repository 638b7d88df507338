package declarative

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dirty"
)

// goldenPath holds the score bits of every declarative predicate on
// goldenRelation, one line per (predicate, query):
//
//	predicate <TAB> query <TAB> matches <TAB> digest <TAB> tid:bits ...
//
// digest is the first 16 hex digits of the SHA-256 of every "tid:bits\n" in
// result order, so a single changed bit anywhere in a ranking shows; the
// leading goldenTop matches are spelled out to make a diff readable. bits is
// math.Float64bits of the score in hex. Deleting the file makes the test
// write it afresh (and fail, so a regeneration is never silent).
const (
	goldenPath = "testdata/golden_scores.txt"
	goldenTop  = 8
)

// goldenRelation is 300 dirty DBLP-like titles and twelve queries: nine
// records of the relation, a query that repeats a word, the empty query and
// a single word.
func goldenRelation(t *testing.T) ([]core.Record, []string) {
	t.Helper()
	ds, err := dirty.DBLP(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for i := 0; i < 9; i++ {
		queries = append(queries, ds.Records[i*33].Text)
	}
	queries = append(queries, "scalable scalable indexing of streams", "", "databases")
	return ds.Records, queries
}

// goldenLine renders one predicate's answer to one query.
func goldenLine(name, query string, ms []core.Match) string {
	h := sha256.New()
	var top []string
	for i, m := range ms {
		cell := fmt.Sprintf("%d:%016x", m.TID, math.Float64bits(m.Score))
		fmt.Fprintln(h, cell)
		if i < goldenTop {
			top = append(top, cell)
		}
	}
	return strings.Join([]string{name, fmt.Sprintf("%q", query), fmt.Sprint(len(ms)),
		hex.EncodeToString(h.Sum(nil))[:16], strings.Join(top, " ")}, "\t")
}

// TestGoldenScoreBits holds all 13 declarative predicates to the exact
// score bits recorded in goldenPath: the SQL engine's emission order fixes
// how every float SUM associates, so a storage or executor change that
// reorders rows, or a predicate change that rewrites a formula, shows here
// even where the differential against native still agrees to 1e-9.
func TestGoldenScoreBits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all 13 predicates")
	}
	records, queries := goldenRelation(t)
	var got []string
	for _, name := range core.PredicateNames {
		p, err := Build(name, records, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range queries {
			ms, err := p.Select(q)
			if err != nil {
				t.Fatalf("%s select(%q): %v", name, q, err)
			}
			got = append(got, goldenLine(name, q, ms))
		}
	}

	f, err := os.Open(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d lines); run the test again", goldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, %d computed", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("score bits changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
