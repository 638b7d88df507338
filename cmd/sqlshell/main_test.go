package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/tokenize"
)

// TestShellSession scripts one session: \t lists every seeded table with
// its row count, the package comment's scoring query ranks the first
// company's own record first, and bad SQL prints an error and the shell
// carries on.
func TestShellSession(t *testing.T) {
	in := strings.Join([]string{
		`\t`,
		"SELECT R1.tid, COUNT(*) AS score",
		"     FROM base_tokens R1, query_tokens R2",
		"     WHERE R1.token = R2.token GROUP BY R1.tid ORDER BY score DESC;",
		"SELECT FROM nowhere;",
		"INSERT INTO nowhere VALUES (1);",
		"SELECT COUNT(*) FROM base_table;",
		`\q`,
		"SELECT 1;",
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()

	names := datasets.CompanyNames(50, 1)
	grams := 0
	for _, name := range names {
		grams += len(tokenize.QGrams(name, 2))
	}
	for _, want := range []string{
		fmt.Sprintf("  %-20s %6d rows  (tid, string)\n", "base_table", len(names)),
		fmt.Sprintf("  %-20s %6d rows  (tid, token)\n", "base_tokens", grams),
		fmt.Sprintf("  %-20s %6d rows  (token)\n", "query_tokens", len(tokenize.QGrams(names[0], 2))),
		"tid | score\n1 | ",
		"col0\n50\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("session output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "error: "); n != 2 {
		t.Errorf("%d errors printed, want 2 (bad SELECT, unknown table):\n%s", n, got)
	}
	if strings.Contains(got, "col0\n1\n") {
		t.Errorf("statements after \\q ran:\n%s", got)
	}
}
