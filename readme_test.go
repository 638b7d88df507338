package approxsel

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestReadmePathsExist keeps README's repository paths honest: every
// backticked token that starts with internal/, cmd/, bench/ or examples/
// names a file or directory that exists (its first word is the path, so
// `examples/dedup -live` checks examples/dedup), and no retired BENCH_*.json
// artifact is mentioned.
func TestReadmePathsExist(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	checked := 0
	for _, m := range regexp.MustCompile("`((?:internal|cmd|bench|examples)/[^`]*)`").FindAllStringSubmatch(readme, -1) {
		path := strings.TrimRight(strings.Fields(m[1])[0], "/")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("README names `%s`, but %s does not exist", m[1], path)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no repository path found in README; the pattern is stale")
	}
	for _, name := range regexp.MustCompile(`BENCH_\w*\.json`).FindAllString(readme, -1) {
		t.Errorf("README mentions %s; the BENCH_*.json artifacts are retired", name)
	}
}
