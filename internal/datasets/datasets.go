// Package datasets synthesizes the two clean sources of §5.1. The paper
// uses a proprietary company-names list (2139 tuples, avg 21.0 chars, 2.9
// words/tuple) and DBLP paper titles (10425 tuples, avg 33.6 chars, 4.5
// words/tuple); neither ships with this reproduction, so seeded generators
// produce relations matching those statistics — size, tuple length, words
// per tuple, and a Zipf-ish token frequency profile with very frequent
// suffix/stop words, which is what the similarity predicates actually see.
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Company-name vocabulary. Suffixes are intentionally heavy-tailed: Inc.
// and Incorporated dominate, matching the paper's premise that they are
// frequent words in the company-names database (§5.4).
var (
	companyHeads = []string{
		"Morgan", "Stanley", "Pacific", "Global", "Atlas", "Vertex", "Orion",
		"Summit", "Redwood", "Cascade", "Pioneer", "Liberty", "Crescent",
		"Falcon", "Granite", "Harbor", "Juniper", "Keystone", "Lakeside",
		"Meridian", "Nimbus", "Olympic", "Quantum", "Sterling", "Titan",
		"Vanguard", "Willow", "Zenith", "Aurora", "Beacon", "Cobalt",
		"Dynamo", "Everest", "Frontier", "Gateway", "Horizon", "Ivory",
		"Jade", "Kodiak", "Lunar", "Monarch", "Nova", "Onyx", "Phoenix",
		"Quartz", "Raven", "Sapphire", "Tempest", "Umber", "Vortex",
		"Santa", "Monica", "Beijing", "Shanghai", "Berlin", "Lisbon",
		"Cairo", "Dublin", "Geneva", "Helsinki", "Istanbul", "Jakarta",
		"Kyoto", "Lima", "Madrid", "Nairobi", "Oslo", "Prague", "Quito",
		"Riga", "Seoul", "Tokyo", "Utrecht", "Vienna", "Warsaw", "York",
	}
	companyCores = []string{
		"Systems", "Data", "Energy", "Foods", "Steel", "Mills", "Freight",
		"Airways", "Media", "Tools", "Mining", "Textiles", "Widgets",
		"Software", "Networks", "Capital", "Partners", "Holdings",
		"Industries", "Logistics", "Materials", "Dynamics", "Electric",
		"Petroleum", "Pharmaceuticals", "Robotics", "Semiconductors",
		"Telecom", "Ventures", "Labs", "Hotel", "Bank", "Trust", "Motors",
		"Chemicals", "Plastics", "Optics", "Marine", "Aviation", "Rail",
	}
	companySuffixes = []struct {
		text   string
		weight int
	}{
		{"Inc.", 30}, {"Incorporated", 18}, {"Corp.", 12}, {"Corporation", 8},
		{"Ltd.", 8}, {"Limited", 5}, {"LLC", 6}, {"Group", 6}, {"Co.", 5},
		{"Company", 2},
	}
)

// zipfPick samples an index in [0, n) with probability ∝ 1/(rank+1)^s,
// giving the vocabulary the heavy-tailed frequency profile of real company
// names and titles (visible in the paper's Figure 5.6 IDF distribution).
// Rejection sampling over ranks keeps it allocation-free.
func zipfPick(rng *rand.Rand, n int, s float64) int {
	for {
		k := rng.Intn(n)
		if rng.Float64() < 1/math.Pow(float64(k+1), s) {
			return k
		}
	}
}

// Abbreviations returns the domain-specific long/short pairs the generator
// uses for company-name abbreviation errors (§5.1: "e.g., replacing Inc.
// with Incorporated and vice versa").
func Abbreviations() [][2]string {
	return [][2]string{
		{"Incorporated", "Inc."},
		{"Corporation", "Corp."},
		{"Limited", "Ltd."},
		{"Company", "Co."},
	}
}

// CompanyNames generates n distinct synthetic company names. The defaults
// track Table 5.1: with n = 2139 the relation averages ≈21 characters and
// ≈2.9 words per tuple.
func CompanyNames(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	suffixTotal := 0
	for _, s := range companySuffixes {
		suffixTotal += s.weight
	}
	pickSuffix := func() string {
		r := rng.Intn(suffixTotal)
		for _, s := range companySuffixes {
			r -= s.weight
			if r < 0 {
				return s.text
			}
		}
		return companySuffixes[0].text
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		var parts []string
		parts = append(parts, companyHeads[zipfPick(rng, len(companyHeads), 0.7)])
		// ~25% get a second head word; ~70% a core word; ~95% a suffix.
		// These rates put the relation at Table 5.1's ≈21 chars and ≈2.9
		// words per tuple.
		if rng.Float64() < 0.25 {
			parts = append(parts, companyHeads[zipfPick(rng, len(companyHeads), 0.7)])
		}
		if rng.Float64() < 0.70 {
			parts = append(parts, companyCores[zipfPick(rng, len(companyCores), 0.8)])
		}
		if rng.Float64() < 0.95 {
			parts = append(parts, pickSuffix())
		}
		name := strings.Join(parts, " ")
		if seen[name] {
			// Disambiguate collisions with a numbered division, keeping
			// realistic shape.
			name = fmt.Sprintf("%s %d", name, rng.Intn(90)+10)
			if seen[name] {
				continue
			}
		}
		seen[name] = true
		out = append(out, name)
	}
	return out
}

// DBLP-like title vocabulary.
var (
	titleTopics = []string{
		"databases", "indexing", "queries", "joins", "views", "trees",
		"clustering", "retrieval", "caching", "hashing", "logs", "keys",
		"streams", "graphs", "networks", "learning", "tuning", "cubes",
		"compression", "replication", "recovery", "scheduling", "mining",
		"integration", "cleaning", "matching", "ranking", "sampling",
		"estimation", "aggregation", "partitioning", "privacy", "search",
		"provenance", "workflows", "semantics", "storage", "skyline",
		"sql", "xml", "olap", "etl", "triggers", "schemas", "cursors",
	}
	titleQualifiers = []string{
		"efficient", "scalable", "approximate", "adaptive", "distributed",
		"parallel", "incremental", "robust", "declarative", "probabilistic",
		"dynamic", "secure", "flexible", "optimal", "practical", "fast",
		"unified", "lazy", "streaming", "online", "hybrid", "exact",
	}
	titleConnectives = []string{"for", "of", "with", "in", "over", "under", "via"}
	// Pattern mix tuned to Table 5.1's ≈4.5 words and ≈33.5 characters.
	titlePatterns = []string{"QTcT", "QTcQT", "QQTcT", "aQTcT", "TcQT", "QQT", "QTcTcT"}
)

// DBLPTitles generates n synthetic paper titles. With n = 10425 the
// relation averages ≈33.5 characters and ≈4.5 words per tuple, matching
// Table 5.1.
func DBLPTitles(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		pattern := titlePatterns[rng.Intn(len(titlePatterns))]
		var parts []string
		for _, p := range pattern {
			switch p {
			case 'Q':
				parts = append(parts, titleQualifiers[zipfPick(rng, len(titleQualifiers), 0.8)])
			case 'T':
				parts = append(parts, titleTopics[zipfPick(rng, len(titleTopics), 0.8)])
			case 'c':
				parts = append(parts, titleConnectives[rng.Intn(len(titleConnectives))])
			case 'a':
				parts = append(parts, "towards")
			}
		}
		title := strings.Join(parts, " ")
		title = strings.ToUpper(title[:1]) + title[1:]
		if seen[title] {
			title = fmt.Sprintf("%s %d", title, rng.Intn(900)+100)
			if seen[title] {
				continue
			}
		}
		seen[title] = true
		out = append(out, title)
	}
	return out
}

// Stats summarizes a clean relation the way Table 5.1 does.
type Stats struct {
	Tuples        int
	AvgTupleLen   float64
	WordsPerTuple float64
}

// Describe computes Table 5.1-style statistics.
func Describe(rows []string) Stats {
	s := Stats{Tuples: len(rows)}
	if len(rows) == 0 {
		return s
	}
	chars, words := 0, 0
	for _, r := range rows {
		chars += len([]rune(r))
		words += len(strings.Fields(r))
	}
	s.AvgTupleLen = float64(chars) / float64(len(rows))
	s.WordsPerTuple = float64(words) / float64(len(rows))
	return s
}
