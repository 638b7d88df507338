// Package dirty implements the benchmark's data generation scheme (§5.1):
// a modified and enhanced UIS database generator that injects controlled
// errors into a clean relation of string attributes while tracking which
// clean tuple each erroneous duplicate came from, so precision/recall can be
// computed exactly.
//
// Supported error knobs mirror the paper's: duplicate distribution (uniform,
// Zipfian, Poisson), percentage of erroneous duplicates, extent of character
// edit errors (insert/delete/replace/swap), token swap errors, and
// domain-specific abbreviation errors.
package dirty

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
)

// Distribution selects how duplicates are allocated across clean tuples.
type Distribution int

// Duplicate distributions of §5.1.
const (
	Uniform Distribution = iota
	Zipfian
	Poisson
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case Poisson:
		return "poisson"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Params control the generator; they correspond one-to-one to the §5.1
// bullet list. Fractions are in [0, 1].
type Params struct {
	// Size is the total number of tuples to generate (clean + duplicates).
	Size int
	// NumClean is the number of clean tuples used to seed clusters.
	NumClean int
	// Dist is the duplicate distribution across clean tuples.
	Dist Distribution
	// ErroneousPct is the fraction of duplicates that receive errors.
	ErroneousPct float64
	// ErrorExtent is the fraction of characters selected for character
	// edit errors in each erroneous duplicate.
	ErrorExtent float64
	// TokenSwapPct is the fraction of adjacent word pairs swapped in each
	// erroneous duplicate.
	TokenSwapPct float64
	// AbbrPct is the fraction of erroneous duplicates receiving a
	// domain-specific abbreviation substitution (e.g. Inc. ↔ Incorporated).
	AbbrPct float64
	// Seed makes generation deterministic.
	Seed int64
}

// Dataset is a generated dirty relation plus the ground truth needed by the
// accuracy evaluation: the cluster (source clean tuple) of every record.
type Dataset struct {
	Records []core.Record
	// Cluster maps TID → cluster id (one cluster per clean source tuple).
	Cluster map[int]int
	// Clusters maps cluster id → member TIDs.
	Clusters map[int][]int
}

// Generate builds a dirty dataset from clean source strings. abbrs holds
// bidirectional abbreviation pairs (long form, short form).
func Generate(clean []string, abbrs [][2]string, p Params) (*Dataset, error) {
	if p.NumClean <= 0 || p.NumClean > len(clean) {
		return nil, fmt.Errorf("dirty: NumClean %d out of range (have %d clean tuples)", p.NumClean, len(clean))
	}
	if p.Size < p.NumClean {
		return nil, fmt.Errorf("dirty: Size %d smaller than NumClean %d", p.Size, p.NumClean)
	}
	for _, frac := range []float64{p.ErroneousPct, p.ErrorExtent, p.TokenSwapPct, p.AbbrPct} {
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("dirty: fraction parameter %v out of [0,1]", frac)
		}
	}
	rng := rand.New(rand.NewSource(p.Seed))

	counts := duplicateCounts(p, rng)
	ds := &Dataset{
		Cluster:  make(map[int]int, p.Size),
		Clusters: make(map[int][]int, p.NumClean),
	}
	tid := 1
	add := func(cluster int, text string) {
		ds.Records = append(ds.Records, core.Record{TID: tid, Text: text})
		ds.Cluster[tid] = cluster
		ds.Clusters[cluster] = append(ds.Clusters[cluster], tid)
		tid++
	}
	for c := 0; c < p.NumClean; c++ {
		src := normalizeSpace(clean[c])
		add(c, src) // the clean tuple itself
		for d := 0; d < counts[c]; d++ {
			dup := src
			if rng.Float64() < p.ErroneousPct {
				dup = injectErrors(dup, abbrs, p, rng)
			}
			add(c, dup)
		}
	}
	return ds, nil
}

// DBLP generates the medium-error DBLP-like relation of the performance
// experiments (§5.5): size tuples over max(size/10, 10) clean titles, 70%
// erroneous duplicates, 20% error extent and 20% token swap, uniform, with
// no abbreviation errors. seed drives both the clean titles and the errors.
func DBLP(size int, seed int64) (*Dataset, error) {
	numClean := max(size/10, 10)
	return Generate(datasets.DBLPTitles(numClean, seed), nil, Params{
		Size: size, NumClean: numClean, Dist: Uniform,
		ErroneousPct: 0.70, ErrorExtent: 0.20, TokenSwapPct: 0.20,
		Seed: seed,
	})
}

// duplicateCounts allocates Size − NumClean duplicates across clusters
// according to the configured distribution.
func duplicateCounts(p Params, rng *rand.Rand) []int {
	total := p.Size - p.NumClean
	counts := make([]int, p.NumClean)
	switch p.Dist {
	case Zipfian:
		// Weight cluster k by 1/(k+1); assign proportionally, then spread
		// the rounding remainder over the head of the distribution.
		weights := make([]float64, p.NumClean)
		sum := 0.0
		for i := range weights {
			weights[i] = 1 / float64(i+1)
			sum += weights[i]
		}
		assigned := 0
		for i := range counts {
			counts[i] = int(float64(total) * weights[i] / sum)
			assigned += counts[i]
		}
		for i := 0; assigned < total; i = (i + 1) % p.NumClean {
			counts[i]++
			assigned++
		}
	case Poisson:
		// Sample Poisson(λ = mean duplicates) per cluster, then repair the
		// total by incrementing/decrementing random clusters.
		lambda := float64(total) / float64(p.NumClean)
		assigned := 0
		for i := range counts {
			counts[i] = poissonSample(lambda, rng)
			assigned += counts[i]
		}
		for assigned < total {
			counts[rng.Intn(p.NumClean)]++
			assigned++
		}
		for assigned > total {
			i := rng.Intn(p.NumClean)
			if counts[i] > 0 {
				counts[i]--
				assigned--
			}
		}
	default: // Uniform
		each := total / p.NumClean
		rem := total % p.NumClean
		for i := range counts {
			counts[i] = each
			if i < rem {
				counts[i]++
			}
		}
	}
	return counts
}

// poissonSample draws from Poisson(λ) by inversion (λ is small here).
func poissonSample(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// injectErrors applies, in order: abbreviation substitution, token swaps,
// then character edit errors — matching the sample tuples of Table 5.4
// where character noise degrades already-swapped words.
func injectErrors(s string, abbrs [][2]string, p Params, rng *rand.Rand) string {
	if p.AbbrPct > 0 && rng.Float64() < p.AbbrPct {
		s = applyAbbreviation(s, abbrs, rng)
	}
	if p.TokenSwapPct > 0 {
		s = swapTokens(s, p.TokenSwapPct, rng)
	}
	if p.ErrorExtent > 0 {
		s = editChars(s, p.ErrorExtent, rng)
	}
	return s
}

// applyAbbreviation replaces one long form with its short form or vice
// versa, if any pair matches a word of s.
func applyAbbreviation(s string, abbrs [][2]string, rng *rand.Rand) string {
	if len(abbrs) == 0 {
		return s
	}
	words := strings.Fields(s)
	// Try pairs in random order so repeated duplicates vary.
	order := rng.Perm(len(abbrs))
	for _, pi := range order {
		long, short := abbrs[pi][0], abbrs[pi][1]
		for wi, w := range words {
			if w == long {
				words[wi] = short
				return strings.Join(words, " ")
			}
			if w == short {
				words[wi] = long
				return strings.Join(words, " ")
			}
		}
	}
	return s
}

// swapTokens swaps a fraction of adjacent word pairs.
func swapTokens(s string, frac float64, rng *rand.Rand) string {
	words := strings.Fields(s)
	if len(words) < 2 {
		return s
	}
	pairs := len(words) - 1
	swaps := int(math.Round(frac * float64(pairs)))
	if swaps == 0 && rng.Float64() < frac*float64(pairs) {
		swaps = 1
	}
	for i := 0; i < swaps; i++ {
		j := rng.Intn(pairs)
		words[j], words[j+1] = words[j+1], words[j]
	}
	return strings.Join(words, " ")
}

// editChars injects extent·len character edit errors: insertion, deletion,
// replacement or adjacent swap, at random positions.
func editChars(s string, extent float64, rng *rand.Rand) string {
	runes := []rune(s)
	edits := int(math.Round(extent * float64(len(runes))))
	if edits == 0 && rng.Float64() < extent*float64(len(runes)) {
		edits = 1
	}
	for i := 0; i < edits; i++ {
		if len(runes) == 0 {
			break
		}
		pos := rng.Intn(len(runes))
		switch rng.Intn(4) {
		case 0: // insert
			c := randomChar(rng)
			runes = append(runes[:pos], append([]rune{c}, runes[pos:]...)...)
		case 1: // delete
			runes = append(runes[:pos], runes[pos+1:]...)
		case 2: // replace
			runes[pos] = randomChar(rng)
		case 3: // swap adjacent
			if pos+1 < len(runes) {
				runes[pos], runes[pos+1] = runes[pos+1], runes[pos]
			} else if pos > 0 {
				runes[pos], runes[pos-1] = runes[pos-1], runes[pos]
			}
		}
	}
	return normalizeSpace(string(runes))
}

func randomChar(rng *rand.Rand) rune {
	return rune('a' + rng.Intn(26))
}

func normalizeSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
