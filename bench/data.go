package main

import (
	"fmt"
	"math/rand"
	"strings"

	approxsel "repro"
)

// The predicate groups of the workloads. engineEight run on core's
// max-score engine; expensiveFive use core scratch and token tables but not
// the engine's merge; declSix is one predicate per class of the paper.
var (
	engineEight   = []string{"IntersectSize", "Jaccard", "WeightedMatch", "WeightedJaccard", "Cosine", "BM25", "LM", "HMM"}
	expensiveFive = []string{"EditDistance", "GES", "GESJaccard", "GESapx", "SoftTFIDF"}
	declSix       = []string{"Jaccard", "BM25", "LM", "EditDistance", "GESJaccard", "SoftTFIDF"}
)

const selectLimit = 10

// cleanSeed fixes the clean source: the paper draws every dirty relation
// from one clean DBLP extract, and so does the benchmark. The run's seed
// drives everything made from it: which tuples are duplicated and how they
// are damaged, which of them become queries, and the order of operations.
const cleanSeed = 1

// dataset generates the paper's dirty relation: DBLP-like titles, uniform
// duplicates, 70% erroneous, 20% edit extent, 20% token swap (§5.5).
func dataset(size int, seed int64) (*approxsel.DirtyDataset, error) {
	numClean := size / 10
	if numClean < 10 {
		numClean = 10
	}
	if size < numClean {
		return nil, fmt.Errorf("bench: relation size %d is below the %d-tuple minimum", size, numClean)
	}
	return approxsel.GenerateDirty(approxsel.DBLPTitles(numClean, cleanSeed), nil, approxsel.DirtyParams{
		Size: size, NumClean: numClean, Dist: approxsel.Uniform,
		ErroneousPct: 0.70, ErrorExtent: 0.20, TokenSwapPct: 0.20,
		Seed: seed,
	})
}

// pickQueries draws up to n records of the relation with distinct texts as
// the query population: a data-cleaning pipeline probes the relation with
// dirty versions of its own tuples. (Clean duplicates repeat a text, and a
// repeated text would be a repeated cache key.) The TIDs are kept so
// accuracy checks know each query's cluster.
func pickQueries(records []approxsel.Record, n int, seed int64) []approxsel.Record {
	return pickQueriesWhere(records, n, seed, func(string) bool { return true })
}

// pickQueriesWhere is pickQueries over the texts keep accepts.
func pickQueriesWhere(records []approxsel.Record, n int, seed int64, keep func(text string) bool) []approxsel.Record {
	perm := rand.New(rand.NewSource(seed)).Perm(len(records))
	seen := make(map[string]bool, n)
	out := make([]approxsel.Record, 0, n)
	for _, i := range perm {
		if len(out) == n {
			break
		}
		if r := records[i]; !seen[r.Text] && keep(r.Text) {
			seen[r.Text] = true
			out = append(out, r)
		}
	}
	return out
}

// distinctWords reports whether no word of the text repeats, ignoring case.
func distinctWords(text string) bool {
	seen := map[string]bool{}
	for _, w := range strings.Fields(strings.ToUpper(text)) {
		if seen[w] {
			return false
		}
		seen[w] = true
	}
	return true
}

// selectOp is one select of an operation list.
type selectOp struct {
	predicate string
	query     string
}

// crossOps is every (predicate, query) pair once, in seeded order.
func crossOps(predicates []string, queries []approxsel.Record, seed int64) []selectOp {
	ops := make([]selectOp, 0, len(predicates)*len(queries))
	for _, q := range queries {
		for _, p := range predicates {
			ops = append(ops, selectOp{predicate: p, query: q.Text})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// zipfIndexes draws count indexes in [0, n) with zipf skew s: index 0 is
// the most popular. The caller maps indexes onto a seeded key order.
func zipfIndexes(n, count int, s float64, seed int64) []int32 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// mutation is one single-record write of the write-durable op list.
type mutation struct {
	kind string // "insert", "upsert" or "delete"
	rec  approxsel.Record
}

// mutationList builds n single-record mutations over a relation whose live
// TIDs start as base: every block of five holds three inserts, one upsert
// and one delete in seeded order, so any prefix keeps the 60/20/20 mix.
// Inserts and upsert texts come from pool (records not in base); the list
// ends early when the pool runs out. Every mutation is valid when applied
// in order.
func mutationList(base, pool []approxsel.Record, n int, seed int64) []mutation {
	rng := rand.New(rand.NewSource(seed))
	live := make([]int, len(base))
	for i, r := range base {
		live[i] = r.TID
	}
	block := []string{"insert", "insert", "insert", "upsert", "delete"}
	out := make([]mutation, 0, n)
	next := 0
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if len(out) == n {
				break
			}
			if kind != "delete" && next == len(pool) {
				return out
			}
			switch kind {
			case "insert":
				out = append(out, mutation{kind: kind, rec: pool[next]})
				live = append(live, pool[next].TID)
				next++
			case "upsert":
				tid := live[rng.Intn(len(live))]
				out = append(out, mutation{kind: kind, rec: approxsel.Record{TID: tid, Text: pool[next].Text}})
				next++
			case "delete":
				i := rng.Intn(len(live))
				out = append(out, mutation{kind: kind, rec: approxsel.Record{TID: live[i]}})
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
	}
	return out
}

// applyMutations folds a mutation prefix onto a record set, keyed by TID —
// the reference state a freshly rebuilt corpus is compared with.
func applyMutations(base []approxsel.Record, muts []mutation) []approxsel.Record {
	idx := make(map[int]int, len(base))
	out := append([]approxsel.Record(nil), base...)
	for i, r := range out {
		idx[r.TID] = i
	}
	for _, m := range muts {
		switch m.kind {
		case "insert":
			idx[m.rec.TID] = len(out)
			out = append(out, m.rec)
		case "upsert":
			out[idx[m.rec.TID]].Text = m.rec.Text
		case "delete":
			i, last := idx[m.rec.TID], len(out)-1
			out[i] = out[last]
			idx[out[i].TID] = i
			out = out[:last]
			delete(idx, m.rec.TID)
		}
	}
	return out
}
