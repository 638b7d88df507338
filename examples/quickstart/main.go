// Command quickstart shows the smallest useful program: build one predicate
// over a handful of company names and run approximate selections against it,
// both with the in-memory realization and the declarative (SQL) one.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	approxsel "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the walkthrough to w. It fails if the declarative BM25 top
// match is not the native one: same TID, score within 1e-9.
func run(w io.Writer) error {
	records := []approxsel.Record{
		{TID: 1, Text: "AT&T Incorporated"},
		{TID: 2, Text: "AT&T Inc."},
		{TID: 3, Text: "IBM Incorporated"},
		{TID: 4, Text: "Morgan Stanley Group Inc."},
		{TID: 5, Text: "Stanley Morgan Group Inc."},
		{TID: 6, Text: "Silicon Valley Group, Inc."},
		{TID: 7, Text: "Beijing Hotel"},
		{TID: 8, Text: "Hotel Beijing"},
		{TID: 9, Text: "Beijing Labs"},
	}
	ctx := context.Background()

	// The paper's strongest all-round predicate: BM25 over 2-grams. With no
	// options New uses the paper's defaults and the in-memory realization.
	bm25, err := approxsel.New("BM25", records)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "BM25 top 4 for query 'AT&T Inc':")
	matches, err := approxsel.SelectCtx(ctx, bm25, "AT&T Inc", approxsel.Limit(4))
	if err != nil {
		return err
	}
	for _, m := range matches {
		fmt.Fprintf(w, "  tid %d  score %7.3f  %s\n", m.TID, m.Score, text(records, m.TID))
	}

	// The same predicate, realized purely in SQL over the bundled engine.
	decl, err := approxsel.New("BM25", records,
		approxsel.WithRealization(approxsel.Declarative))
	if err != nil {
		return err
	}
	top, err := approxsel.TopK(decl, "AT&T Inc", 1)
	if err != nil {
		return err
	}
	if len(top) == 0 || len(matches) == 0 || top[0].TID != matches[0].TID ||
		math.Abs(top[0].Score-matches[0].Score) > 1e-9 {
		return fmt.Errorf("declarative BM25 top match %v differs from the native %v", top, matches)
	}
	fmt.Fprintf(w, "\nDeclarative BM25 agrees: top match is tid %d (%s), score %.3f\n",
		top[0].TID, text(records, top[0].TID), top[0].Score)

	// Thresholded selection: the paper's sim(tq, t) >= theta operation,
	// with a Config option tweaking one parameter of the defaults.
	cfg := approxsel.DefaultConfig()
	cfg.Q = 2
	jac, err := approxsel.New("Jaccard", records, cfg)
	if err != nil {
		return err
	}
	close, err := approxsel.SelectCtx(ctx, jac, "Beijing Hotel", approxsel.Threshold(0.5))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nJaccard >= 0.5 for 'Beijing Hotel':")
	for _, m := range close {
		fmt.Fprintf(w, "  tid %d  score %5.3f  %s\n", m.TID, m.Score, text(records, m.TID))
	}

	// Batched probing: every record queries the base relation through a
	// worker pool, here keeping each record's best non-trivial match.
	queries := make([]string, len(records))
	for i, r := range records {
		queries[i] = r.Text
	}
	res, err := approxsel.SelectBatch(ctx, bm25, queries,
		approxsel.Workers(4), approxsel.Limit(2))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nBatch probe, best other match per record:")
	for i, ms := range res {
		for _, m := range ms {
			if m.TID == records[i].TID {
				continue
			}
			fmt.Fprintf(w, "  %-28s -> tid %d (%s)\n", records[i].Text, m.TID, text(records, m.TID))
			break
		}
	}
	return nil
}

func text(records []approxsel.Record, tid int) string {
	for _, r := range records {
		if r.TID == tid {
			return r.Text
		}
	}
	return "?"
}
