package approxsel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func batchQueries(records []Record) []string {
	qs := make([]string, 0, len(records)+1)
	for _, r := range records {
		qs = append(qs, r.Text)
	}
	return append(qs, "zzzz qqqq unmatched")
}

// sequentialSelect is the reference SelectBatch: one probe at a time.
func sequentialSelect(t *testing.T, p Predicate, queries []string, opts ...SelectOption) [][]Match {
	t.Helper()
	out := make([][]Match, len(queries))
	for i, q := range queries {
		ms, err := SelectCtx(context.Background(), p, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ms
	}
	return out
}

// TestSelectBatchMatchesSequential checks the acceptance contract: a batch
// probed by N workers returns results identical to sequential probing.
func TestSelectBatchMatchesSequential(t *testing.T) {
	records := facadeRecords()
	queries := batchQueries(records)
	for _, name := range []string{"BM25", "Jaccard", "EditDistance", "SoftTFIDF"} {
		p, err := New(name, records)
		if err != nil {
			t.Fatal(err)
		}
		want := sequentialSelect(t, p, queries)
		for _, workers := range []int{1, 2, 8} {
			got, err := SelectBatch(context.Background(), p, queries, Workers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: batch diverged from sequential", name, workers)
			}
		}
	}
}

// TestSelectBatchDeclarative checks that the declarative realization, whose
// predicates serialize their own selects, yields sequential-equal results
// under a large worker count.
func TestSelectBatchDeclarative(t *testing.T) {
	records := facadeRecords()[:20]
	queries := batchQueries(records)
	p, err := New("Jaccard", records, WithRealization(Declarative))
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialSelect(t, p, queries)
	got, err := SelectBatch(context.Background(), p, queries, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("declarative batch diverged from sequential")
	}
}

// TestSelectBatchProbeOptions checks that per-probe options apply to every
// query of the batch.
func TestSelectBatchProbeOptions(t *testing.T) {
	records := facadeRecords()
	queries := batchQueries(records)
	p, err := New("BM25", records)
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialSelect(t, p, queries, Limit(3), Threshold(0))
	got, err := SelectBatch(context.Background(), p, queries, Workers(4), Limit(3), Threshold(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batch with probe options diverged from sequential")
	}
	for _, ms := range got {
		if len(ms) > 3 {
			t.Fatalf("limit not applied: %d matches", len(ms))
		}
		for _, m := range ms {
			if m.Score < 0 {
				t.Fatalf("threshold not applied: %+v", m)
			}
		}
	}
}

func TestSelectBatchEmpty(t *testing.T) {
	p, err := New("Jaccard", facadeRecords()[:5])
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectBatch(context.Background(), p, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v %v", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectBatch(ctx, p, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled empty batch: %v", err)
	}
}

func TestSelectBatchPreCancelled(t *testing.T) {
	p, err := New("Jaccard", facadeRecords()[:5])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectBatch(ctx, p, []string{"a", "b"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch must fail with context.Canceled, got %v", err)
	}
}

// slowPredicate blocks each probe briefly and counts probes.
type slowPredicate struct {
	probes  atomic.Int64
	started chan struct{}
	once    atomic.Bool
}

func (p *slowPredicate) Name() string { return "slow" }

func (p *slowPredicate) Select(string) ([]Match, error) {
	if p.once.CompareAndSwap(false, true) {
		close(p.started)
	}
	p.probes.Add(1)
	time.Sleep(2 * time.Millisecond)
	return []Match{{TID: 1, Score: 1}}, nil
}

// TestSelectBatchCancellationPrompt cancels a long batch once probing has
// started and checks it returns promptly, without draining the queue.
func TestSelectBatchCancellationPrompt(t *testing.T) {
	p := &slowPredicate{started: make(chan struct{})}
	queries := make([]string, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-p.started
		cancel()
	}()
	start := time.Now()
	_, err := SelectBatch(ctx, p, queries, Workers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch must fail with context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
	if n := p.probes.Load(); n == int64(len(queries)) {
		t.Fatal("cancellation drained the whole queue")
	}
}

// failingPredicate errors on one specific query.
type failingPredicate struct{}

func (failingPredicate) Name() string { return "failing" }

func (failingPredicate) Select(q string) ([]Match, error) {
	if q == "boom" {
		return nil, fmt.Errorf("exploded")
	}
	return []Match{{TID: 1, Score: 1}}, nil
}

func TestSelectBatchError(t *testing.T) {
	_, err := SelectBatch(context.Background(), failingPredicate{},
		[]string{"a", "boom", "b"}, Workers(2))
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("batch must surface the probe error, got %v", err)
	}
}

// racingFailures fails on every query whose text says so; "fast" failures
// return immediately while lower-indexed "slow" failures take longer, so a
// race-based error report would name the wrong query.
type racingFailures struct{}

func (racingFailures) Name() string { return "racing" }

func (racingFailures) Select(q string) ([]Match, error) {
	switch {
	case strings.HasPrefix(q, "slowfail"):
		time.Sleep(5 * time.Millisecond)
		return nil, fmt.Errorf("failed %s", q)
	case strings.HasPrefix(q, "fastfail"):
		return nil, fmt.Errorf("failed %s", q)
	}
	return []Match{{TID: 1, Score: 1}}, nil
}

// TestSelectBatchErrorDeterministic checks the BatchError contract: the
// reported query is always the lowest-indexed failing probe, even when a
// later probe fails first on the wall clock.
func TestSelectBatchErrorDeterministic(t *testing.T) {
	queries := []string{"ok", "slowfail-1", "ok", "ok", "fastfail-4", "ok", "fastfail-6"}
	for _, workers := range []int{1, 2, 4, 8} {
		for round := 0; round < 5; round++ {
			_, err := SelectBatch(context.Background(), racingFailures{}, queries, Workers(workers))
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("workers=%d: want *BatchError, got %v", workers, err)
			}
			if be.Query != 1 {
				t.Fatalf("workers=%d round=%d: want lowest failing query 1, got %d (%v)",
					workers, round, be.Query, err)
			}
		}
	}
}

// TestBatchErrorUnwrap checks that errors.Is/errors.As see through
// BatchError to the probe's cause, end to end through the join path too.
func TestBatchErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel cause")
	p := probeErr{err: sentinel}
	_, err := SelectBatch(context.Background(), p, []string{"a", "b"}, Workers(2))
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is must reach the probe cause through BatchError, got %v", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Query != 0 || be.Unwrap() != sentinel {
		t.Fatalf("errors.As/Unwrap mismatch: %v", err)
	}

	// The joins wrap the same failure naming the probe TID; the cause must
	// still be reachable.
	_, err = ApproximateJoin(p, []Record{{TID: 7, Text: "x"}}, 0.5)
	if !errors.Is(err, sentinel) {
		t.Fatalf("join must keep the probe cause reachable, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "tid 7") {
		t.Fatalf("join error must name the probe tid, got %v", err)
	}
}

// probeErr fails every probe with a fixed error.
type probeErr struct{ err error }

func (probeErr) Name() string                     { return "probeErr" }
func (p probeErr) Select(string) ([]Match, error) { return nil, p.err }
