package store

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// hookFaults is a minimal FaultHook: one-shot armed faults.
type hookFaults struct {
	failFsync bool
	tearKeep  int
	tearArmed bool
}

func (h *hookFaults) WALAppend(dir string, frame []byte) (int, error) {
	if !h.tearArmed {
		return len(frame), nil
	}
	h.tearArmed = false
	keep := h.tearKeep
	if keep > len(frame) {
		keep = len(frame)
	}
	return keep, errors.New("injected torn append")
}

func (h *hookFaults) Fsync(path string) error {
	if !h.failFsync {
		return nil
	}
	h.failFsync = false
	return errors.New("injected fsync failure")
}

// TestInjectedTornAppendReplaysToLastAck tears a WAL append mid-frame via
// the fault hook: the mutation must not be acknowledged, and a reopen must
// replay exactly the acknowledged epochs, truncating the torn tail.
func TestInjectedTornAppendReplaysToLastAck(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(core.Record{TID: 100, Text: "Beijing Hotel Group"}); err != nil {
		t.Fatal(err)
	}
	ackedEpoch := c.Epoch()
	ackedRecs := len(c.Records())

	h := &hookFaults{tearArmed: true, tearKeep: 7}
	SetFaultHook(h)
	defer SetFaultHook(nil)
	if err := c.Insert(core.Record{TID: 101, Text: "Torn Mid Write Corp"}); err == nil {
		t.Fatal("append through torn-write fault must fail the mutation")
	}
	SetFaultHook(nil)
	// The log poisoned itself — no more acks into a torn file.
	if err := c.Insert(core.Record{TID: 102, Text: "After Poison Inc"}); err == nil {
		t.Fatal("mutation after poisoned log must fail")
	}
	_ = l

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	defer l2.Close()
	c2 := l2.Corpus()
	if c2.Epoch() != ackedEpoch {
		t.Fatalf("replayed epoch %d, want last acked %d", c2.Epoch(), ackedEpoch)
	}
	if got := len(c2.Records()); got != ackedRecs {
		t.Fatalf("replayed %d records, want %d", got, ackedRecs)
	}
	// The reopened store keeps working: the torn tail was truncated, so new
	// appends land after the last good frame.
	if err := c2.Insert(core.Record{TID: 103, Text: "Post Recovery Ltd"}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestInjectedFsyncFailureMidCheckpoint fails the tmp segment's fsync: the
// checkpoint must abort cleanly, the previous (segment, WAL) pair must stay
// authoritative, and a reopen must still reach the last acked epoch.
func TestInjectedFsyncFailureMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(core.Record{TID: 100, Text: "Beijing Hotel Group"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert(core.Record{TID: 100, Text: "Beijing Hotel Group Ltd"}); err != nil {
		t.Fatal(err)
	}
	ackedEpoch := c.Epoch()

	h := &hookFaults{failFsync: true}
	SetFaultHook(h)
	defer SetFaultHook(nil)
	if err := l.Checkpoint(); err == nil {
		t.Fatal("checkpoint through fsync fault must fail")
	}
	SetFaultHook(nil)

	// The aborted checkpoint left the old pair intact: WAL entries still
	// pending, snapshot epoch unchanged.
	st := l.Stats()
	if st.SnapshotEpoch != 0 || st.WALEntries != 2 {
		t.Fatalf("stats after aborted checkpoint: %+v", st)
	}
	// The store still functions — a later checkpoint succeeds.
	if err := l.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after heal: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Corpus().Epoch(); got != ackedEpoch {
		t.Fatalf("replayed epoch %d, want last acked %d", got, ackedEpoch)
	}
}

// TestInjectedSyncFailureSurfaces verifies Sync reports an injected fsync
// error instead of claiming durability.
func TestInjectedSyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := c.Insert(core.Record{TID: 100, Text: "Beijing Hotel Group"}); err != nil {
		t.Fatal(err)
	}
	SetFaultHook(&hookFaults{failFsync: true})
	defer SetFaultHook(nil)
	if err := l.Sync(); err == nil {
		t.Fatal("Sync through fsync fault must report the error")
	}
	SetFaultHook(nil)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after heal: %v", err)
	}
}
