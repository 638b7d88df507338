// Package watch is the standing-query subsystem: a watch installs a
// predicate + threshold pair over a live corpus and receives epoch-tagged
// match/unmatch events as the corpus mutates, instead of re-running a
// batch join. Only the delta record of each mutation is evaluated — via
// the hot-path Select for live inserts, via an equivalent pairwise scan
// for retractions and WAL replay — under a strict contract: folding a
// watch's emissions up to epoch E yields exactly the pair set and scores
// a from-scratch batch join would produce at epoch E.
//
// Delivery is resumable. Every event carries the (shard, epoch) the
// mutation moved the corpus to; a client that reconnects presents the
// epoch vector it last saw, the hub replays the missed window from its
// mutation history (seeded from the WAL on a cold start), and live
// delivery continues seamlessly — each missed event delivered exactly
// once.
package watch

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// EventKind labels an event as asserting or retracting a match pair.
type EventKind string

const (
	// KindMatch asserts a pair: it entered the join result at this epoch.
	KindMatch EventKind = "match"
	// KindUnmatch retracts a pair: a delete or upsert removed it from the
	// join result at this epoch. Score is the score the pair had.
	KindUnmatch EventKind = "unmatch"
)

// Event is one incremental change to the watch's join result.
type Event struct {
	Kind EventKind `json:"kind"`
	// ProbeTID is the probe-side record: for a self watch, the mutated
	// record; for a join watch, the fixed probe record. BaseTID is the
	// corpus-side partner.
	ProbeTID int     `json:"probe_tid"`
	BaseTID  int     `json:"base_tid"`
	Score    float64 `json:"score"`
	// Shard and Epoch locate the mutation that caused the event; Seq is
	// the global batch sequence number (equal to Epoch on a plain corpus).
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// SubMutation is one shard's slice of a logical mutation batch.
type SubMutation struct {
	Shard int
	Kind  core.MutationKind
	Add   []core.Record
	Del   []int
	Epoch uint64
}

// Batch is one logical mutation batch: every sub-batch the mutation
// applied, ordered by shard. A plain corpus always has one sub.
type Batch struct {
	Seq  uint64
	Subs []SubMutation
}

// ProbeFunc evaluates a delta record against the live corpus through the
// hot-path Select: every record whose similarity to query is >= theta,
// any order. The hub filters self-pairs and batch ordering itself.
type ProbeFunc func(query string, theta float64) ([]core.Match, error)

// Spec describes a watch registration.
type Spec struct {
	// Predicate names the similarity; it must be one of the stats-free
	// watchable predicates (see newScorer).
	Predicate string
	// Theta is the match threshold; must be positive.
	Theta float64
	// Probes, when non-nil, makes this a join watch: events track the
	// approximate join of this fixed probe relation against the corpus.
	// Nil means a self watch (online dedup over the corpus itself).
	Probes []core.Record
	// Resume is the per-shard epoch vector the client has already seen;
	// the missed window replays before live delivery. Nil starts live-only
	// at the current epoch.
	Resume []uint64
	// Buffer is the delivery channel capacity (default 1024). A consumer
	// that falls further behind than the buffer is disconnected with
	// ErrLagged and must resume.
	Buffer int
}

var (
	// ErrResumeTooOld reports a resume vector older than the hub's
	// replayable history window; the client must rebuild from a fresh join.
	ErrResumeTooOld = errors.New("watch: resume epoch predates the replayable window")
	// ErrLagged reports a consumer that fell behind its delivery buffer;
	// its watch is closed and it should re-register with its last vector.
	ErrLagged = errors.New("watch: consumer lagged past its delivery buffer")
	// ErrClosed reports registration on a hub that has been drained.
	ErrClosed = errors.New("watch: hub closed")
)

const (
	defaultHistory = 1024
	defaultBuffer  = 1024
	replaySlack    = 64
)

// Hub multiplexes a corpus's mutation stream to its registered watches.
// It keeps a bounded history of recent batches (seeded from the WAL
// replay window on a durable cold start) for resume, plus a TID → text
// view of the corpus used to derive retractions and replay windows.
type Hub struct {
	cfg     core.Config
	shards  int
	histCap int

	mu         sync.Mutex
	live       map[int]string // current corpus text by TID
	epochs     []uint64       // current per-shard epoch vector
	base       map[int]string // corpus text as of baseEpochs (history floor)
	baseEpochs []uint64
	hist       []Batch
	subs       map[*Watch]struct{}
	closed     bool

	emitted  uint64
	replayed uint64
	deriveNS int64
}

// NewHub builds a hub over a corpus currently at baseEpochs with the
// given records, plus the already-applied batches in hist (the WAL replay
// window on a durable cold start; nil for a fresh corpus). hist both
// seeds the resume history and advances the hub's view to the corpus's
// current state.
func NewHub(cfg core.Config, shards int, base []core.Record, baseEpochs []uint64, hist []Batch) *Hub {
	h := &Hub{
		cfg:        cfg,
		shards:     shards,
		histCap:    defaultHistory,
		live:       make(map[int]string, len(base)),
		base:       make(map[int]string, len(base)),
		epochs:     make([]uint64, shards),
		baseEpochs: make([]uint64, shards),
		subs:       make(map[*Watch]struct{}),
	}
	for _, r := range base {
		h.base[r.TID] = r.Text
		h.live[r.TID] = r.Text
	}
	copy(h.baseEpochs, baseEpochs)
	copy(h.epochs, baseEpochs)
	for _, b := range hist {
		h.hist = append(h.hist, b)
		for _, sub := range b.Subs {
			applySub(h.live, sub)
			h.epochs[sub.Shard] = sub.Epoch
		}
	}
	h.trimLocked()
	return h
}

// GroupBatches reassembles logical mutation batches from per-shard WAL
// replay windows, grouping entries written by the same logical mutation
// (same global sequence number) back into one Batch, ordered by sequence
// then shard. Logs written before sequence numbers existed fall back to
// grouping by epoch, which can merge unrelated cross-shard batches from
// that era; the fold of the replayed window is unaffected.
func GroupBatches(perShard [][]core.Mutation) []Batch {
	type tagged struct {
		shard int
		m     core.Mutation
	}
	var all []tagged
	for sh, muts := range perShard {
		for _, m := range muts {
			all = append(all, tagged{shard: sh, m: m})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].m.Seq != all[j].m.Seq {
			return all[i].m.Seq < all[j].m.Seq
		}
		return all[i].shard < all[j].shard
	})
	var out []Batch
	for _, t := range all {
		sub := SubMutation{Shard: t.shard, Kind: t.m.Kind, Add: t.m.Add, Del: t.m.Del, Epoch: t.m.Epoch}
		if n := len(out); n > 0 && out[n-1].Seq == t.m.Seq {
			out[n-1].Subs = append(out[n-1].Subs, sub)
			continue
		}
		out = append(out, Batch{Seq: t.m.Seq, Subs: []SubMutation{sub}})
	}
	return out
}

func applySub(view map[int]string, sub SubMutation) {
	for _, tid := range sub.Del {
		delete(view, tid)
	}
	for _, r := range sub.Add {
		view[r.TID] = r.Text
	}
}

// trimLocked folds history overflow into the base view, advancing the
// resume floor.
func (h *Hub) trimLocked() {
	for len(h.hist) > h.histCap {
		b := h.hist[0]
		h.hist = h.hist[1:]
		for _, sub := range b.Subs {
			applySub(h.base, sub)
			h.baseEpochs[sub.Shard] = sub.Epoch
		}
	}
}

// Shards returns the width of the hub's epoch vector.
func (h *Hub) Shards() int { return h.shards }

// Epochs returns the current per-shard epoch vector.
func (h *Hub) Epochs() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint64, len(h.epochs))
	copy(out, h.epochs)
	return out
}

// Register installs a watch. When spec.Resume is set, the missed window
// (every sub-batch above the resumed epoch) is derived from history and
// preloaded into the delivery channel before the watch goes live, so the
// replay→live transition loses and duplicates nothing.
func (h *Hub) Register(spec Spec, probe ProbeFunc) (*Watch, error) {
	sc, err := newScorer(spec.Predicate, h.cfg, spec.Theta)
	if err != nil {
		return nil, err
	}
	w := &Watch{hub: h, spec: spec, sc: sc, probe: probe}
	if spec.Probes != nil {
		// Non-nil even when empty: a join watch with no probes matches
		// nothing, it does not turn into a self watch.
		w.probes = make([]probeRec, 0, len(spec.Probes))
	}
	for _, r := range spec.Probes {
		w.probes = append(w.probes, probeRec{tid: r.TID, p: sc.prep(r.Text)})
	}
	sort.Slice(w.probes, func(i, j int) bool { return w.probes[i].tid < w.probes[j].tid })

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	var pending []Event
	if spec.Resume != nil {
		if len(spec.Resume) != h.shards {
			return nil, fmt.Errorf("watch: resume vector has %d epochs, corpus has %d shards", len(spec.Resume), h.shards)
		}
		for i, e := range spec.Resume {
			if e > h.epochs[i] {
				return nil, fmt.Errorf("watch: resume epoch %d for shard %d is ahead of the corpus (at %d)", e, i, h.epochs[i])
			}
			if e < h.baseEpochs[i] {
				return nil, fmt.Errorf("%w: shard %d epoch %d is below the history floor %d", ErrResumeTooOld, i, e, h.baseEpochs[i])
			}
		}
		pending = h.replayLocked(w, spec.Resume)
	}
	buf := spec.Buffer
	if buf <= 0 {
		buf = defaultBuffer
	}
	if buf < len(pending)+replaySlack {
		buf = len(pending) + replaySlack
	}
	w.ch = make(chan Event, buf)
	for _, e := range pending {
		w.ch <- e
	}
	h.replayed += uint64(len(pending))
	h.emitted += uint64(len(pending))
	w.queued = sumVec(h.epochs)
	if spec.Resume != nil {
		w.delivered.Store(sumVec(spec.Resume))
	} else {
		w.delivered.Store(w.queued)
	}
	h.subs[w] = struct{}{}
	return w, nil
}

// replayLocked derives this watch's events for the history window above
// resume. Covered sub-batches are applied to the walk's view without
// scanning; uncovered ones run the same canonical derivation live
// delivery uses, with the pairwise scorer standing in for Select.
func (h *Hub) replayLocked(w *Watch, resume []uint64) []Event {
	view := make(map[int]string, len(h.base))
	for k, v := range h.base {
		view[k] = v
	}
	var out []Event
	for _, b := range h.hist {
		st := newDeriveState(view, b)
		for _, sub := range b.Subs {
			if sub.Epoch > resume[sub.Shard] {
				evs, _ := st.processSub(sub, []*Watch{w}, false)
				out = append(out, evs[w]...)
			} else {
				st.applyOnly(sub)
			}
		}
	}
	return out
}

// OnBatch ingests one published mutation batch: it derives every
// registered watch's events for the batch, applies the batch to the live
// view and history, and delivers. It must be called under the corpus's
// mutation serialization, after the batch published — the hot-path probe
// reads the post-batch corpus state.
func (h *Hub) OnBatch(b Batch) {
	h.mu.Lock()
	defer h.mu.Unlock()
	start := time.Now()
	watches := make([]*Watch, 0, len(h.subs))
	for w := range h.subs {
		watches = append(watches, w)
	}

	st := newDeriveState(h.live, b)
	out := make(map[*Watch][]Event)
	var failed map[*Watch]error
	for _, sub := range b.Subs {
		evs, errs := st.processSub(sub, watches, true)
		for w, e := range evs {
			out[w] = append(out[w], e...)
		}
		for w, err := range errs {
			if failed == nil {
				failed = make(map[*Watch]error)
			}
			failed[w] = err
		}
		h.epochs[sub.Shard] = sub.Epoch
	}
	h.hist = append(h.hist, b)
	h.trimLocked()
	h.deriveNS += time.Since(start).Nanoseconds()
	if obs.TracingEnabled() {
		obs.RecordStage("watch.derive", time.Since(start))
	}

	qsum := sumVec(h.epochs)
	for _, w := range watches {
		if err, ok := failed[w]; ok {
			h.failLocked(w, err)
			continue
		}
		evs := out[w]
		h.emitted += uint64(len(evs))
		lagged := false
		for _, e := range evs {
			select {
			case w.ch <- e:
			default:
				lagged = true
			}
			if lagged {
				break
			}
		}
		w.queued = qsum
		if len(evs) == 0 && w.delivered.Load() < qsum {
			// Nothing to deliver at this epoch: the consumer is caught up
			// by construction.
			w.delivered.Store(qsum)
		}
		if lagged {
			h.failLocked(w, ErrLagged)
		}
	}
}

func (h *Hub) failLocked(w *Watch, err error) {
	if w.closed {
		return
	}
	w.closed = true
	w.err = err
	close(w.ch)
	delete(h.subs, w)
}

// CloseAll closes every watch cleanly (drain) and rejects further
// registrations. The hub keeps tracking mutations so stats stay honest.
func (h *Hub) CloseAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for w := range h.subs {
		h.failLocked(w, nil)
	}
}

// Stats is the hub's observability block.
type Stats struct {
	// Active is the number of registered watches.
	Active int
	// Emitted counts events delivered (or preloaded for replay) overall.
	Emitted uint64
	// Replayed counts events derived from the history window for
	// resuming clients.
	Replayed uint64
	// MaxLagEpochs is the widest gap, over active watches, between the
	// epoch sum enqueued and the epoch sum the consumer acknowledged.
	MaxLagEpochs uint64
	// DeriveNS is cumulative wall time spent deriving events in OnBatch —
	// the incremental cost mutations pay for standing queries.
	DeriveNS int64
}

// Stats reports the hub's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Stats{Active: len(h.subs), Emitted: h.emitted, Replayed: h.replayed, DeriveNS: h.deriveNS}
	for w := range h.subs {
		if d := w.delivered.Load(); w.queued > d && w.queued-d > st.MaxLagEpochs {
			st.MaxLagEpochs = w.queued - d
		}
	}
	return st
}

func sumVec(v []uint64) uint64 {
	var s uint64
	for _, e := range v {
		s += e
	}
	return s
}

// ---- Watch handle ----

// probeRec is one prepared probe-side record of a join watch.
type probeRec struct {
	tid int
	p   *prepped
}

// Watch is one registered standing query. Consume Events until it
// closes, then check Err: nil means a clean close (Close or drain),
// ErrLagged means the consumer fell behind and should resume.
type Watch struct {
	hub    *Hub
	spec   Spec
	sc     scorer
	probe  ProbeFunc
	probes []probeRec

	ch     chan Event
	closed bool  // guarded by hub.mu
	err    error // guarded by hub.mu

	queued    uint64 // Σ epochs last enqueued, guarded by hub.mu
	delivered atomic.Uint64
}

// Events is the delivery channel. It closes when the watch ends.
func (w *Watch) Events() <-chan Event { return w.ch }

// Close unregisters the watch and closes its channel.
func (w *Watch) Close() {
	w.hub.mu.Lock()
	defer w.hub.mu.Unlock()
	w.hub.failLocked(w, nil)
}

// Err reports why the watch ended; nil while live or after a clean close.
func (w *Watch) Err() error {
	w.hub.mu.Lock()
	defer w.hub.mu.Unlock()
	return w.err
}

// SetDelivered records the consumer's progress as Σ of its per-shard
// delivered epoch vector, feeding the lag stat.
func (w *Watch) SetDelivered(sum uint64) {
	for {
		cur := w.delivered.Load()
		if sum <= cur || w.delivered.CompareAndSwap(cur, sum) {
			return
		}
	}
}

func (w *Watch) join() bool { return w.probes != nil }

// ---- canonical batch derivation ----

// deriveState walks one logical batch in canonical order (subs by shard
// ascending, records in batch position order) over a TID → text view,
// producing per-watch events. The same walk serves live delivery (view =
// the hub's live map, inserts probed through Select) and replay (a
// scratch view, everything scanned pairwise); both yield identical
// events by construction.
type deriveState struct {
	view      map[int]string
	batchAdds map[int]bool
	processed map[int]bool
	seq       uint64
}

func newDeriveState(view map[int]string, b Batch) *deriveState {
	adds := make(map[int]bool)
	for _, sub := range b.Subs {
		for _, r := range sub.Add {
			adds[r.TID] = true
		}
	}
	return &deriveState{view: view, batchAdds: adds, processed: make(map[int]bool), seq: b.Seq}
}

// applyOnly advances the view past a sub-batch without deriving events
// (replay of a window the client already saw).
func (st *deriveState) applyOnly(sub SubMutation) {
	for _, tid := range sub.Del {
		delete(st.view, tid)
	}
	for _, r := range sub.Add {
		st.view[r.TID] = r.Text
		st.processed[r.TID] = true
	}
}

// processSub derives events for one sub-batch and applies it to the
// view. Deletes retract the pairs the removed record participated in;
// upserts retract the old record's pairs, then both upserts and inserts
// assert the new record's matches. All watches scan each step against
// the same pre-step view before the view advances.
func (st *deriveState) processSub(sub SubMutation, watches []*Watch, live bool) (map[*Watch][]Event, map[*Watch]error) {
	out := make(map[*Watch][]Event, len(watches))
	var failed map[*Watch]error
	for _, tid := range sub.Del {
		old, ok := st.view[tid]
		if ok {
			for _, w := range watches {
				out[w] = append(out[w], st.retractStep(w, sub, tid, old)...)
			}
		}
		delete(st.view, tid)
	}
	for _, r := range sub.Add {
		if old, existed := st.view[r.TID]; existed {
			for _, w := range watches {
				out[w] = append(out[w], st.retractStep(w, sub, r.TID, old)...)
			}
		}
		for _, w := range watches {
			if failed[w] != nil {
				continue
			}
			evs, err := st.matchStep(w, sub, r, live)
			if err != nil {
				if failed == nil {
					failed = make(map[*Watch]error)
				}
				failed[w] = err
				continue
			}
			out[w] = append(out[w], evs...)
		}
		st.view[r.TID] = r.Text
		st.processed[r.TID] = true
	}
	return out, failed
}

// retractStep emits unmatch events for every pair the record's old text
// participated in. Partners already processed in this batch are skipped:
// their own match step ran against the post-step view, so no pair with
// this record's old text was ever asserted for them.
func (st *deriveState) retractStep(w *Watch, sub SubMutation, tid int, oldText string) []Event {
	oldP := w.sc.prep(oldText)
	var out []Event
	if w.join() {
		for _, pr := range w.probes {
			if s, ok := w.sc.score(pr.p, oldP); ok {
				out = append(out, Event{Kind: KindUnmatch, ProbeTID: pr.tid, BaseTID: tid, Score: s, Shard: sub.Shard, Epoch: sub.Epoch, Seq: st.seq})
			}
		}
		return out
	}
	for ptid, text := range st.view {
		if ptid == tid || st.processed[ptid] {
			continue
		}
		if s, ok := w.sc.score(oldP, w.sc.prep(text)); ok {
			out = append(out, Event{Kind: KindUnmatch, ProbeTID: tid, BaseTID: ptid, Score: s, Shard: sub.Shard, Epoch: sub.Epoch, Seq: st.seq})
		}
	}
	sortEvents(out)
	return out
}

// matchStep emits match events for the record's new text: against the
// fixed probe set for a join watch, against the corpus for a self watch —
// through the hot-path Select when live, through the pairwise scan during
// replay. Batch members not yet processed are excluded either way (their
// pairs with this record are asserted at their own, later step).
func (st *deriveState) matchStep(w *Watch, sub SubMutation, r core.Record, live bool) ([]Event, error) {
	var out []Event
	if w.join() {
		rp := w.sc.prep(r.Text)
		for _, pr := range w.probes {
			if s, ok := w.sc.score(pr.p, rp); ok {
				out = append(out, Event{Kind: KindMatch, ProbeTID: pr.tid, BaseTID: r.TID, Score: s, Shard: sub.Shard, Epoch: sub.Epoch, Seq: st.seq})
			}
		}
		return out, nil
	}
	if live {
		ms, err := w.probe(r.Text, w.spec.Theta)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			if m.TID == r.TID || (st.batchAdds[m.TID] && !st.processed[m.TID]) {
				continue
			}
			out = append(out, Event{Kind: KindMatch, ProbeTID: r.TID, BaseTID: m.TID, Score: m.Score, Shard: sub.Shard, Epoch: sub.Epoch, Seq: st.seq})
		}
		sortEvents(out)
		return out, nil
	}
	rp := w.sc.prep(r.Text)
	for ptid, text := range st.view {
		if ptid == r.TID || (st.batchAdds[ptid] && !st.processed[ptid]) {
			continue
		}
		if s, ok := w.sc.score(rp, w.sc.prep(text)); ok {
			out = append(out, Event{Kind: KindMatch, ProbeTID: r.TID, BaseTID: ptid, Score: s, Shard: sub.Shard, Epoch: sub.Epoch, Seq: st.seq})
		}
	}
	sortEvents(out)
	return out, nil
}

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].BaseTID != evs[j].BaseTID {
			return evs[i].BaseTID < evs[j].BaseTID
		}
		return evs[i].ProbeTID < evs[j].ProbeTID
	})
}
