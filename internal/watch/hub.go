// Package watch is the standing-query subsystem: a watch installs a
// predicate + threshold pair over a live corpus and receives epoch-tagged
// match/unmatch events as the corpus mutates, instead of re-running a
// batch join. A watch is the approximate join kept up to date, and every
// score it emits comes from a thresholded Select through the engine, one
// per changed record:
//
//   - a self watch selects a record's new text against the live corpus
//     after the batch to assert its pairs, and its old text against the
//     same corpus to retract them — plus, when the batch changes several
//     records, against a throwaway corpus of the batch's pre-images;
//   - a join watch indexes its fixed probe relation into a small corpus
//     once and selects both texts against that;
//   - a resumed watch replays its missed window over a scratch corpus
//     rolled back to the resume point, through the same derive step.
//
// The hub keeps no copy of the corpus text: the pre-images of deleted and
// replaced records travel with each batch. The contract is strict:
// folding a watch's emissions up to epoch E yields exactly the pair set
// and scores a from-scratch batch join would produce at epoch E.
//
// Delivery is resumable. Every event carries the (shard, epoch) the
// mutation moved the corpus to; a client that reconnects presents the
// epoch vector it last saw, the hub replays the missed window from its
// mutation history (seeded from the WAL on a cold start), and live
// delivery continues seamlessly — each missed event delivered exactly
// once.
package watch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/native"
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
	// Old holds the records the sub-batch deleted or replaced, as they
	// stood before the batch: the texts retractions select with.
	Old   []core.Record
	Epoch uint64
}

// Batch is one logical mutation batch: every sub-batch the mutation
// applied, ordered by shard. A plain corpus always has one sub.
type Batch struct {
	Seq  uint64
	Subs []SubMutation
}

// Spec describes a watch registration.
type Spec struct {
	// Predicate names the similarity; it must be one of the stats-free
	// watchable predicates (see checkSpec).
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

// A watch promises that its incremental emissions are bit-identical to a
// from-scratch batch join at every epoch. That restricts the predicates it
// can serve: any similarity that reads collection statistics (IDF weights,
// average lengths, language models) changes the score of *existing* pairs
// whenever *any* record mutates, so an incremental evaluation that only
// touches the delta record can never stay exact. The watchable predicates
// are exactly the stats-free ones — Jaccard, IntersectSize and
// EditDistance — whose pair scores depend on the two strings alone, so a
// Select against any corpus holding the partner scores the pair alike.
var watchable = []string{"Jaccard", "IntersectSize", "EditDistance"}

// checkSpec enforces the delta-exactness whitelist and the configuration
// corners where even a whitelisted predicate loses exactness.
func checkSpec(spec Spec, cfg core.Config) error {
	if !(spec.Theta > 0) {
		return fmt.Errorf("watch: threshold must be positive, got %g (an unthresholded standing query would re-rank the whole corpus on every insert)", spec.Theta)
	}
	if cfg.PruneRate != 0 {
		return fmt.Errorf("watch: corpus built with PruneRate=%g; watches require an unpruned index (pruning drops postings by collection frequency, which shifts with every mutation)", cfg.PruneRate)
	}
	if !slices.Contains(watchable, spec.Predicate) {
		return fmt.Errorf("watch: predicate %q is not incrementally exact (its scores read collection statistics that shift on every mutation); watchable predicates: %v", spec.Predicate, watchable)
	}
	// The posting-driven Select only reaches candidates sharing at least
	// one q-gram with the query. Two strings within edit distance k share
	// a gram whenever k·q < max length, which a threshold θ ≥ 1−1/q
	// guarantees for every pair above θ; below that, Select can miss pairs
	// a from-scratch scan would score, and the bit-identical contract
	// breaks.
	if min := 1 - 1/float64(cfg.Q); spec.Predicate == "EditDistance" && spec.Theta < min {
		return fmt.Errorf("watch: EditDistance watch needs threshold >= %g with q=%d (below it, pairs above the threshold can share no q-gram and the index cannot surface them)", min, cfg.Q)
	}
	return nil
}

// AttachConfig is the configuration every predicate a watch selects
// through is attached with: the corpus's, with EditDistance verifying at
// the watch threshold — the setting under which its q-gram candidate
// filter is exact at θ.
func AttachConfig(cfg core.Config, spec Spec) core.Config {
	if spec.Predicate == "EditDistance" {
		cfg.EditTheta = spec.Theta
	}
	return cfg
}

// Hub multiplexes a corpus's mutation stream to its registered watches.
// It keeps a bounded history of recent batches, pre-images included
// (seeded from the WAL replay window on a durable cold start), for
// resume; it keeps no view of the corpus text.
type Hub struct {
	cfg     core.Config
	shards  int
	histCap int

	mu         sync.Mutex
	epochs     []uint64 // current per-shard epoch vector
	baseEpochs []uint64 // history floor: the oldest resumable vector
	hist       []Batch
	subs       map[*Watch]struct{}
	closed     bool

	emitted  uint64
	replayed uint64
	deriveNS int64
}

// NewHub builds a hub over a corpus that stood at baseEpochs before the
// already-applied batches in hist (the WAL replay window on a durable cold
// start; nil for a fresh corpus). hist both seeds the resume history and
// advances the hub's epoch vector to the corpus's current one.
func NewHub(cfg core.Config, shards int, baseEpochs []uint64, hist []Batch) *Hub {
	h := &Hub{
		cfg:        cfg,
		shards:     shards,
		histCap:    defaultHistory,
		epochs:     make([]uint64, shards),
		baseEpochs: make([]uint64, shards),
		hist:       hist,
		subs:       make(map[*Watch]struct{}),
	}
	copy(h.baseEpochs, baseEpochs)
	copy(h.epochs, baseEpochs)
	for _, b := range hist {
		for _, sub := range b.Subs {
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
// that era; the fold of the replayed window is unaffected. base is every
// shard's loaded segment: walking it forward through the window once
// fills each sub-batch's pre-images.
func GroupBatches(base []core.Record, perShard [][]core.Mutation) []Batch {
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
	text := make(map[int]string, len(base))
	for _, r := range base {
		text[r.TID] = r.Text
	}
	var out []Batch
	for _, t := range all {
		sub := SubMutation{Shard: t.shard, Kind: t.m.Kind, Add: t.m.Add, Del: t.m.Del, Epoch: t.m.Epoch}
		for _, tid := range t.m.Del {
			sub.Old = append(sub.Old, core.Record{TID: tid, Text: text[tid]})
			delete(text, tid)
		}
		for _, r := range t.m.Add {
			if old, ok := text[r.TID]; ok {
				sub.Old = append(sub.Old, core.Record{TID: r.TID, Text: old})
			}
			text[r.TID] = r.Text
		}
		if n := len(out); n > 0 && out[n-1].Seq == t.m.Seq {
			out[n-1].Subs = append(out[n-1].Subs, sub)
			continue
		}
		out = append(out, Batch{Seq: t.m.Seq, Subs: []SubMutation{sub}})
	}
	return out
}

// trimLocked drops history overflow, advancing the resume floor.
func (h *Hub) trimLocked() {
	for len(h.hist) > h.histCap {
		for _, sub := range h.hist[0].Subs {
			h.baseEpochs[sub.Shard] = sub.Epoch
		}
		h.hist = h.hist[1:]
	}
}

// Register installs a watch. live selects against the corpus as it
// stands; a self watch needs it, a join watch ignores it. current lists
// the corpus's records and is read only to replay a resumed self watch's
// window. The caller holds the corpus's mutation lock, so both describe
// the version the hub's epoch vector names. When spec.Resume is set, the
// missed window (every sub-batch above the resumed epoch) is derived from
// history and preloaded into the delivery channel before the watch goes
// live, so the replay→live transition loses and duplicates nothing.
func (h *Hub) Register(spec Spec, live core.Predicate, current func() []core.Record) (*Watch, error) {
	if err := checkSpec(spec, h.cfg); err != nil {
		return nil, err
	}
	w := &Watch{hub: h, spec: spec, live: live}
	var records []core.Record
	if spec.Probes != nil {
		// Non-nil even when empty: a join watch with no probes matches
		// nothing, it does not turn into a self watch.
		p, err := native.Build(spec.Predicate, spec.Probes, AttachConfig(h.cfg, spec))
		if err != nil {
			return nil, fmt.Errorf("watch: probe relation: %w", err)
		}
		w.live, w.probes = nil, p
	} else if spec.Resume != nil {
		records = current()
	}

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
		var err error
		if pending, err = h.replayLocked(w, spec.Resume, records); err != nil {
			return nil, err
		}
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
	w.at = slices.Clone(h.epochs)
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
// resume with the live derive step. A self watch reads a scratch corpus
// standing in for the live one: the current records rolled back through
// the window's pre-images to the first batch the client has not fully
// seen, then advanced batch by batch. A join watch reads only its probes.
func (h *Hub) replayLocked(w *Watch, resume []uint64, records []core.Record) ([]Event, error) {
	missed := func(sub SubMutation) bool { return sub.Epoch > resume[sub.Shard] }
	first := slices.IndexFunc(h.hist, func(b Batch) bool { return slices.ContainsFunc(b.Subs, missed) })
	if first < 0 {
		return nil, nil
	}
	window := h.hist[first:]
	cfg := AttachConfig(h.cfg, w.spec)
	var scratch *core.Corpus
	if !w.join() {
		layers, err := native.Layers(w.spec.Predicate)
		if err != nil {
			return nil, err
		}
		if scratch, err = core.NewCorpus(rollback(records, window), cfg, layers); err != nil {
			return nil, err
		}
	}
	var out []Event
	for _, b := range window {
		var live core.Predicate
		if scratch != nil {
			for _, sub := range b.Subs {
				if err := applySub(scratch, sub); err != nil {
					return nil, err
				}
			}
		}
		if !slices.ContainsFunc(b.Subs, missed) {
			continue
		}
		if scratch != nil {
			var err error
			if live, err = native.Attach(w.spec.Predicate, scratch, cfg); err != nil {
				return nil, err
			}
		}
		evs, err := w.derive(b, live, missed)
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	return out, nil
}

// rollback undoes batches, newest first, on a relation and returns it as
// it stood before the first of them.
func rollback(records []core.Record, batches []Batch) []core.Record {
	text := make(map[int]string, len(records))
	for _, r := range records {
		text[r.TID] = r.Text
	}
	for i := len(batches) - 1; i >= 0; i-- {
		for j := len(batches[i].Subs) - 1; j >= 0; j-- {
			sub := batches[i].Subs[j]
			for _, r := range sub.Add {
				delete(text, r.TID)
			}
			for _, r := range sub.Old {
				text[r.TID] = r.Text
			}
		}
	}
	out := make([]core.Record, 0, len(text))
	for tid, t := range text {
		out = append(out, core.Record{TID: tid, Text: t})
	}
	return out
}

// applySub applies one sub-batch to a corpus.
func applySub(c *core.Corpus, sub SubMutation) error {
	switch sub.Kind {
	case core.MutationDelete:
		return c.Delete(sub.Del...)
	case core.MutationUpsert:
		return c.Upsert(sub.Add...)
	default:
		return c.Insert(sub.Add...)
	}
}

// OnBatch ingests one published mutation batch: it appends the batch to
// history, derives every registered watch's events for it and delivers
// them. It must be called under the corpus's mutation serialization,
// after the batch published — the live selects read the post-batch
// corpus state.
func (h *Hub) OnBatch(b Batch) {
	h.mu.Lock()
	defer h.mu.Unlock()
	start := time.Now()
	for _, sub := range b.Subs {
		h.epochs[sub.Shard] = sub.Epoch
	}
	h.hist = append(h.hist, b)
	h.trimLocked()
	qsum := sumVec(h.epochs)
	for w := range h.subs {
		evs, err := w.derive(b, w.live, nil)
		if err != nil {
			h.failLocked(w, err)
			continue
		}
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
	h.deriveNS += time.Since(start).Nanoseconds()
	if obs.TracingEnabled() {
		obs.RecordStage("watch.derive", time.Since(start))
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
	// DeriveNS is cumulative wall time OnBatch spends deriving and
	// enqueueing events — the incremental cost mutations pay for standing
	// queries.
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

// Watch is one registered standing query. Consume Events until it
// closes, then check Err: nil means a clean close (Close or drain),
// ErrLagged means the consumer fell behind and should resume.
type Watch struct {
	hub  *Hub
	spec Spec
	// live selects against the corpus after each batch (self watch);
	// probes is a join watch's probe relation, indexed once. Exactly one
	// is set.
	live   core.Predicate
	probes core.Predicate
	at     []uint64 // the hub's epoch vector at registration

	ch     chan Event
	closed bool  // guarded by hub.mu
	err    error // guarded by hub.mu

	queued    uint64 // Σ epochs last enqueued, guarded by hub.mu
	delivered atomic.Uint64
}

// Events is the delivery channel. It closes when the watch ends.
func (w *Watch) Events() <-chan Event { return w.ch }

// RegisteredAt returns the epoch vector the hub stood at when the watch
// registered, read under the hub lock: every live event lies past it, and
// a resumed watch's replayed window ends at it.
func (w *Watch) RegisteredAt() []uint64 { return slices.Clone(w.at) }

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

// deriver is one watch's walk over one batch. The walk is canonical —
// subs by shard ascending, records in batch order — and every step reads
// the corpus after the whole batch, keeping or dropping each partner by
// its batch position instead of stepping through intermediate states.
type deriver struct {
	w       *Watch
	src     core.Predicate // the corpus after the batch, or a join's probes
	pos     map[int]int    // batch position of every TID the batch touches
	old     []core.Record  // the batch's pre-images
	lastOld int            // the last position holding a pre-image
	pre     core.Predicate // indexes old, built on first need
	out     []Event
}

// derive returns w's events for the subs of b that emit accepts (every
// sub when emit is nil), selecting through live — the corpus after b.
func (w *Watch) derive(b Batch, live core.Predicate, emit func(SubMutation) bool) ([]Event, error) {
	d := &deriver{w: w, src: live, pos: make(map[int]int), lastOld: -1}
	if w.join() {
		d.src = w.probes
	}
	for _, sub := range b.Subs {
		for _, tid := range sub.Del {
			d.pos[tid] = len(d.pos)
		}
		for _, r := range sub.Add {
			d.pos[r.TID] = len(d.pos)
		}
		d.old = append(d.old, sub.Old...)
	}
	old := make(map[int]string, len(d.old))
	for _, r := range d.old {
		old[r.TID] = r.Text
		d.lastOld = max(d.lastOld, d.pos[r.TID])
	}
	for _, sub := range b.Subs {
		if emit != nil && !emit(sub) {
			continue
		}
		at := Event{Shard: sub.Shard, Epoch: sub.Epoch, Seq: b.Seq}
		for _, tid := range sub.Del {
			if err := d.retract(at, tid, old[tid]); err != nil {
				return nil, err
			}
		}
		for _, r := range sub.Add {
			if text, ok := old[r.TID]; ok {
				if err := d.retract(at, r.TID, text); err != nil {
					return nil, err
				}
			}
			if err := d.match(at, r); err != nil {
				return nil, err
			}
		}
	}
	return d.out, nil
}

// retract emits unmatch events for every pair the record's old text still
// holds: with each record the batch leaves untouched, and with the
// pre-image of each record the batch touches later (that record's own
// retraction has not run yet). Partners touched earlier are skipped: their
// match step excluded this record, so no pair with its old text stands.
func (d *deriver) retract(at Event, tid int, text string) error {
	at.Kind = KindUnmatch
	start, p := len(d.out), d.pos[tid]
	err := d.scan(at, d.src, tid, text, func(_ int, touched bool) bool { return !touched })
	if err == nil && !d.w.join() && p < d.lastOld {
		if d.pre == nil {
			d.pre, err = native.Build(d.w.spec.Predicate, d.old, AttachConfig(d.w.hub.cfg, d.w.spec))
		}
		if err == nil {
			err = d.scan(at, d.pre, tid, text, func(q int, _ bool) bool { return q > p })
		}
	}
	sortEvents(d.out[start:])
	return err
}

// match emits match events for the record's new text. A self watch skips
// the record itself and records the batch touches later: their pairs
// with this record are asserted at their own, later step.
func (d *deriver) match(at Event, r core.Record) error {
	at.Kind = KindMatch
	start, p := len(d.out), d.pos[r.TID]
	err := d.scan(at, d.src, r.TID, r.Text, func(q int, touched bool) bool { return !touched || q < p })
	sortEvents(d.out[start:])
	return err
}

// scan is the watch's one scoring operation: it selects text at θ through
// src and appends an event for each match — for a self watch, only those
// keep accepts given the match's batch position. tid is the changed
// record: the probe side of a self watch, the base side of a join.
func (d *deriver) scan(at Event, src core.Predicate, tid int, text string, keep func(pos int, touched bool) bool) error {
	ms, err := core.SelectWithOptions(context.Background(), src, text,
		core.SelectOptions{Threshold: d.w.spec.Theta, HasThreshold: true})
	for _, m := range ms {
		e := at
		e.ProbeTID, e.BaseTID, e.Score = tid, m.TID, m.Score
		if d.w.join() {
			e.ProbeTID, e.BaseTID = m.TID, tid
		} else if q, touched := d.pos[m.TID]; !keep(q, touched) {
			continue
		}
		d.out = append(d.out, e)
	}
	return err
}

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].BaseTID != evs[j].BaseTID {
			return evs[i].BaseTID < evs[j].BaseTID
		}
		return evs[i].ProbeTID < evs[j].ProbeTID
	})
}
