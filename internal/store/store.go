// Package store implements approxstore, the durable persistence layer of
// the shared corpus: versioned binary snapshot segments plus an
// epoch-stamped write-ahead log, under one data directory per core corpus.
//
// Layout of a core corpus directory:
//
//	snapshot-<epoch, 16 hex digits>.seg   // full corpus snapshot (internal/core segment format)
//	wal.log                               // mutation batches applied after that snapshot
//
// The facade's corpus persists as a root directory holding MANIFEST.json
// (format version, shard count, the shard-epoch vector at the last
// checkpoint) and one such directory per shard (shard-0000, shard-0001,
// ...), also when it has one shard.
//
// Durability contract: a mutation is acknowledged only after its WAL entry
// has been written to the file (the corpus's mutation hook runs before the
// new snapshot publishes, and an append failure aborts the mutation).
// Appends are plain writes — they survive a process crash immediately, and
// Sync/Close (the server's graceful drain) flushes them to stable storage
// against machine crashes. Checkpoint atomically writes a fresh segment
// and truncates the log while mutations are frozen, so the pair (segment,
// WAL) always replays to exactly the last acknowledged epoch.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

const (
	walName      = "wal.log"
	segPrefix    = "snapshot-"
	segSuffix    = ".seg"
	manifestName = "MANIFEST.json"
)

func segName(epoch uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, epoch, segSuffix)
}

// segEpoch parses a segment file name back into its epoch.
func segEpoch(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Exists reports whether dir holds a corpus store (at least one snapshot
// segment).
func Exists(dir string) bool {
	names, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range names {
		if _, ok := segEpoch(e.Name()); ok {
			return true
		}
	}
	return false
}

// Stats describes the durable state of one attached corpus.
type Stats struct {
	// Dir is the corpus's data directory.
	Dir string
	// SnapshotEpoch is the epoch of the segment a cold start would load.
	SnapshotEpoch uint64
	// SnapshotBytes is that segment's size on disk.
	SnapshotBytes int64
	// WALEntries counts the mutation batches currently in the log (they
	// replay on the next cold start; a checkpoint resets the count).
	WALEntries int
	// LastLoadDur is how long the last cold start (segment decode + WAL
	// replay) took; zero for a freshly created store.
	LastLoadDur time.Duration
}

// Log is the durable attachment of one core.Corpus to a data directory: it
// appends every mutation to the WAL through the corpus's mutation hook and
// checkpoints on demand.
type Log struct {
	dir string
	c   *core.Corpus

	mu        sync.Mutex
	f         *os.File
	off       int64 // end of the last fully-written WAL entry
	entries   int
	snapEpoch uint64
	snapBytes int64
	loadDur   time.Duration
	closed    bool

	// Cold-start replay window, captured by Open for the watch subsystem:
	// the record state the loaded segment decoded to, plus the replayed
	// mutation batches that advanced it to the current epoch. TakeReplay
	// hands both over (once) so a watch hub can rebuild its event history
	// across restarts; untaken windows are dropped on Close/Release.
	baseRecs []core.Record
	replay   []core.Mutation
	maxSeq   uint64
}

// Create initializes dir as the data directory of c: it writes a snapshot
// segment at the corpus's current epoch, creates an empty WAL, and
// attaches the mutation hook. An existing store in dir is replaced.
func Create(dir string, c *core.Corpus) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("approxstore: %w", err)
	}
	l := &Log{dir: dir, c: c}
	if err := c.Freeze(func(s *core.Snapshot) error {
		return l.checkpointLocked(s.Epoch)
	}); err != nil {
		return nil, err
	}
	c.SetMutationHook(l.appendMutation)
	return l, nil
}

// Load restores the corpus stored in dir — newest valid segment plus WAL
// replay — without attaching a mutation hook or keeping the WAL open: a
// read-only restore whose corpus then mutates un-logged.
func Load(dir string) (*core.Corpus, Stats, error) {
	l, err := Open(dir)
	if err != nil {
		return nil, Stats{}, err
	}
	st := l.Stats()
	return l.Release(), st, nil
}

// Release detaches the log from its corpus without poisoning it: the
// mutation hook is removed (further mutations apply un-logged) and the WAL
// handle closes. It returns the corpus.
func (l *Log) Release() *core.Corpus {
	l.c.SetMutationHook(nil)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		if l.f != nil {
			l.f.Close()
		}
	}
	l.baseRecs, l.replay = nil, nil
	return l.c
}

// Open restores the corpus stored in dir — newest valid segment, then WAL
// replay up to the last acknowledged epoch — and attaches the mutation
// hook so further mutations keep being logged. The restored corpus is
// bit-identical to the one that was saved and then mutated.
func Open(dir string) (*Log, error) {
	start := time.Now()
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("approxstore: %w", err)
	}
	type seg struct {
		epoch uint64
		name  string
	}
	var segs []seg
	for _, e := range names {
		if epoch, ok := segEpoch(e.Name()); ok {
			segs = append(segs, seg{epoch: epoch, name: e.Name()})
		}
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("approxstore: no snapshot segment in %s", dir)
	}
	// Newest first; an unreadable or corrupt segment falls back to the next
	// older one (its WAL entries are then replayed past it).
	sort.Slice(segs, func(i, j int) bool { return segs[i].epoch > segs[j].epoch })
	var (
		c       *core.Corpus
		loaded  seg
		size    int64
		lastErr error
	)
	for _, s := range segs {
		data, err := os.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			lastErr = err
			continue
		}
		lc, err := core.LoadSnapshot(data)
		if err != nil {
			lastErr = err
			continue
		}
		c, loaded, size = lc, s, int64(len(data))
		break
	}
	if c == nil {
		return nil, fmt.Errorf("approxstore: no loadable segment in %s: %w", dir, lastErr)
	}
	if c.Epoch() != loaded.epoch {
		return nil, fmt.Errorf("approxstore: segment %s decodes to epoch %d", loaded.name, c.Epoch())
	}

	f, entries, off, err := openWALForAppend(filepath.Join(dir, walName))
	if err != nil {
		return nil, fmt.Errorf("approxstore: %w", err)
	}
	// Replay: entries at or below the snapshot's epoch are the residue of a
	// checkpoint that crashed between segment rename and WAL truncation —
	// already contained in the snapshot, skipped (and excluded from the
	// entry count, which reports batches a cold start would replay). Above
	// it the sequence must be gap-free, and the whole tail applies as one
	// batched replay: per-entry record splices, one table assembly at the
	// final epoch — bit-identical to sequential mutations at a fraction of
	// the cost.
	base := c.Records()
	var muts []core.Mutation
	var maxSeq uint64
	for _, w := range entries {
		if w.epoch <= c.Epoch() {
			continue
		}
		muts = append(muts, core.Mutation{Kind: w.kind, Add: w.add, Del: w.del, Epoch: w.epoch, Seq: w.seq})
		if w.seq > maxSeq {
			maxSeq = w.seq
		}
	}
	replayed := len(muts)
	if err := c.ReplayMutations(muts); err != nil {
		f.Close()
		return nil, fmt.Errorf("approxstore: wal replay: %w", err)
	}
	// The newest segment's filename names the epoch the store once held
	// durably. If a corrupt newest segment forced a fallback and the WAL
	// (reset by that very checkpoint) could not replay back up to it, state
	// that was acknowledged is gone — fail loudly rather than serve an
	// older version as if healthy.
	if c.Epoch() < segs[0].epoch {
		f.Close()
		return nil, fmt.Errorf("approxstore: replay reached epoch %d, below segment %s — the store has lost acknowledged state", c.Epoch(), segName(segs[0].epoch))
	}
	l := &Log{
		dir:       dir,
		c:         c,
		f:         f,
		off:       off,
		entries:   replayed,
		snapEpoch: loaded.epoch,
		snapBytes: size,
		loadDur:   time.Since(start),
		baseRecs:  base,
		replay:    muts,
		maxSeq:    maxSeq,
	}
	SnapshotLoadUS.Observe(l.loadDur)
	c.SetMutationHook(l.appendMutation)
	return l, nil
}

// Corpus returns the attached corpus.
func (l *Log) Corpus() *core.Corpus { return l.c }

// TakeReplay hands over the cold-start replay window Open captured — the
// record state at the loaded segment plus the mutation batches replayed on
// top of it — and releases the log's reference to it. It returns nils for
// a freshly created store or once the window has been taken.
func (l *Log) TakeReplay() ([]core.Record, []core.Mutation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	base, muts := l.baseRecs, l.replay
	l.baseRecs, l.replay = nil, nil
	return base, muts
}

// MaxSeq returns the largest batch sequence number among the WAL entries a
// cold start replayed (zero for a fresh or fully checkpointed store) — the
// floor a sharded corpus's sequence counter resumes above.
func (l *Log) MaxSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxSeq
}

// Stats returns the durable-state counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Dir:           l.dir,
		SnapshotEpoch: l.snapEpoch,
		SnapshotBytes: l.snapBytes,
		WALEntries:    l.entries,
		LastLoadDur:   l.loadDur,
	}
}

// appendMutation is the corpus's mutation hook: it frames and writes the
// batch before the mutation publishes. A write failure aborts the
// mutation, so nothing is ever acknowledged that the log did not take —
// and a partial write is rolled back by truncating to the last good
// offset, so a torn frame can never sit in the middle of the log and make
// the replay scanner discard later acknowledged entries. If even the
// rollback fails, the log poisons itself: better to stop acknowledging
// than to acknowledge into a file that will not replay.
func (l *Log) appendMutation(m core.Mutation) error {
	start := time.Now()
	defer func() { WALAppendUS.Observe(time.Since(start)) }()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("approxstore: log is closed")
	}
	buf := encodeWALEntry(m)
	if len(buf) > maxWALEntrySize {
		return fmt.Errorf("approxstore: mutation batch (%d bytes) exceeds the %d-byte wal entry bound", len(buf), maxWALEntrySize)
	}
	if h := faultHook(); h != nil {
		if keep, herr := h.WALAppend(l.dir, buf); herr != nil {
			// Leave exactly the torn prefix a crash would: write keep bytes,
			// then poison the log. The mutation is not acknowledged, and the
			// replay scanner truncates the torn tail on the next open.
			if keep > 0 {
				if keep > len(buf) {
					keep = len(buf)
				}
				l.f.WriteAt(buf[:keep], l.off)
			}
			l.closed = true
			l.f.Close()
			return fmt.Errorf("approxstore: wal append failed (%v); log closed", herr)
		}
	}
	n, err := l.f.WriteAt(buf, l.off)
	if err != nil {
		if n > 0 {
			if terr := l.f.Truncate(l.off); terr != nil {
				l.closed = true
				l.f.Close()
				return fmt.Errorf("approxstore: wal append failed (%v) and rollback failed (%v); log closed", err, terr)
			}
		}
		return err
	}
	l.off += int64(len(buf))
	l.entries++
	return nil
}

// Checkpoint writes a fresh snapshot segment at the corpus's current epoch
// and truncates the WAL, atomically with respect to concurrent mutations
// (they are frozen for the duration; selections proceed unaffected). Older
// segments are removed after the new one is durable.
func (l *Log) Checkpoint() error {
	return l.c.Freeze(func(s *core.Snapshot) error {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.closed {
			return fmt.Errorf("approxstore: log is closed")
		}
		return l.checkpointLocked(s.Epoch)
	})
}

// checkpointLocked writes the segment for the corpus's current snapshot,
// fsyncs and renames it into place, then resets the WAL. Callers hold
// whatever locks make the snapshot stable (Freeze and/or l.mu).
func (l *Log) checkpointLocked(epoch uint64) error {
	start := time.Now()
	defer func() { SnapshotSaveUS.Observe(time.Since(start)) }()
	final := filepath.Join(l.dir, segName(epoch))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("approxstore: %w", err)
	}
	if err := l.c.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("approxstore: %w", err)
	}
	if h := faultHook(); h != nil {
		if herr := h.Fsync(tmp); herr != nil {
			// The tmp segment never becomes durable: abort the checkpoint
			// cleanly, leaving the previous (segment, WAL) pair authoritative.
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("approxstore: %w", herr)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("approxstore: %w", err)
	}
	size, _ := f.Seek(0, 2)
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("approxstore: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("approxstore: %w", err)
	}
	syncDir(l.dir)

	// The segment is durable; reset the WAL. A crash before this point
	// replays the old pair; after it, stale entries (epoch <= snapshot) are
	// skipped on load.
	if l.f != nil {
		l.f.Close()
	}
	wf, err := createWAL(filepath.Join(l.dir, walName))
	if err != nil {
		return fmt.Errorf("approxstore: %w", err)
	}
	l.f = wf
	l.off = walHeaderSize
	l.entries = 0
	l.snapEpoch = epoch
	l.snapBytes = size

	// Best-effort cleanup of superseded segments.
	if names, err := os.ReadDir(l.dir); err == nil {
		for _, e := range names {
			if se, ok := segEpoch(e.Name()); ok && se != epoch {
				os.Remove(filepath.Join(l.dir, e.Name()))
			}
		}
	}
	return nil
}

// Sync flushes appended WAL entries to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f == nil {
		return nil
	}
	if h := faultHook(); h != nil {
		if herr := h.Fsync(l.dir); herr != nil {
			return herr
		}
	}
	start := time.Now()
	err := l.f.Sync()
	WALFsyncUS.Observe(time.Since(start))
	return err
}

// Close fsyncs and closes the WAL and detaches the mutation hook; further
// mutations on the corpus fail until a new log attaches. It is the
// graceful-drain path of the server.
func (l *Log) Close() error {
	l.c.SetMutationHook(func(core.Mutation) error {
		return fmt.Errorf("approxstore: log is closed")
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	start := time.Now()
	err := l.f.Sync()
	WALFsyncUS.Observe(time.Since(start))
	if err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable; best effort
// (not every filesystem supports it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// ---- sharded manifests ----

// Manifest records the layout of a sharded corpus store: the shard count
// and the shard-epoch vector at the last checkpoint. The vector identifies
// the global version the segments encode; per-shard WALs replay each shard
// past it to the last acknowledged state. Seq is the corpus-wide batch
// sequence number at the checkpoint — the floor the counter resumes above
// when the truncated WAL holds nothing newer (absent in older manifests,
// which decode as zero).
type Manifest struct {
	Version int      `json:"version"`
	Shards  int      `json:"shards"`
	Epochs  []uint64 `json:"epochs"`
	Seq     uint64   `json:"seq,omitempty"`
}

// ShardDir returns the data directory of shard i under root.
func ShardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", i))
}

// HasManifest reports whether root holds a sharded corpus store.
func HasManifest(root string) bool {
	_, err := os.Stat(filepath.Join(root, manifestName))
	return err == nil
}

// WriteManifest atomically replaces root's manifest.
func WriteManifest(root string, m Manifest) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("approxstore: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("approxstore: %w", err)
	}
	tmp := filepath.Join(root, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("approxstore: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(root, manifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("approxstore: %w", err)
	}
	syncDir(root)
	return nil
}

// ReadManifest reads and validates root's manifest.
func ReadManifest(root string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(root, manifestName))
	if err != nil {
		return m, fmt.Errorf("approxstore: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("approxstore: bad manifest: %w", err)
	}
	if m.Version != 1 {
		return m, fmt.Errorf("approxstore: unsupported manifest version %d", m.Version)
	}
	if m.Shards < 1 {
		return m, fmt.Errorf("approxstore: manifest names %d shards", m.Shards)
	}
	if len(m.Epochs) != m.Shards {
		return m, fmt.Errorf("approxstore: manifest epoch vector has %d entries for %d shards", len(m.Epochs), m.Shards)
	}
	return m, nil
}
