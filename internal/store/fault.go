package store

import "sync"

// FaultHook intercepts the store's durability syscalls so tests can inject
// the failures a real disk produces: short (torn) WAL appends and failed
// fsyncs. The zero state — no hook installed — costs one RWMutex read per
// call.
type FaultHook interface {
	// WALAppend is consulted before a WAL frame is written. Returning
	// (len(frame), nil) writes the frame normally. Returning (keep, err)
	// with err != nil writes only the first keep bytes — the torn tail a
	// crash mid-append leaves — and fails the mutation, so nothing torn is
	// ever acknowledged.
	WALAppend(dir string, frame []byte) (keep int, err error)
	// Fsync is consulted before fsyncing path (a WAL or a checkpoint's tmp
	// segment). A non-nil error is reported instead of syncing.
	Fsync(path string) error
}

var (
	faultMu   sync.RWMutex
	faultImpl FaultHook
)

// SetFaultHook installs (or with nil, removes) the process-wide fault hook.
func SetFaultHook(h FaultHook) {
	faultMu.Lock()
	defer faultMu.Unlock()
	faultImpl = h
}

func faultHook() FaultHook {
	faultMu.RLock()
	defer faultMu.RUnlock()
	return faultImpl
}
