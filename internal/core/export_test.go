package core

// SnapshotStateDiff exposes snapshotStateDiff to the external tests: it
// derives every weight column both snapshots carry and names the first
// field whose state differs, ignoring the epoch; "" means equal state.
func SnapshotStateDiff(want, got *Snapshot) string { return snapshotStateDiff(want, got) }
