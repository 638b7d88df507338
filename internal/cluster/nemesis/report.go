package nemesis

import "sort"

// StepResult records one nemesis step: which faults it injected, how long
// re-election took when the step deposed a leader, and how long the
// cluster took to reconverge — identical /v1/hash on every replica at a
// pinned epoch vector — after the heal.
type StepResult struct {
	Step          string   `json:"step"`
	FaultKinds    []string `json:"fault_kinds,omitempty"`
	ReelectionMS  int64    `json:"reelection_ms,omitempty"`
	ConvergenceMS int64    `json:"convergence_ms"`
	HashOK        bool     `json:"hash_ok"`
}

// Report is the result of one nemesis drill; TestNemesisFullSchedule
// asserts its invariants over the full randomized schedule.
type Report struct {
	Nodes   int   `json:"nodes"`
	Records int   `json:"records"`
	Seed    int64 `json:"seed"`

	Steps []StepResult `json:"steps"`

	// FaultsInjected counts injected faults per kind over the whole drill.
	FaultsInjected     map[string]uint64 `json:"faults_injected"`
	TotalFaults        uint64            `json:"total_faults"`
	DistinctFaultKinds int               `json:"distinct_fault_kinds"`

	MedianReelectionMS  int64 `json:"median_reelection_ms"`
	MedianConvergenceMS int64 `json:"median_convergence_ms"`

	// AckedWrites is the number of client writes acknowledged during the
	// drill; AckedWriteLoss counts those missing from any replica at the
	// final converged vector (the invariant: always 0).
	AckedWrites    int `json:"acked_writes"`
	AckedWriteLoss int `json:"acked_write_loss"`

	// HashChecks counts replica hash probes across all convergence
	// checkpoints; HashOK is false if any replica ever disagreed.
	HashChecks int  `json:"hash_checks"`
	HashOK     bool `json:"hash_ok"`

	// WatchEvents / WatchExactlyOnce report the post-drill watch resume
	// check: every replica replays the identical event list, no event
	// delivered twice.
	WatchEvents      int  `json:"watch_events"`
	WatchExactlyOnce bool `json:"watch_exactly_once"`

	// RollingRestart* cover the final staggered-restart drill; the
	// invariant is zero failed client requests (retries allowed).
	RollingRestartRequests int `json:"rolling_restart_requests"`
	RollingRestartFailures int `json:"rolling_restart_failures"`

	ClientRequests     int `json:"client_requests"`
	ClientRetries      int `json:"client_retries"`
	ClientFailures     int `json:"client_failures"`
	StaleReadsObserved int `json:"stale_reads_observed"`

	// MetricsFaultsTotal is the approx_chaos_faults_total sum scraped from
	// a node's /metrics before teardown — proof the fault counters export.
	MetricsFaultsTotal uint64 `json:"metrics_faults_total"`
}

func median(ms []int64) int64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]int64(nil), ms...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
