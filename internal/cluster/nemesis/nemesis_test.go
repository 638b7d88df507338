package nemesis

import (
	"testing"
)

// TestNemesisSmoke runs a single-step drill — partition the leader, force a
// re-election, heal, converge — with the full client/audit machinery: this
// is the CI (-race) face of the chaos harness.
func TestNemesisSmoke(t *testing.T) {
	rep, err := Run(Options{
		Records: 120,
		Seed:    11,
		Steps:   []string{"partition_leader"},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("nemesis run: %v", err)
	}
	if rep.AckedWriteLoss != 0 {
		t.Fatalf("acked write loss: %d of %d", rep.AckedWriteLoss, rep.AckedWrites)
	}
	if !rep.HashOK {
		t.Fatal("replica hashes diverged")
	}
	if rep.HashChecks == 0 {
		t.Fatal("no hash checks ran")
	}
	if !rep.WatchExactlyOnce {
		t.Fatal("watch resume was not exactly-once")
	}
	if rep.TotalFaults == 0 {
		t.Fatal("no faults were injected")
	}
	if rep.MetricsFaultsTotal == 0 {
		t.Fatal("chaos fault counters missing from /metrics export")
	}
	if len(rep.Steps) != 1 || rep.Steps[0].Step != "partition_leader" {
		t.Fatalf("unexpected steps: %+v", rep.Steps)
	}
	if rep.Steps[0].ReelectionMS <= 0 {
		t.Fatalf("no re-election measured: %+v", rep.Steps[0])
	}
}

// TestNemesisFullSchedule runs the default drill: every Catalog step in a
// seeded shuffle, ending in a rolling restart, with the concurrent client
// writing throughout. No acked write may be lost, every replica must hash
// identically after every heal, the schedule must inject at least five
// distinct fault kinds, the rolling restart must fail no client request,
// and watch resume must be exactly-once on every node.
func TestNemesisFullSchedule(t *testing.T) {
	rep, err := Run(Options{Records: 300, Seed: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("nemesis run: %v", err)
	}
	t.Logf("%d faults across %d kinds %v; %d acked writes, %d hash checks, %d watch events",
		rep.TotalFaults, rep.DistinctFaultKinds, rep.FaultsInjected, rep.AckedWrites, rep.HashChecks, rep.WatchEvents)
	if rep.AckedWriteLoss != 0 {
		t.Errorf("acked write loss: %d of %d", rep.AckedWriteLoss, rep.AckedWrites)
	}
	if !rep.HashOK {
		t.Error("replica hashes diverged after a heal")
	}
	if rep.DistinctFaultKinds < 5 {
		t.Errorf("only %d distinct fault kinds injected: %v", rep.DistinctFaultKinds, rep.FaultsInjected)
	}
	if rep.RollingRestartFailures != 0 {
		t.Errorf("%d of %d client requests failed during the rolling restart",
			rep.RollingRestartFailures, rep.RollingRestartRequests)
	}
	if !rep.WatchExactlyOnce {
		t.Error("watch resume was not exactly-once")
	}
	if want := len(Catalog) + 1; len(rep.Steps) != want {
		t.Errorf("ran %d steps, want %d", len(rep.Steps), want)
	}
}
