package experiments

import (
	"fmt"
	"io"
)

// RunAll executes every experiment of the reproduction and writes the
// paper-style tables to w. The timing figures (5.2–5.4) are Go benchmarks:
// go test -bench 'Figure5' in the repository root.
func RunAll(w io.Writer, ao Options) error {
	fmt.Fprintf(w, "== Benchmarking Declarative Approximate Selection Predicates — accuracy reproduction ==\n")
	fmt.Fprintf(w, "scale: %d tuples / %d clean / %d queries\n", ao.Size, ao.NumClean, ao.Queries)

	Table51(ao).Print(w)

	t53, err := Table53(ao)
	if err != nil {
		return fmt.Errorf("table 5.3: %w", err)
	}
	t53.Print(w)

	qg, err := QGramSize(ao)
	if err != nil {
		return fmt.Errorf("q-gram size: %w", err)
	}
	qg.Print(w)

	t55, err := Table55(ao)
	if err != nil {
		return fmt.Errorf("table 5.5: %w", err)
	}
	PrintTable55(t55, w)

	t56, err := Table56(ao)
	if err != nil {
		return fmt.Errorf("table 5.6: %w", err)
	}
	PrintTable56(t56, w)

	f51, err := Figure51(ao)
	if err != nil {
		return fmt.Errorf("figure 5.1: %w", err)
	}
	f51.Print(w)

	t57, err := Table57(ao)
	if err != nil {
		return fmt.Errorf("table 5.7: %w", err)
	}
	t57.Print(w)

	f55, err := Figure55(ao)
	if err != nil {
		return fmt.Errorf("figure 5.5: %w", err)
	}
	f55.Print(w)

	f56, err := Figure56(ao)
	if err != nil {
		return fmt.Errorf("figure 5.6: %w", err)
	}
	f56.Print(w)
	return nil
}
