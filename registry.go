package approxsel

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/declarative"
	"repro/internal/native"
)

// Realization names one way of executing the predicates: the fast in-memory
// algorithms of package native, or the paper's declarative realization —
// plain SQL plus UDFs over the bundled engine.
type Realization string

const (
	// Native is the in-memory realization (the default of New).
	Native Realization = "native"
	// Declarative is the paper's realization: Appendix A/B SQL statements
	// executed by the bundled sqldb engine.
	Declarative Realization = "declarative"
)

// BuilderFunc constructs a predicate over a base relation. Registering one
// under a name makes that name constructible through New — the paper's
// extensibility story: new similarity predicates plug into the framework
// and are benchmarked through the same interface as the built-in thirteen.
type BuilderFunc = core.BuilderFunc

// CorpusBuilderFunc constructs a predicate attached to a shared Corpus —
// the corpus-aware counterpart of BuilderFunc. Native built-ins resolve to
// CorpusBuilderFuncs; legacy BuilderFuncs (the declarative realization and
// Register-ed predicates) are adapted automatically when attached to a
// corpus, so every registered predicate works with both construction paths.
type CorpusBuilderFunc = core.CorpusBuilderFunc

// predicateRegistry resolves (realization, name) to a builder. Built-in
// predicates live in per-realization tables; Register-ed predicates are
// realization-agnostic — how a custom predicate computes (in memory, over
// the SQL engine, over an external service) is its own business.
type predicateRegistry struct {
	mu       sync.RWMutex
	builtins map[Realization]map[string]BuilderFunc
	// corpus holds the corpus-aware builders of realizations that support
	// attaching directly to shared corpus state (the native realization).
	corpus map[Realization]map[string]CorpusBuilderFunc
	custom map[string]BuilderFunc
	order  []string // custom names in registration order
}

var registry = &predicateRegistry{
	builtins: map[Realization]map[string]BuilderFunc{
		Native:      native.Builders(),
		Declarative: declarative.Builders(),
	},
	corpus: map[Realization]map[string]CorpusBuilderFunc{
		Native: native.CorpusBuilders(),
	},
	custom: make(map[string]BuilderFunc),
}

// Register makes a custom predicate constructible through New under the
// given name, for every realization. The predicates the builder returns
// must be safe for concurrent Select, as core.Predicate requires: batches,
// joins, shard fan-outs and the server probe them from many goroutines. It
// errors on an empty name, a nil builder, or a name already taken by a
// built-in or a prior registration.
func Register(name string, builder BuilderFunc) error {
	if name == "" {
		return fmt.Errorf("approxsel: Register with empty predicate name")
	}
	if builder == nil {
		return fmt.Errorf("approxsel: Register(%q) with nil builder", name)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for r, table := range registry.builtins {
		if _, ok := table[name]; ok {
			return fmt.Errorf("approxsel: predicate %q is already built in (%s realization)", name, r)
		}
	}
	if _, ok := registry.custom[name]; ok {
		return fmt.Errorf("approxsel: predicate %q already registered", name)
	}
	registry.custom[name] = builder
	registry.order = append(registry.order, name)
	return nil
}

// MustRegister is Register, panicking on error — for use from package init
// functions, the usual place to register predicates.
func MustRegister(name string, builder BuilderFunc) {
	if err := Register(name, builder); err != nil {
		panic(err)
	}
}

// Unregister removes a previously Register-ed predicate so its name can be
// rebound — the hot-swap path for applications that reload predicate
// definitions (and the cleanup path for tests). Built-in predicates cannot
// be unregistered, and unregistering an unknown name is an error.
// Predicates already constructed under the old registration keep working;
// only future New/Predicate calls see the change.
func Unregister(name string) error {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for r, table := range registry.builtins {
		if _, ok := table[name]; ok {
			return fmt.Errorf("approxsel: predicate %q is built in (%s realization) and cannot be unregistered", name, r)
		}
	}
	if _, ok := registry.custom[name]; !ok {
		return fmt.Errorf("approxsel: predicate %q is not registered", name)
	}
	delete(registry.custom, name)
	for i, n := range registry.order {
		if n == name {
			registry.order = append(registry.order[:i:i], registry.order[i+1:]...)
			break
		}
	}
	return nil
}

// Realizations enumerates the registered realizations in lexical order.
func Realizations() []Realization {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Realization, 0, len(registry.builtins))
	for r := range registry.builtins {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PredicateNames enumerates every name New can resolve: the thirteen
// benchmark predicates in the order the paper presents them, followed by
// Register-ed predicates in registration order.
func PredicateNames() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, 0, len(core.PredicateNames)+len(registry.order))
	out = append(out, core.PredicateNames...)
	out = append(out, registry.order...)
	return out
}

// namesLocked returns every predicate name resolvable under the
// realization, sorted — the hint appended to unknown-name errors. Callers
// hold the registry lock.
func (pr *predicateRegistry) namesLocked(r Realization) []string {
	table := pr.builtins[r]
	out := make([]string, 0, len(table)+len(pr.custom))
	for n := range table {
		out = append(out, n)
	}
	for n := range pr.custom {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// unknownPredicate builds the unknown-name error, listing what is actually
// registerable so the caller does not have to guess. Callers hold the
// registry lock.
func unknownPredicate(r Realization, name string) error {
	return fmt.Errorf("approxsel: unknown predicate %q (realization %s); registered predicates: %s",
		name, r, strings.Join(registry.namesLocked(r), ", "))
}

// lookupBuilder resolves a predicate name under a realization.
func lookupBuilder(r Realization, name string) (BuilderFunc, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	table, ok := registry.builtins[r]
	if !ok {
		return nil, fmt.Errorf("approxsel: unknown realization %q", r)
	}
	if b, ok := table[name]; ok {
		return b, nil
	}
	if b, ok := registry.custom[name]; ok {
		return b, nil
	}
	return nil, unknownPredicate(r, name)
}

// lookupAttach resolves a predicate name under a realization for corpus
// attachment. It prefers the corpus-aware builder (native built-ins, which
// share the corpus's precomputed tables); realizations and custom
// predicates without one fall back to their legacy BuilderFunc, which the
// corpus view adapts by rebuilding from the corpus's records on epoch
// change.
func lookupAttach(r Realization, name string) (CorpusBuilderFunc, BuilderFunc, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	table, ok := registry.builtins[r]
	if !ok {
		return nil, nil, fmt.Errorf("approxsel: unknown realization %q", r)
	}
	if cb, ok := registry.corpus[r][name]; ok {
		return cb, nil, nil
	}
	if b, ok := table[name]; ok {
		return nil, b, nil
	}
	if b, ok := registry.custom[name]; ok {
		return nil, b, nil
	}
	return nil, nil, unknownPredicate(r, name)
}
