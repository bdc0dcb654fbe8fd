package workloads

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/minipy"
	"repro/internal/vm"
)

// Compiled is the single product of one front-end pass over a workload,
// cached per benchmark: its verified bytecode, the static-analysis digest,
// and the Program of verified register templates the VM runs.
type Compiled struct {
	Code     *minipy.Code
	Analysis *analysis.Summary
	Program  *vm.Program
}

// CodeCache is a concurrency-safe compile-once cache. The parallel harness
// hands one cache to every worker shard: reads take a shared lock, the
// first compile of a benchmark takes the exclusive lock, and the inventory
// listing is served under the same lock discipline — iterating the map
// without it is a data race the moment shards run concurrently.
type CodeCache struct {
	mu      sync.RWMutex
	entries map[string]Compiled
}

// NewCodeCache returns an empty cache.
func NewCodeCache() *CodeCache {
	return &CodeCache{entries: map[string]Compiled{}}
}

// Get returns the compiled entry for b, compiling and analyzing it on first
// use. hit reports whether the entry was already cached. Concurrent callers
// of the same uncompiled benchmark serialize on the first compile; callers
// of cached benchmarks only share a read lock.
func (c *CodeCache) Get(b Benchmark) (entry Compiled, hit bool, err error) {
	c.mu.RLock()
	entry, hit = c.entries[b.Name]
	c.mu.RUnlock()
	if hit {
		return entry, true, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if entry, hit = c.entries[b.Name]; hit {
		return entry, true, nil
	}
	rep, err := b.checked()
	if err != nil {
		return Compiled{}, false, err
	}
	if entry, err = prepared(b, rep.Facts().Module, rep.Summarize()); err != nil {
		return Compiled{}, false, err
	}
	c.entries[b.Name] = entry
	return entry, false, nil
}

// prepared lowers code into its Program and assembles the cache entry; a
// lowering failure is a compile error.
func prepared(b Benchmark, code *minipy.Code, sum *analysis.Summary) (Compiled, error) {
	prog, err := vm.Prepare(code)
	if err != nil {
		return Compiled{}, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	return Compiled{Code: code, Analysis: sum, Program: prog}, nil
}

// GetOpt returns the compiled entry for b at bytecode-optimization level
// opt (see minipy.Optimize). Level 0 is the plain entry; a level outside
// 0..minipy.MaxOptLevel is an error. Optimized entries are cached under a
// level-qualified key and share the base entry's analysis summary — the
// summary describes the source program, which the optimizer does not change
// observably. The base code object is never mutated: every experiment arm
// holding a Compiled from Get still sees the compiler's output.
func (c *CodeCache) GetOpt(b Benchmark, opt int) (entry Compiled, hit bool, err error) {
	if err := minipy.CheckOptLevel(opt); err != nil {
		return Compiled{}, false, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	if opt == 0 {
		return c.Get(b)
	}
	key := fmt.Sprintf("%s#opt%d", b.Name, opt)
	c.mu.RLock()
	entry, hit = c.entries[key]
	c.mu.RUnlock()
	if hit {
		return entry, true, nil
	}
	base, _, err := c.Get(b)
	if err != nil {
		return Compiled{}, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if entry, hit = c.entries[key]; hit {
		return entry, true, nil
	}
	oc, err := minipy.Optimize(base.Code, opt, analysis.OptimizationFacts(base.Code))
	if err != nil {
		return Compiled{}, false, fmt.Errorf("workload %s: optimize level %d: %w", b.Name, opt, err)
	}
	if entry, err = prepared(b, oc, base.Analysis); err != nil {
		return Compiled{}, false, err
	}
	c.entries[key] = entry
	return entry, false, nil
}

// Inventory returns the names of every cached benchmark, sorted. The copy
// is taken under the read lock, so listing is safe while shards compile.
func (c *CodeCache) Inventory() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.entries))
	for name := range c.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len reports the number of cached benchmarks.
func (c *CodeCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
