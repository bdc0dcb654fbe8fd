package workloads

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/minipy"
)

func TestCodeCacheGetAndInventory(t *testing.T) {
	c := NewCodeCache()
	fib, ok := ByName("fib")
	if !ok {
		t.Fatal("fib missing")
	}
	e1, hit, err := c.Get(fib)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Get must be a miss")
	}
	if e1.Code == nil || e1.Analysis == nil || e1.Program == nil || e1.Program.Code != e1.Code {
		t.Fatal("entry must carry code, analysis digest and the prepared program")
	}
	e2, hit, err := c.Get(fib)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second Get must hit")
	}
	if e2.Code != e1.Code {
		t.Fatal("hit must return the cached code object")
	}
	if got := c.Inventory(); len(got) != 1 || got[0] != "fib" {
		t.Fatalf("Inventory = %v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCodeCacheCompileErrorNotCached(t *testing.T) {
	c := NewCodeCache()
	bad := Benchmark{Name: "broken", Source: "def run(:\n"}
	if _, _, err := c.Get(bad); err == nil {
		t.Fatal("broken source must fail to compile")
	}
	if c.Len() != 0 {
		t.Fatal("failed compiles must not be cached")
	}
	// A statically broken program is rejected exactly as analysis.Check
	// rejects it, from the cache's single analysis pass.
	src := "def run():\n    return x_local\n    x_local = 1\n"
	code, err := minipy.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.Check(code)
	var ae *analysis.Error
	_, _, err = c.Get(Benchmark{Name: "static", Source: src})
	if want == nil || !errors.As(err, &ae) || ae.Error() != want.Error() {
		t.Fatalf("cache error %v, want analysis.Check's %v", err, want)
	}
}

// TestGetOptMatchesFreshOptimize checks that GetOpt's cached -opt 2 entry
// is exactly the bytecode a fresh minipy.Optimize of the base code yields.
func TestGetOptMatchesFreshOptimize(t *testing.T) {
	c := NewCodeCache()
	for _, b := range append(Suite(), Extended()...) {
		base, _, err := c.Get(b)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := c.GetOpt(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := minipy.Optimize(base.Code, 2, analysis.OptimizationFacts(base.Code))
		if err != nil {
			t.Fatal(err)
		}
		if opt.Code.Disassemble() != want.Disassemble() {
			t.Errorf("%s: GetOpt -opt 2 code differs from a freshly optimized copy", b.Name)
		}
	}
}

// TestCodeCacheConcurrentInventory hits the cache from concurrent shards —
// compiles of distinct benchmarks racing repeated inventory listings — and
// relies on the race detector (make verify runs go test -race) to prove the
// map iteration is lock-protected.
func TestCodeCacheConcurrentInventory(t *testing.T) {
	c := NewCodeCache()
	suite := Suite()
	const shards = 8
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < len(suite); i++ {
				b := suite[(shard+i)%len(suite)]
				if _, _, err := c.Get(b); err != nil {
					t.Errorf("shard %d: %v", shard, err)
					return
				}
				if names := c.Inventory(); len(names) == 0 {
					t.Errorf("shard %d: empty inventory after a Get", shard)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if c.Len() != len(suite) {
		t.Fatalf("cached %d benchmarks, want %d", c.Len(), len(suite))
	}
	inv := c.Inventory()
	if len(inv) != len(suite) {
		t.Fatalf("inventory lists %d benchmarks, want %d", len(inv), len(suite))
	}
	for i := 1; i < len(inv); i++ {
		if inv[i-1] >= inv[i] {
			t.Fatalf("inventory not sorted: %v", inv)
		}
	}
}
