package vm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/stats"
)

// progGen generates random terminating MiniPy programs over integer
// variables. Loops are always bounded `for _ in range(k)` and divisors are
// forced non-zero, so every generated program halts without error.
type progGen struct {
	rng    *stats.RNG
	sb     strings.Builder
	indent int
	depth  int
}

var genVars = []string{"a", "b", "c", "d"}

func (g *progGen) line(format string, args ...interface{}) {
	g.sb.WriteString(strings.Repeat("    ", g.indent))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

func (g *progGen) v() string { return genVars[g.rng.Intn(len(genVars))] }

// expr produces a random integer expression; depth-bounded.
func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return g.v()
		}
		return fmt.Sprintf("%d", g.rng.Intn(40)-10)
	}
	l := g.expr(depth - 1)
	r := g.expr(depth - 1)
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s * %s)", l, r)
	case 3:
		// Safe floor division: divisor in [1, 8].
		return fmt.Sprintf("(%s // (%s %% 7 + 1))", l, r)
	case 4:
		return fmt.Sprintf("(%s %% (%s %% 5 + 2))", l, r)
	default:
		return fmt.Sprintf("(%s if %s > %s else %s)", l, g.v(), r, r)
	}
}

func (g *progGen) cond() string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	return fmt.Sprintf("%s %s %s", g.expr(1), ops[g.rng.Intn(len(ops))], g.expr(1))
}

func (g *progGen) stmt() {
	if g.depth > 3 {
		g.line("%s = %s", g.v(), g.expr(2))
		return
	}
	switch g.rng.Intn(7) {
	case 0, 1:
		g.line("%s = %s", g.v(), g.expr(2))
	case 2:
		op := []string{"+=", "-=", "*="}[g.rng.Intn(3)]
		g.line("%s %s %s", g.v(), op, g.expr(1))
	case 3:
		g.line("if %s:", g.cond())
		g.indent++
		g.depth++
		g.block(1 + g.rng.Intn(2))
		g.indent--
		if g.rng.Intn(2) == 0 {
			g.line("else:")
			g.indent++
			g.block(1 + g.rng.Intn(2))
			g.indent--
		}
		g.depth--
	case 4:
		g.line("for loop%d in range(%d):", g.depth, 2+g.rng.Intn(6))
		g.indent++
		g.depth++
		g.block(1 + g.rng.Intn(2))
		g.indent--
		g.depth--
	case 5:
		// Bounded while with a dedicated counter.
		n := 2 + g.rng.Intn(5)
		g.line("w%d = 0", g.depth)
		g.line("while w%d < %d:", g.depth, n)
		g.indent++
		g.depth++
		g.line("w%d += 1", g.depth-1)
		g.block(1)
		g.indent--
		g.depth--
	default:
		g.line("%s = abs(%s) %% 1000", g.v(), g.expr(2))
	}
}

func (g *progGen) block(n int) {
	for i := 0; i < n; i++ {
		g.stmt()
	}
}

// generate emits a full program ending in a print of all variables.
func (g *progGen) generate() string {
	g.sb.Reset()
	for _, v := range genVars {
		g.line("%s = %d", v, g.rng.Intn(20))
	}
	g.block(6 + g.rng.Intn(6))
	g.line("print(%s)", strings.Join(genVars, ", "))
	return g.sb.String()
}

// TestDifferentialRandomPrograms cross-validates the two engines on
// hundreds of randomly generated programs: identical printed output and no
// runtime errors.
func TestDifferentialRandomPrograms(t *testing.T) {
	g := &progGen{rng: stats.NewRNG(2718)}
	const programs = 300
	for i := 0; i < programs; i++ {
		src := g.generate()
		code, err := minipy.CompileSource(src)
		if err != nil {
			t.Fatalf("program %d: compile: %v\n%s", i, err, src)
		}
		if err := minipy.Verify(code); err != nil {
			t.Fatalf("program %d: bytecode verification: %v\n%s", i, err, src)
		}
		run := func(mode Mode) string {
			var buf bytes.Buffer
			in := New(Config{Mode: mode, Out: &buf, MaxSteps: 5_000_000})
			if _, err := in.RunSource(src); err != nil {
				t.Fatalf("program %d (%s) failed: %v\n%s", i, mode, err, src)
			}
			return buf.String()
		}
		oi := run(ModeInterp)
		oj := run(ModeJIT)
		if oi != oj {
			t.Fatalf("program %d: engines disagree\ninterp: %q\njit:    %q\n%s",
				i, oi, oj, src)
		}
	}
}

// TestDifferentialJITNeverChangesCounters ensures the JIT's cost-model
// bookkeeping never changes the *semantic* step count of a program — steps
// measure executed ops, which must match the interpreter exactly.
func TestDifferentialStepsMatch(t *testing.T) {
	g := &progGen{rng: stats.NewRNG(31415)}
	for i := 0; i < 50; i++ {
		src := g.generate()
		steps := func(mode Mode) uint64 {
			in := New(Config{Mode: mode, MaxSteps: 5_000_000})
			if _, err := in.RunSource(src); err != nil {
				t.Fatalf("program %d: %v", i, err)
			}
			return in.CountersSnapshot().Steps
		}
		if si, sj := steps(ModeInterp), steps(ModeJIT); si != sj {
			t.Fatalf("program %d: step counts diverge: interp %d, jit %d\n%s",
				i, si, sj, src)
		}
	}
}

// TestDifferentialTiersRandomPrograms cross-validates the register tier
// against the stack reference on randomly generated programs, in both
// engine modes: identical printed output, execution counters and JIT
// statistics. This sweeps program shapes (nested conditionals, augmented
// assignment, bounded while loops, floor-division guards) that the curated
// workload suite holds fixed, so a quickening guard or escape-point boxing
// bug with a narrow trigger still gets hunted.
func TestDifferentialTiersRandomPrograms(t *testing.T) {
	g := &progGen{rng: stats.NewRNG(1618)}
	const programs = 200
	type outcome struct {
		out      string
		counters Counters
		jit      [3]int
	}
	for i := 0; i < programs; i++ {
		src := g.generate()
		run := func(mode Mode, newInterp func(Config) *Interp) outcome {
			var buf bytes.Buffer
			in := newInterp(Config{Mode: mode, Out: &buf, MaxSteps: 5_000_000})
			if _, err := in.RunSource(src); err != nil {
				t.Fatalf("program %d (%s) failed: %v\n%s", i, mode, err, src)
			}
			var o outcome
			o.out, o.counters = buf.String(), in.CountersSnapshot()
			o.jit[0], o.jit[1], o.jit[2] = in.JITStats()
			return o
		}
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			reg, stack := run(mode, New), run(mode, NewStackReference)
			if reg.out != stack.out {
				t.Fatalf("program %d (%s): tiers disagree\nreg:   %q\nstack: %q\n%s",
					i, mode, reg.out, stack.out, src)
			}
			if reg != stack {
				t.Fatalf("program %d (%s): accounting diverges:\nreg:   %+v\nstack: %+v\n%s",
					i, mode, reg, stack, src)
			}
		}
	}
}
