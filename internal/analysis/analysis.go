package analysis

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/minipy"
)

// Severity classifies a diagnostic. Errors are statically certain defects
// (the program will misbehave on every execution reaching the site) and fail
// Check; warnings are possible-but-unproven issues; infos are stylistic
// findings like unused loop variables.
type Severity int

// Severity levels, ordered from least to most severe.
const (
	Info Severity = iota
	Warning
	ErrorSev
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case ErrorSev:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Diagnostic is one positioned finding from any analysis pass.
type Diagnostic struct {
	Func     string // code object name ("<module>" for module scope)
	PC       int    // bytecode offset within Func
	Line     int    // source line (1-based; 0 if unknown)
	Severity Severity
	Rule     string // stable rule id, e.g. "use-before-def", "type-error"
	Msg      string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s[%s]: %s", d.Func, d.Line, d.Severity, d.Rule, d.Msg)
}

// Error is the failure Check returns when a program has at least one
// error-severity diagnostic. It carries the first (lowest function, lowest
// pc) error so harness callers can report a single positioned message.
type Error struct {
	Func string
	PC   int
	Line int
	Rule string
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("analysis: %s line %d (pc %d): %s: %s",
		e.Func, e.Line, e.PC, e.Rule, e.Msg)
}

// FuncReport is the per-code-object analysis result.
type FuncReport struct {
	Name         string
	Graph        *Graph
	Instructions int
	// Unreachable counts instructions in blocks with no path from entry,
	// excluding the compiler's implicit trailing `LoadConst None; Return`
	// epilogue (present in every code object, unreachable whenever all
	// paths return explicitly).
	Unreachable int
	DeadStores  int
	UnusedLoops int
	// Typed counts reachable instructions whose abstract operands were all
	// resolved to a concrete lattice type (not ⊤).
	Typed int
	// ReachableInstrs counts instructions in reachable blocks (the
	// denominator for type coverage).
	ReachableInstrs int
	// Types[pc] is the inferred abstract result type of each instruction,
	// or empty when the instruction pushes nothing / is unreachable.
	Types []string
}

// Report is the full analysis result for a module and all nested functions.
type Report struct {
	Funcs       []*FuncReport
	Diagnostics []Diagnostic
	// Certificate is the versioned proof-carrying artifact (facts.go):
	// determinism audit, per-function interprocedural facts, step bound.
	Certificate *Certificate

	// facts is the internal pointer-rich store behind Certificate,
	// consumed by the harness step budget and the VM soundness checker.
	facts *ModuleFacts
}

// Facts exposes the internal fact store (keyed by *minipy.Code) for
// in-process consumers: the soundness checker and the harness step-budget
// machinery.
func (r *Report) Facts() *ModuleFacts { return r.facts }

// Errors returns the error-severity diagnostics.
func (r *Report) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == ErrorSev {
			out = append(out, d)
		}
	}
	return out
}

// Err returns the error Check reports for this program: an *Error for the
// first error-severity diagnostic, or nil when there is none. Diagnostics
// are sorted, so the first is the lowest function, then the lowest pc.
func (r *Report) Err() error {
	for _, d := range r.Diagnostics {
		if d.Severity == ErrorSev {
			return &Error{Func: d.Func, PC: d.PC, Line: d.Line, Rule: d.Rule, Msg: d.Msg}
		}
	}
	return nil
}

// Warnings returns the warning-severity diagnostics.
func (r *Report) Warnings() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == Warning {
			out = append(out, d)
		}
	}
	return out
}

// Summary is the compact per-benchmark analysis digest embedded under the
// "analysis" key of -json reports. All fields are deterministic functions of
// the bytecode, so the golden-file determinism test covers them.
type Summary struct {
	Functions         int          `json:"functions"`
	Blocks            int          `json:"blocks"`
	Instructions      int          `json:"instructions"`
	UnreachableInstrs int          `json:"unreachable_instructions"`
	DeadStores        int          `json:"dead_stores"`
	UnusedLoopVars    int          `json:"unused_loop_vars"`
	TypedInstrPct     float64      `json:"typed_instruction_pct"`
	Errors            int          `json:"errors"`
	Warnings          int          `json:"warnings"`
	Certificate       *Certificate `json:"certificate"`
}

// Summarize folds a report into its JSON digest.
func (r *Report) Summarize() *Summary {
	s := &Summary{Functions: len(r.Funcs), Certificate: r.Certificate}
	typed, reachable := 0, 0
	for _, f := range r.Funcs {
		s.Blocks += len(f.Graph.Blocks)
		s.Instructions += f.Instructions
		s.UnreachableInstrs += f.Unreachable
		s.DeadStores += f.DeadStores
		s.UnusedLoopVars += f.UnusedLoops
		typed += f.Typed
		reachable += f.ReachableInstrs
	}
	if reachable > 0 {
		s.TypedInstrPct = math.Round(float64(typed)/float64(reachable)*10000) / 100
	}
	for _, d := range r.Diagnostics {
		switch d.Severity {
		case ErrorSev:
			s.Errors++
		case Warning:
			s.Warnings++
		}
	}
	return s
}

// Analyze runs every analysis pass over a verified module code object and
// all nested code objects. The input must already have passed minipy.Verify;
// Analyze re-verifies defensively so a caller that skipped verification gets
// a VerifyError instead of an out-of-range panic.
func Analyze(code *minipy.Code) (*Report, error) {
	if err := minipy.Verify(code); err != nil {
		return nil, err
	}
	r := &Report{}
	mctx := moduleContext(code)
	var walk func(c *minipy.Code)
	walk = func(c *minipy.Code) {
		f := analyzeFunc(c, mctx, r)
		r.Funcs = append(r.Funcs, f)
		for _, k := range c.Consts {
			if sub, ok := k.(*minipy.Code); ok {
				walk(sub)
			}
		}
	}
	walk(code)
	r.facts = InterprocAnalyze(code, mctx)
	r.Certificate = buildCertificate(r.facts)
	sortDiagnostics(r)
	return r, nil
}

// analyzeFunc runs the per-function passes: CFG, definite assignment,
// type inference, liveness, unreachable code.
func analyzeFunc(c *minipy.Code, mctx *modCtx, r *Report) *FuncReport {
	g := BuildCFG(c)
	f := &FuncReport{Name: c.Name, Graph: g, Instructions: len(c.Ops)}

	// Unreachable code, excluding compiler scaffolding: the implicit
	// epilogue emitted at the tail of every body (LoadConst None; Return)
	// and bare jump-over-else instructions that become dead when an if-arm
	// ends in return. Only unreachable instructions that could correspond
	// to source statements are reported.
	epilogue := len(c.Ops) - 2
	for _, id := range g.UnreachableBlocks() {
		b := g.Blocks[id]
		interesting := 0
		for pc := b.Start; pc < b.End; pc++ {
			if pc >= epilogue || c.Ops[pc].Op == minipy.OpJump {
				continue
			}
			interesting++
		}
		if interesting == 0 {
			continue
		}
		f.Unreachable += interesting
		r.Diagnostics = append(r.Diagnostics, Diagnostic{
			Func: c.Name, PC: b.Start, Line: lineOf(c, b.Start),
			Severity: Warning, Rule: "unreachable-code",
			Msg: fmt.Sprintf("block b%d (pc %d..%d) is unreachable", id, b.Start, b.End),
		})
	}
	for _, b := range g.Blocks {
		if g.Reachable[b.ID] {
			f.ReachableInstrs += b.End - b.Start
		}
	}

	checkDefiniteAssignment(g, r)
	inferTypes(g, mctx, r, f)
	checkLiveness(g, r, f)
	return f
}

// Check verifies bytecode structure and rejects programs with any
// error-severity finding: use-before-def and statically certain type errors.
// It is the gate the harness and workload Compile path run before the first
// invocation, so a bad program becomes a positioned per-benchmark error
// instead of a VM fault mid-measurement.
func Check(code *minipy.Code) error {
	rep, err := Analyze(code)
	if err != nil {
		return err
	}
	return rep.Err()
}

// lineOf returns the source line of the instruction at pc, or 0.
func lineOf(c *minipy.Code, pc int) int {
	if pc >= 0 && pc < len(c.Lines) {
		return int(c.Lines[pc])
	}
	return 0
}

// sortDiagnostics orders findings by function appearance order, then pc,
// then rule, so reports are deterministic regardless of pass ordering.
func sortDiagnostics(r *Report) {
	order := make(map[string]int, len(r.Funcs))
	for i, f := range r.Funcs {
		if _, ok := order[f.Name]; !ok {
			order[f.Name] = i
		}
	}
	sort.SliceStable(r.Diagnostics, func(i, j int) bool {
		a, b := r.Diagnostics[i], r.Diagnostics[j]
		if order[a.Func] != order[b.Func] {
			return order[a.Func] < order[b.Func]
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Rule < b.Rule
	})
}
