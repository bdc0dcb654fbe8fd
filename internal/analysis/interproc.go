package analysis

import (
	"sort"

	"repro/internal/minipy"
	"repro/internal/vm"
)

// This file is the interprocedural driver (DESIGN.md §14): it discovers the
// module's stable function bindings, runs the abstract interpreter in two
// passes (pass A with ⊤ parameters to harvest call-graph edges, argument
// intervals, and return facts; pass B with call-site-joined parameters to
// produce the final claims), closes effects over the call graph, and
// assembles the ModuleFacts behind the public Certificate.
//
// Host-entry assumption: claims are sound for executions that enter the
// module only through (a) running the module body and (b) calling the
// zero-argument run() entry point — exactly the harness contract. Calling
// an arbitrary function from the host with arguments outside its certified
// parameter intervals voids the parameter-conditional claims (and only
// those).

// directEff is the per-code syntactic effect scan: complete by
// construction (it reads the instruction stream, not abstract state), so
// the VM checker can verify it against any execution.
type directEff struct {
	loads      map[string]bool // every LOAD_GLOBAL name
	writes     map[string]bool // every STORE_GLOBAL name
	builtins   map[string]bool // loads resolving to deterministic builtins
	unresolved map[string]bool // loads resolving to nothing
	usesIO     bool            // references an IO builtin
}

// scanDirect performs the syntactic scan for one code object.
func scanDirect(c *minipy.Code, defined, det, io map[string]bool) *directEff {
	d := &directEff{
		loads:      map[string]bool{},
		writes:     map[string]bool{},
		builtins:   map[string]bool{},
		unresolved: map[string]bool{},
	}
	for _, ins := range c.Ops {
		switch ins.Op {
		case minipy.OpLoadGlobal:
			name := c.Names[ins.Arg]
			d.loads[name] = true
			if defined[name] {
				continue
			}
			if det[name] {
				d.builtins[name] = true
				if io[name] {
					d.usesIO = true
				}
				continue
			}
			d.unresolved[name] = true
		case minipy.OpStoreGlobal:
			d.writes[c.Names[ins.Arg]] = true
		}
	}
	return d
}

// collectCodes walks the constant pools and returns every code object in
// appearance order (module body first).
func collectCodes(root *minipy.Code) []*minipy.Code {
	var out []*minipy.Code
	var walk func(c *minipy.Code)
	walk = func(c *minipy.Code) {
		out = append(out, c)
		for _, k := range c.Consts {
			if sub, ok := k.(*minipy.Code); ok {
				walk(sub)
			}
		}
	}
	walk(root)
	return out
}

// scanBindings finds stable module-level bindings: names stored exactly
// once module-wide, in the module body, by the instruction pair
// `MakeFunction k; StoreGlobal name` (function binding) or
// `LoadConst k; StoreGlobal name` with a scalar constant (const global).
func scanBindings(module *minipy.Code, codes []*minipy.Code) (
	bindings map[string]*minipy.Code,
	consts map[string]absv,
	bindSites map[*minipy.Code]map[int]string,
) {
	storeCount := map[string]int{}
	for _, c := range codes {
		for _, ins := range c.Ops {
			if ins.Op == minipy.OpStoreGlobal {
				storeCount[c.Names[ins.Arg]]++
			}
		}
	}
	bindings = map[string]*minipy.Code{}
	consts = map[string]absv{}
	bindSites = map[*minipy.Code]map[int]string{}
	for pc := 0; pc+1 < len(module.Ops); pc++ {
		st := module.Ops[pc+1]
		if st.Op != minipy.OpStoreGlobal {
			continue
		}
		name := module.Names[st.Arg]
		if storeCount[name] != 1 {
			continue
		}
		ins := module.Ops[pc]
		switch ins.Op {
		case minipy.OpMakeFunction:
			sub, ok := module.Consts[ins.Arg].(*minipy.Code)
			if !ok {
				continue
			}
			bindings[name] = sub
			if bindSites[module] == nil {
				bindSites[module] = map[int]string{}
			}
			bindSites[module][pc] = name
		case minipy.OpLoadConst:
			switch module.Consts[ins.Arg].(type) {
			case minipy.Int, minipy.Float, minipy.Bool, minipy.Str, minipy.NoneType:
				consts[name] = constAbsv(module.Consts[ins.Arg])
			}
		}
	}
	return bindings, consts, bindSites
}

// InterprocAnalyze runs the full interprocedural analysis over a verified
// module and returns the internal fact store. mctx may be nil (it is
// recomputed); Analyze passes its own to share the STORE_GLOBAL scan.
func InterprocAnalyze(module *minipy.Code, mctx *modCtx) *ModuleFacts {
	if mctx == nil {
		mctx = moduleContext(module)
	}
	det := vm.DeterministicBuiltins()
	io := vm.IOBuiltins()
	codes := collectCodes(module)
	bindings, constGlobals, bindSites := scanBindings(module, codes)

	graphs := make(map[*minipy.Code]*Graph, len(codes))
	direct := make(map[*minipy.Code]*directEff, len(codes))
	for _, c := range codes {
		graphs[c] = BuildCFG(c)
		direct[c] = scanDirect(c, mctx.defined, det, io)
	}

	env := &absEnv{
		bindings:    bindings,
		consts:      constGlobals,
		defined:     mctx.defined,
		builtins:    det,
		io:          io,
		bindSites:   bindSites,
		paramIv:     map[string][]ival{},
		retIv:       map[string]ival{},
		retNotFresh: map[string]bool{},
	}

	// Pass A: ⊤ parameters, no callee facts. Harvest call sites, return
	// intervals, return freshness, and escapes.
	runsA := make(map[*minipy.Code]*absRun, len(codes))
	for _, c := range codes {
		runsA[c] = runAbs(graphs[c], env, nil)
	}
	escaped := map[string]bool{}
	for _, r := range runsA {
		for name := range r.escaped {
			escaped[name] = true
		}
	}
	nameOf := map[*minipy.Code]string{}
	for name, c := range bindings {
		nameOf[c] = name
	}
	for name, c := range bindings {
		env.retIv[name] = runsA[c].returnIv
		env.retNotFresh[name] = !runsA[c].returnMayFresh
	}
	// Parameter intervals: join pass-A argument intervals over every
	// resolved call site, module-wide. An escaped function can be called
	// from sites the analysis cannot see, so its parameters stay ⊤.
	// run() is host-called but takes no arguments, and the module body
	// has none either, so the host entry points need no special casing.
	for name, c := range bindings {
		if escaped[name] || c.NumParams == 0 {
			continue
		}
		joined := make([]ival, c.NumParams)
		for i := range joined {
			joined[i] = ivBottom
		}
		seen := false
		for _, r := range runsA {
			for _, cf := range r.calls {
				if cf.name != name || cf.argc != c.NumParams {
					continue
				}
				seen = true
				for i := 0; i < c.NumParams && i < len(cf.args); i++ {
					joined[i] = ivJoin(joined[i], cf.args[i])
				}
			}
		}
		if !seen {
			continue // never called: leave parameters ⊤
		}
		env.paramIv[name] = joined
	}

	// Pass B: call-site parameters plus pass-A callee facts produce the
	// final, narrower claims.
	runs := make(map[*minipy.Code]*absRun, len(codes))
	for _, c := range codes {
		runs[c] = runAbs(graphs[c], env, env.paramIv[nameOf[c]])
	}
	// Late escapes discovered in pass B (narrower states can still lose
	// provenance at joins): drop the affected functions' parameter claims
	// and redo their pass-B run with ⊤ parameters.
	for _, r := range runs {
		for name := range r.escaped {
			if !escaped[name] {
				escaped[name] = true
				if c := bindings[name]; c != nil && env.paramIv[name] != nil {
					delete(env.paramIv, name)
					runs[c] = runAbs(graphs[c], env, nil)
				}
			}
		}
	}

	// Expected-callee table for the escape checker.
	callee := map[*minipy.Code]map[int]*minipy.Code{}
	for c, r := range runs {
		for pc, cf := range r.calls {
			sub := bindings[cf.name]
			if sub == nil {
				continue
			}
			if callee[c] == nil {
				callee[c] = map[int]*minipy.Code{}
			}
			callee[c][pc] = sub
		}
	}

	recursive := findRecursion(codes, runs, callee)
	effects := closeEffects(codes, runs, direct, callee, recursive, graphs)

	m := &ModuleFacts{
		Module:      module,
		Runs:        runs,
		Bindings:    bindings,
		Effects:     effects,
		Callee:      callee,
		Recursive:   recursive,
		Determinism: auditDeterminism(direct, codes),
	}
	m.FuncBounds, m.Bound = computeStepBounds(m, graphs)
	return m
}

// auditDeterminism reproduces the PR 3 determinism audit from the
// syntactic scans: certified iff every global load resolves to a
// module-defined name or a deterministic builtin.
func auditDeterminism(direct map[*minipy.Code]*directEff, codes []*minipy.Code) Determinism {
	d := Determinism{Certified: true}
	builtins := map[string]bool{}
	unresolved := map[string]bool{}
	for _, c := range codes {
		de := direct[c]
		for name := range de.builtins {
			builtins[name] = true
		}
		for name := range de.unresolved {
			unresolved[name] = true
		}
		if de.usesIO {
			d.UsesIO = true
		}
	}
	d.Builtins = sortedKeys(builtins)
	if len(unresolved) > 0 {
		d.Certified = false
		d.UnresolvedGlobals = sortedKeys(unresolved)
	}
	return d
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// findRecursion marks code objects on a call-graph cycle (resolved edges
// only; unresolved calls are handled by the effect closure's completeness
// bit, not by recursion marking).
func findRecursion(codes []*minipy.Code, runs map[*minipy.Code]*absRun,
	callee map[*minipy.Code]map[int]*minipy.Code) map[*minipy.Code]bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*minipy.Code]int{}
	onCycle := map[*minipy.Code]bool{}
	var stack []*minipy.Code
	var visit func(c *minipy.Code)
	visit = func(c *minipy.Code) {
		color[c] = gray
		stack = append(stack, c)
		for _, sub := range callee[c] {
			switch color[sub] {
			case white:
				visit(sub)
			case gray:
				// Everything from sub to the top of the stack is on a cycle.
				for i := len(stack) - 1; i >= 0; i-- {
					onCycle[stack[i]] = true
					if stack[i] == sub {
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[c] = black
	}
	for _, c := range codes {
		if color[c] == white {
			visit(c)
		}
	}
	return onCycle
}

// directDiverge reports whether a code object has a back edge that is not
// a ForIter-headed loop. MiniPy iterators are all finite (range, list,
// tuple, str, dict), so ForIter loops terminate; every other back edge
// (while loops) may not.
func directDiverge(g *Graph) bool {
	for _, b := range g.Blocks {
		if !g.Reachable[b.ID] {
			continue
		}
		for _, s := range b.Succs {
			if !g.Dominates(s, b.ID) {
				continue
			}
			h := g.Blocks[s]
			if g.Code.Ops[h.End-1].Op != minipy.OpForIter {
				return true
			}
		}
	}
	return false
}

// closeEffects computes transitive effect summaries over the resolved call
// graph. Unresolved call sites void completeness and force every may-bit.
func closeEffects(codes []*minipy.Code, runs map[*minipy.Code]*absRun,
	direct map[*minipy.Code]*directEff,
	callee map[*minipy.Code]map[int]*minipy.Code,
	recursive map[*minipy.Code]bool,
	graphs map[*minipy.Code]*Graph) map[*minipy.Code]*EffectFacts {

	type acc struct {
		complete                                 bool
		reads, writes, builtins                  map[string]bool
		usesIO, mutHeap, mutArgs, raise, diverge bool
	}
	accs := map[*minipy.Code]*acc{}
	for _, c := range codes {
		r := runs[c]
		de := direct[c]
		a := &acc{
			complete: !r.callsUnknown,
			reads:    map[string]bool{},
			writes:   map[string]bool{},
			builtins: map[string]bool{},
			usesIO:   de.usesIO || r.usesIO,
			mutHeap:  r.mutatesNonFresh,
			raise:    r.mayRaise,
			diverge:  directDiverge(graphs[c]) || recursive[c],
		}
		// Reads: every global load that is not a resolved deterministic
		// builtin (stable function bindings and const globals included:
		// folding a call that reads any module global is refused, which
		// is what makes self-recursive calls self-refusing).
		for name := range de.loads {
			if de.builtins[name] {
				continue
			}
			a.reads[name] = true
		}
		for name := range de.writes {
			a.writes[name] = true
		}
		for name := range de.builtins {
			a.builtins[name] = true
		}
		if r.callsUnknown {
			a.raise, a.diverge, a.mutHeap, a.mutArgs = true, true, true, true
		}
		if a.mutHeap {
			// Receiver identity is lost at the summary level: mutating any
			// non-fresh object may mutate an argument.
			a.mutArgs = true
		}
		accs[c] = a
	}

	// Fixpoint union over resolved callees (monotone over finite sets;
	// bounded by codes × facts, with a defensive sweep cap).
	for sweep := 0; sweep < len(codes)+2; sweep++ {
		changed := false
		for _, c := range codes {
			a := accs[c]
			for _, sub := range callee[c] {
				sa := accs[sub]
				if sa == nil {
					continue
				}
				union := func(dst, src map[string]bool) {
					for k := range src {
						if !dst[k] {
							dst[k] = true
							changed = true
						}
					}
				}
				union(a.reads, sa.reads)
				union(a.writes, sa.writes)
				union(a.builtins, sa.builtins)
				orBit := func(dst *bool, src bool) {
					if src && !*dst {
						*dst = true
						changed = true
					}
				}
				orBit(&a.usesIO, sa.usesIO)
				orBit(&a.mutHeap, sa.mutHeap)
				orBit(&a.mutArgs, sa.mutArgs)
				orBit(&a.raise, sa.raise)
				orBit(&a.diverge, sa.diverge)
				if !sa.complete && a.complete {
					a.complete = false
					a.raise, a.diverge, a.mutHeap, a.mutArgs = true, true, true, true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	out := map[*minipy.Code]*EffectFacts{}
	for _, c := range codes {
		a := accs[c]
		eff := &EffectFacts{
			Complete:      a.complete,
			ReadsGlobals:  sortedKeys(a.reads),
			WritesGlobals: sortedKeys(a.writes),
			Builtins:      sortedKeys(a.builtins),
			UsesIO:        a.usesIO,
			MutatesHeap:   a.mutHeap,
			MayMutateArgs: a.mutArgs,
			MayRaise:      a.raise,
			MayDiverge:    a.diverge,
		}
		eff.Pure = eff.Complete && len(eff.WritesGlobals) == 0 &&
			!eff.UsesIO && !eff.MutatesHeap
		out[c] = eff
	}
	return out
}
