package analysis

import (
	"math"
	"strings"

	"repro/internal/minipy"
)

// This file is the fact-collecting abstract interpreter behind the
// interprocedural certificate (DESIGN.md §14). It is a sibling of the
// type-lattice interpreter in typeinfer.go but serves a different master:
// typeinfer emits diagnostics, while this engine derives *claims* — integer
// intervals, call-graph edges, freshness (escape) facts, and effect bits —
// that the optimizer consumes and the VM-level soundness checker verifies.
// Everything here errs toward ⊤: an imprecise claim is useless but sound;
// a precise wrong claim is a bug the property tests exist to catch.

// vclass is a coarse value classification — just enough structure to
// resolve method calls, drive iteration facts, and separate heap objects
// (which carry synthetic addresses the escape checker can observe) from
// scalars (which cannot escape in any checkable sense).
type vclass uint8

const (
	cAny vclass = iota
	cInt
	cFloat
	cBool
	cStr
	cNone
	cList
	cTuple
	cDict
	cRange
	cIter
	cFunc
	cClass
	cInst
)

// heapClass reports whether values of this class carry a synthetic heap
// address (minipy.AddrOf succeeds on them).
func heapClass(c vclass) bool {
	switch c {
	case cList, cTuple, cDict, cClass, cInst:
		return true
	}
	return false
}

// absv is the abstract value: interval + class + callable provenance +
// freshness + definite-assignment bit.
type absv struct {
	iv  ival
	cls vclass
	// fn is callable identity: "u:name" (stable module-level function
	// binding), "b:name" (builtin), "m:recv.method" (bound builtin
	// method). Empty = unknown callable or not a callable.
	fn string
	// recvFresh, for "m:" values, records that the receiver is definitely
	// fresh in this activation (mutating it is activation-local).
	recvFresh bool
	// mayFresh: the value may have been allocated during the current
	// activation. mustFresh: it definitely was (on every path).
	mayFresh  bool
	mustFresh bool
	// closure: the value is (or contains) a closure capturing this frame.
	closure bool
	// unbound: a local that may be unassigned (loading it may raise).
	unbound bool
	// elem/length describe iteration for cRange/cIter values: the element
	// interval and the remaining-iteration count.
	elem, length ival
}

var avTop = absv{iv: ivTop, cls: cAny, mayFresh: true, elem: ivTop, length: ivTop}

func avInt(iv ival) absv { return absv{iv: iv, cls: cInt, elem: ivTop, length: ivTop} }

func avScalar(c vclass) absv { return absv{iv: ivTop, cls: c, elem: ivTop, length: ivTop} }

// avFreshHeap is a newly allocated container/object: fresh on every path.
func avFreshHeap(c vclass) absv {
	return absv{iv: ivTop, cls: c, mayFresh: true, mustFresh: true, elem: ivTop, length: ivTop}
}

// constAbsv abstracts a constant-pool value. Constants are materialized at
// compile time, before any activation, so they are never fresh.
func constAbsv(v minipy.Value) absv {
	switch x := v.(type) {
	case minipy.Int:
		return avInt(ivConst(int64(x)))
	case minipy.Float:
		return avScalar(cFloat)
	case minipy.Bool:
		return avScalar(cBool)
	case minipy.NoneType:
		return avScalar(cNone)
	case minipy.Str:
		return avScalar(cStr)
	case *minipy.Tuple:
		return absv{iv: ivTop, cls: cTuple, elem: ivTop, length: ivTop}
	}
	return absv{iv: ivTop, cls: cAny, elem: ivTop, length: ivTop}
}

// avJoin merges two abstract values at a control-flow join. esc is invoked
// for any user-function provenance that is lost in the merge: once a
// function value's identity blurs, every later consumption is untrackable,
// so the conservative reading is "that function escaped".
func avJoin(a, b absv, esc func(fn string)) absv {
	out := absv{
		iv:        ivJoin(a.iv, b.iv),
		mayFresh:  a.mayFresh || b.mayFresh,
		mustFresh: a.mustFresh && b.mustFresh,
		closure:   a.closure || b.closure,
		unbound:   a.unbound || b.unbound,
		elem:      ivJoin(a.elem, b.elem),
		length:    ivJoin(a.length, b.length),
	}
	if a.cls == b.cls {
		out.cls = a.cls
	} else {
		out.cls = cAny
	}
	if a.fn == b.fn {
		out.fn = a.fn
		out.recvFresh = a.recvFresh && b.recvFresh
	} else {
		if esc != nil {
			if strings.HasPrefix(a.fn, "u:") {
				esc(a.fn[2:])
			}
			if strings.HasPrefix(b.fn, "u:") {
				esc(b.fn[2:])
			}
		}
		if a.closure || b.closure {
			out.closure = true
		}
	}
	return out
}

// astate is the abstract machine state at one program point.
type astate struct {
	stack  []absv
	locals []absv
	cells  []absv
}

func (s *astate) clone() *astate {
	c := &astate{
		stack:  append([]absv(nil), s.stack...),
		locals: append([]absv(nil), s.locals...),
		cells:  append([]absv(nil), s.cells...),
	}
	return c
}

// joinInto merges o into s (s is the accumulator). widen applies interval
// widening instead of plain join. Returns whether s changed.
func (s *astate) joinInto(o *astate, widen bool, esc func(string)) bool {
	changed := false
	merge := func(dst *absv, src absv) {
		old := *dst
		j := avJoin(old, src, esc)
		if widen {
			j.iv = ivWiden(old.iv, j.iv)
			j.elem = ivWiden(old.elem, j.elem)
			j.length = ivWiden(old.length, j.length)
		}
		if j != old {
			*dst = j
			changed = true
		}
	}
	// The verifier guarantees consistent stack depths per pc; align from
	// the top defensively if they ever disagree.
	if len(o.stack) < len(s.stack) {
		s.stack = s.stack[len(s.stack)-len(o.stack):]
		changed = true
	}
	off := len(o.stack) - len(s.stack)
	for i := range s.stack {
		merge(&s.stack[i], o.stack[off+i])
	}
	for i := range s.locals {
		merge(&s.locals[i], o.locals[i])
	}
	for i := range s.cells {
		merge(&s.cells[i], o.cells[i])
	}
	return changed
}

// callFact records one resolved direct call site.
type callFact struct {
	name string
	argc int
	args []ival
}

// absRun is the converged result of abstractly interpreting one code
// object.
type absRun struct {
	code *minipy.Code

	// params echoes the parameter intervals the run assumed (nil = ⊤).
	params []ival

	// claims[pc]: after the op at pc executes, the top of stack is a
	// minipy.Int within the interval. Only recorded for plain value-
	// producing ops (never control flow), so the VM checker can sample
	// the stack top unconditionally.
	claims map[int]ival

	// calls[pc]: resolved direct call at an OpCall site.
	calls map[int]callFact
	// callsUnknown: at least one call site's callee could not be resolved
	// (first-class value, class constructor, method on unknown receiver).
	callsUnknown bool
	// escaped: user functions whose values flowed somewhere other than a
	// direct call position in this code object.
	escaped map[string]bool

	// trips[pc]: the iteration-count interval of the OpForIter at pc
	// (ivTop when the iterable's length is unknown).
	trips map[int]ival

	divSites, divSafe int

	returnIv       ival
	returnMayFresh bool
	frameEscapes   bool

	mutatesNonFresh bool
	mayRaise        bool
	usesIO          bool
}

// absEnv is the module-level environment shared by every per-function run.
type absEnv struct {
	// bindings: stable module-level function bindings (exactly one
	// STORE_GLOBAL in the whole module, at the module-body def site).
	bindings map[string]*minipy.Code
	// consts: stable single-store constant globals (LOAD_CONST;
	// STORE_GLOBAL in the module body, never stored again).
	consts map[string]absv
	// defined: every STORE_GLOBAL name anywhere in the module.
	defined map[string]bool
	// builtins: the VM's deterministic builtin names.
	builtins map[string]bool
	// io: builtin names that perform IO.
	io map[string]bool
	// bindSites[code][pc]: the MakeFunction at pc is the binding def site
	// for the named global function.
	bindSites map[*minipy.Code]map[int]string
	// paramIv: per bound function, the join of argument intervals over
	// every resolved call site (pass B); nil values mean ⊤.
	paramIv map[string][]ival
	// retIv / retNotFresh: per bound function, the pass-A return interval
	// and the pass-A proof that it never returns a value allocated in its
	// own activation.
	retIv       map[string]ival
	retNotFresh map[string]bool
}

// entryState builds the frame-entry abstract state. Arguments are evaluated
// by the caller before the frame exists, so parameters start not-fresh;
// non-parameter locals start possibly-unbound; cells are shared with
// closures and stay ⊤.
func entryState(code *minipy.Code, params []ival) *astate {
	st := &astate{
		locals: make([]absv, len(code.LocalNames)),
		cells:  make([]absv, code.NumCells()),
	}
	for i := range st.locals {
		if i < code.NumParams {
			// Arguments are evaluated in the caller's activation, so they
			// are never fresh here; ints are scalars regardless.
			v := avTop
			v.mayFresh = false
			if params != nil && i < len(params) && params[i].isInt() {
				v = avInt(params[i])
			}
			st.locals[i] = v
		} else {
			v := avTop
			v.unbound = true
			v.mayFresh = false
			st.locals[i] = v
		}
	}
	for i := range st.cells {
		st.cells[i] = avTop
	}
	return st
}

// runAbs interprets one code object to a fixpoint (with widening), then
// narrows, then does one recording pass collecting the facts.
func runAbs(g *Graph, env *absEnv, params []ival) *absRun {
	code := g.Code
	r := &absRun{
		code:    code,
		params:  params,
		claims:  map[int]ival{},
		calls:   map[int]callFact{},
		escaped: map[string]bool{},
		trips:   map[int]ival{},
		// returnIv starts ⊥ and joins every OpReturn's value.
		returnIv: ivBottom,
	}
	esc := func(fn string) { r.escaped[fn] = true }

	nb := len(g.Blocks)
	in := make([]*astate, nb)
	visits := make([]int, nb)
	entry := g.RPO[0]
	in[entry] = entryState(code, params)

	const widenAfter = 4
	var worklist []int
	inList := make([]bool, nb)
	push := func(b int) {
		if !inList[b] {
			inList[b] = true
			worklist = append(worklist, b)
		}
	}
	push(entry)

	propagate := func(target int, st *astate) {
		if in[target] == nil {
			in[target] = st.clone()
			visits[target]++
			push(target)
			return
		}
		if in[target].joinInto(st, visits[target] >= widenAfter, esc) {
			visits[target]++
			push(target)
		}
	}

	for len(worklist) > 0 {
		b := worklist[0]
		worklist = worklist[1:]
		inList[b] = false
		st := in[b].clone()
		r.transferBlock(g, env, b, st, false, propagate)
	}

	// Narrowing: two decreasing sweeps from the post-widening fixpoint.
	// Each sweep computes F(in) with every block transferred from the OLD
	// converged state (Jacobi iteration): since in ⊒ F(in) ⊒ lfp(F) after
	// the ascending phase, replacing in with F(in) recovers precision the
	// widening threw away while staying sound. Transferring from the
	// partially-updated new states instead would drop back-edge
	// contributions at loop headers — analyzing the loop as if it ran
	// once — which the soundness property tests catch immediately.
	for sweep := 0; sweep < 2; sweep++ {
		next := make([]*astate, nb)
		next[entry] = entryState(code, params)
		collect := func(target int, st *astate) {
			if next[target] == nil {
				next[target] = st.clone()
			} else {
				next[target].joinInto(st, false, esc)
			}
		}
		for _, b := range g.RPO {
			if in[b] == nil {
				continue
			}
			r.transferBlock(g, env, b, in[b].clone(), false, collect)
		}
		for b := range next {
			if next[b] != nil {
				in[b] = next[b]
			}
		}
	}

	// Recording pass over the converged states.
	for _, b := range g.RPO {
		if in[b] == nil {
			continue
		}
		r.transferBlock(g, env, b, in[b].clone(), true, func(int, *astate) {})
	}
	if r.returnIv.k == ivBot {
		r.returnIv = ivTop
	}
	return r
}

// transferBlock interprets one basic block from state st and feeds each
// successor's entry state to emit. record enables fact collection (final
// pass only).
func (r *absRun) transferBlock(g *Graph, env *absEnv, bid int, st *astate,
	record bool, emit func(target int, st *astate)) {
	code := g.Code
	b := g.Blocks[bid]
	last := b.End - 1
	bodyEnd := b.End
	if isTerminator(code, last) {
		bodyEnd = last
	}
	for pc := b.Start; pc < bodyEnd; pc++ {
		r.step(env, st, pc, record)
	}
	if bodyEnd == b.End {
		// Fallthrough block: no terminator, single successor.
		emit(g.BlockOf[b.End], st)
		return
	}

	ins := code.Ops[last]
	arg := int(ins.Arg)
	popN := func(s *astate, n int) {
		if n > len(s.stack) {
			n = len(s.stack)
		}
		s.stack = s.stack[:len(s.stack)-n]
	}
	top := func(s *astate) absv {
		if len(s.stack) == 0 {
			return avTop
		}
		return s.stack[len(s.stack)-1]
	}

	switch ins.Op {
	case minipy.OpReturn:
		v := top(st)
		if record {
			r.returnIv = ivJoin(r.returnIv, v.iv)
			if v.mayFresh && (heapClass(v.cls) || v.cls == cAny) {
				r.returnMayFresh = true
			}
			r.consume(v)
		}
	case minipy.OpJump:
		emit(g.BlockOf[arg], st)
	case minipy.OpJumpIfFalse, minipy.OpJumpIfTrue:
		popN(st, 1)
		emit(g.BlockOf[arg], st)
		if arg != last+1 {
			emit(g.BlockOf[last+1], st)
		}
	case minipy.OpJumpIfFalseKeep, minipy.OpJumpIfTrueKeep:
		// Jump path keeps the value; fall path pops it.
		emit(g.BlockOf[arg], st)
		if arg != last+1 {
			fall := st.clone()
			popN(fall, 1)
			emit(g.BlockOf[last+1], fall)
		}
	case minipy.OpForIter:
		iter := top(st)
		if record {
			old, ok := r.trips[last]
			if !ok {
				old = ivBottom
			}
			r.trips[last] = ivJoin(old, iter.length)
		}
		exit := st.clone()
		popN(exit, 1)
		emit(g.BlockOf[arg], exit)
		if arg != last+1 {
			loop := st.clone()
			el := avTop
			if iter.elem.isInt() {
				el = avInt(iter.elem)
			}
			loop.stack = append(loop.stack, el)
			emit(g.BlockOf[last+1], loop)
		}
	case minipy.OpBinaryJumpIfFalse:
		bop := minipy.BinOpCode(arg & 0xF)
		target := arg >> 4
		if record && isDivOrMod(bop) {
			n := len(st.stack)
			if n >= 2 {
				r.noteDiv(st.stack[n-1])
			}
		}
		popN(st, 2)
		emit(g.BlockOf[target], st)
		if target != last+1 {
			emit(g.BlockOf[last+1], st)
		}
	default:
		// isTerminator and this switch must stay in sync.
		emit(g.BlockOf[b.End], st)
	}
}

func isDivOrMod(op minipy.BinOpCode) bool {
	return op == minipy.BinDiv || op == minipy.BinFloorDiv || op == minipy.BinMod
}

func isCompare(op minipy.BinOpCode) bool {
	switch op {
	case minipy.BinEq, minipy.BinNe, minipy.BinLt, minipy.BinLe, minipy.BinGt, minipy.BinGe:
		return true
	}
	return false
}

// noteDiv accounts one division/modulo site and whether the divisor is a
// proven non-zero int.
func (r *absRun) noteDiv(divisor absv) {
	r.divSites++
	if divisor.iv.excludesZero() {
		r.divSafe++
	}
}

// consume records the escape-relevant consequences of a value reaching an
// escape sink (stored beyond the frame, returned, passed to a call, built
// into a container).
func (r *absRun) consume(v absv) {
	if strings.HasPrefix(v.fn, "u:") {
		r.escaped[v.fn[2:]] = true
	}
	if v.closure {
		r.frameEscapes = true
	}
}

// claim records an interval claim for the value the op at pc leaves on top
// of the stack, when it is a proven int.
func (r *absRun) claim(pc int, v absv, record bool) {
	if record && v.iv.isInt() {
		r.claims[pc] = v.iv
	}
}

// step interprets one non-terminator op, mutating st.
func (r *absRun) step(env *absEnv, st *astate, pc int, record bool) {
	code := r.code
	ins := code.Ops[pc]
	arg := int(ins.Arg)

	push := func(v absv) { st.stack = append(st.stack, v) }
	pop := func() absv {
		if len(st.stack) == 0 {
			return avTop
		}
		v := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		return v
	}
	raise := func() {
		if record {
			r.mayRaise = true
		}
	}

	switch ins.Op {
	case minipy.OpNop:

	case minipy.OpLoadConst:
		v := constAbsv(code.Consts[arg])
		push(v)
		r.claim(pc, v, record)

	case minipy.OpLoadLocal:
		v := st.locals[arg]
		if v.unbound {
			raise()
		}
		v.unbound = false
		push(v)
		r.claim(pc, v, record)

	case minipy.OpLoadLocalPair:
		a := st.locals[arg&0xFFF]
		b := st.locals[arg>>12]
		if a.unbound || b.unbound {
			raise()
		}
		a.unbound, b.unbound = false, false
		push(a)
		push(b)
		r.claim(pc, b, record)

	case minipy.OpLoadLocalConst:
		a := st.locals[arg&0xFFF]
		if a.unbound {
			raise()
		}
		a.unbound = false
		k := constAbsv(code.Consts[arg>>12])
		push(a)
		push(k)
		r.claim(pc, k, record)

	case minipy.OpStoreLocal:
		st.locals[arg] = pop()

	case minipy.OpLoadGlobal:
		v := r.resolveGlobalAbs(env, code.Names[arg], record)
		push(v)
		r.claim(pc, v, record)

	case minipy.OpStoreGlobal:
		v := pop()
		name := code.Names[arg]
		// The def-site store of a bound function is the binding itself,
		// not an escape.
		if record && v.fn != "u:"+name {
			r.consume(v)
		}

	case minipy.OpLoadCell:
		v := st.cells[arg]
		raise() // a cell may be observably unassigned; stay conservative
		push(v)

	case minipy.OpStoreCell:
		v := pop()
		if record {
			r.consume(v) // cells are shared with closures: treat as escape
		}
		st.cells[arg] = v

	case minipy.OpPushCell:
		push(absv{iv: ivTop, cls: cAny, mayFresh: true, elem: ivTop, length: ivTop})

	case minipy.OpLoadAttr:
		target := pop()
		push(r.loadAttr(target, code.Names[arg], record))

	case minipy.OpStoreAttr:
		// Value on top, target below (mirrors typeinfer).
		v := pop()
		target := pop()
		if record {
			r.consume(v)
			if !target.mustFresh {
				r.mutatesNonFresh = true
			}
		}
		if target.cls != cInst {
			raise()
		}

	case minipy.OpBinary:
		bop := minipy.BinOpCode(ins.Arg)
		b := pop()
		a := pop()
		v := r.binaryAbs(bop, a, b, record)
		push(v)
		r.claim(pc, v, record)

	case minipy.OpUnary:
		a := pop()
		switch minipy.UnOpCode(ins.Arg) {
		case minipy.UnNot:
			push(avScalar(cBool))
		case minipy.UnNeg, minipy.UnPos:
			if a.iv.isInt() {
				v := avInt(negInterval(a.iv, minipy.UnOpCode(ins.Arg)))
				push(v)
				r.claim(pc, v, record)
			} else {
				if a.cls != cFloat && a.cls != cInt && a.cls != cBool {
					raise()
				}
				if a.cls == cFloat {
					push(avScalar(cFloat))
				} else {
					push(avTop)
				}
			}
		default:
			raise()
			push(avTop)
		}

	case minipy.OpCall:
		r.callAbs(env, st, pc, arg, record)

	case minipy.OpPop:
		pop()

	case minipy.OpDup:
		v := pop()
		push(v)
		push(v)

	case minipy.OpDup2:
		b := pop()
		a := pop()
		push(a)
		push(b)
		push(a)
		push(b)

	case minipy.OpBuildList, minipy.OpBuildTuple:
		for i := 0; i < arg; i++ {
			v := pop()
			if record {
				r.consume(v)
			}
		}
		if ins.Op == minipy.OpBuildList {
			push(avFreshHeap(cList))
		} else {
			push(avFreshHeap(cTuple))
		}

	case minipy.OpBuildDict:
		for i := 0; i < 2*arg; i++ {
			v := pop()
			if record {
				r.consume(v)
			}
		}
		push(avFreshHeap(cDict))

	case minipy.OpBuildClass:
		for i := 0; i < 2*arg+2; i++ {
			v := pop()
			if record {
				r.consume(v)
			}
		}
		raise()
		push(avFreshHeap(cClass))

	case minipy.OpIndexGet:
		pop()
		target := pop()
		raise()
		v := avTop
		if target.cls == cStr {
			v = avScalar(cStr)
		}
		push(v)

	case minipy.OpIndexSet:
		v := pop()
		pop()
		target := pop()
		if record {
			r.consume(v)
			if !target.mustFresh {
				r.mutatesNonFresh = true
			}
		}
		raise()

	case minipy.OpSliceGet:
		pop()
		pop()
		target := pop()
		raise()
		switch target.cls {
		case cList:
			push(avFreshHeap(cList))
		case cStr:
			push(avScalar(cStr))
		case cTuple:
			push(avFreshHeap(cTuple))
		default:
			push(avTop)
		}

	case minipy.OpDelIndex:
		pop()
		target := pop()
		if record && !target.mustFresh {
			r.mutatesNonFresh = true
		}
		raise()

	case minipy.OpGetIter:
		target := pop()
		it := absv{iv: ivTop, cls: cIter, elem: ivTop, length: ivTop,
			mayFresh: true}
		switch target.cls {
		case cRange:
			it.elem = target.elem
			it.length = target.length
		case cList, cTuple, cDict, cStr:
			// Finite container: element/length unknown, termination known.
		default:
			raise()
		}
		push(it)

	case minipy.OpMakeFunction:
		sub := code.Consts[arg].(*minipy.Code)
		for i := 0; i < len(sub.FreeNames); i++ {
			pop()
		}
		v := absv{iv: ivTop, cls: cFunc, mayFresh: true, elem: ivTop, length: ivTop}
		if len(sub.FreeNames) > 0 {
			v.closure = true
		}
		if sites := env.bindSites[code]; sites != nil {
			if name, ok := sites[pc]; ok {
				v.fn = "u:" + name
			}
		}
		push(v)

	case minipy.OpUnpack:
		src := pop()
		raise()
		el := avTop
		if src.cls == cRange && src.elem.isInt() {
			el = avInt(src.elem)
		}
		for i := 0; i < arg; i++ {
			push(el)
		}

	default:
		// Unknown op: clobber everything reachable and stay sound.
		raise()
		for i := range st.stack {
			st.stack[i] = avTop
		}
		for i := range st.locals {
			st.locals[i] = avTop
		}
	}
}

func negInterval(a ival, op minipy.UnOpCode) ival {
	if op == minipy.UnPos {
		return a
	}
	if a.lo == math.MinInt64 {
		return ivFullInt
	}
	return ival{k: ivInt, lo: -a.hi, hi: -a.lo}
}

// resolveGlobalAbs abstracts a LOAD_GLOBAL result from the module
// environment.
func (r *absRun) resolveGlobalAbs(env *absEnv, name string, record bool) absv {
	if sub, ok := env.bindings[name]; ok {
		_ = sub
		return absv{iv: ivTop, cls: cFunc, fn: "u:" + name, elem: ivTop, length: ivTop}
	}
	if v, ok := env.consts[name]; ok {
		return v
	}
	if env.defined[name] {
		// Multi-store or nested-store global: resolvable, value unknown,
		// possibly allocated during the current activation.
		return avTop
	}
	if env.builtins[name] {
		if name == "pi" {
			return avScalar(cFloat)
		}
		return absv{iv: ivTop, cls: cFunc, fn: "b:" + name, elem: ivTop, length: ivTop}
	}
	if record {
		r.mayRaise = true // unresolved name: NameError at runtime
	}
	return avTop
}

// loadAttr models vm/attr.go: method lookups on builtin container types
// resolve to bound methods; everything else is unknown.
func (r *absRun) loadAttr(target absv, name string, record bool) absv {
	var recv string
	switch target.cls {
	case cList:
		recv = "list"
	case cDict:
		recv = "dict"
	case cStr:
		recv = "str"
	default:
		if record {
			r.mayRaise = true
		}
		return avTop
	}
	key := recv + "." + name
	if _, ok := methodReturn[key]; ok {
		return absv{iv: ivTop, cls: cFunc, fn: "m:" + key,
			recvFresh: target.mustFresh, elem: ivTop, length: ivTop}
	}
	if record {
		r.mayRaise = true
	}
	return avTop
}

// binaryAbs is the OpBinary transfer function.
func (r *absRun) binaryAbs(bop minipy.BinOpCode, a, b absv, record bool) absv {
	if record && isDivOrMod(bop) {
		r.noteDiv(b)
	}
	if isCompare(bop) {
		if record && !comparable(a, b) {
			r.mayRaise = true
		}
		return avScalar(cBool)
	}
	if iv, mayRaise, ok := ivBinary(bop, a.iv, b.iv); ok {
		if record && mayRaise {
			r.mayRaise = true
		}
		return avInt(iv)
	}
	// Non-int result: classify coarsely.
	numeric := func(v absv) bool { return v.cls == cInt || v.cls == cFloat || v.iv.isInt() }
	switch {
	case bop == minipy.BinAdd && a.cls == cList && b.cls == cList:
		return avFreshHeap(cList)
	case bop == minipy.BinAdd && a.cls == cStr && b.cls == cStr:
		return avScalar(cStr)
	case numeric(a) && numeric(b):
		if record && (isDivOrMod(bop) || bop == minipy.BinPow) {
			// Float division/modulo by zero and int**negative both raise.
			r.mayRaise = true
		}
		if a.cls == cFloat || b.cls == cFloat {
			return avScalar(cFloat)
		}
		if record {
			r.mayRaise = true
		}
		return avTop
	default:
		if record {
			r.mayRaise = true
		}
		return avTop
	}
}

// comparable reports whether a comparison between the two abstract values
// is statically known not to raise.
func comparable(a, b absv) bool {
	num := func(v absv) bool { return v.cls == cInt || v.cls == cFloat || v.cls == cBool || v.iv.isInt() }
	if num(a) && num(b) {
		return true
	}
	return a.cls == b.cls && a.cls != cAny && a.cls != cInst && a.cls != cClass
}

// callAbs models OpCall: resolves the callee from its provenance, records
// call-graph edges and fold candidates, and classifies effects.
func (r *absRun) callAbs(env *absEnv, st *astate, pc, argc int, record bool) {
	n := len(st.stack)
	if n < argc+1 {
		st.stack = st.stack[:0]
		st.stack = append(st.stack, avTop)
		if record {
			r.mayRaise = true
			r.callsUnknown = true
		}
		return
	}
	calleeIdx := n - argc - 1
	callee := st.stack[calleeIdx]
	args := append([]absv(nil), st.stack[calleeIdx+1:]...)
	st.stack = st.stack[:calleeIdx]

	if record {
		for _, a := range args {
			r.consume(a) // a callee may store any argument anywhere
		}
	}

	res := avTop
	switch {
	case strings.HasPrefix(callee.fn, "u:"):
		name := callee.fn[2:]
		sub := env.bindings[name]
		if sub != nil && argc == sub.NumParams {
			if record {
				ivs := make([]ival, len(args))
				for i, a := range args {
					ivs[i] = a.iv
				}
				r.calls[pc] = callFact{name: name, argc: argc, args: ivs}
			}
			ret, ok := env.retIv[name]
			if !ok {
				ret = ivTop
			}
			res = avTop
			if ret.isInt() {
				res = avInt(ret)
			}
			res.mayFresh = !env.retNotFresh[name]
		} else {
			// Arity mismatch (or unknown binding): raises before the callee
			// body runs, so no callee effects to account.
			if record {
				r.mayRaise = true
			}
		}
	case strings.HasPrefix(callee.fn, "b:"):
		name := callee.fn[2:]
		res = builtinCallAbs(name, args)
		if record {
			r.mayRaise = true // builtins validate arity/types at runtime
			if env.io[name] {
				r.usesIO = true
			}
		}
	case strings.HasPrefix(callee.fn, "m:"):
		res = r.methodCallAbs(callee, record)
	default:
		if record {
			r.callsUnknown = true
			r.mayRaise = true
		}
	}
	st.stack = append(st.stack, res)
	r.claim(pc, res, record)
}

// builtinCallAbs models the deterministic builtins' return values.
func builtinCallAbs(name string, args []absv) absv {
	switch name {
	case "range":
		return rangeAbs(args)
	case "len":
		return avInt(ivRange(0, math.MaxInt64))
	case "abs":
		if len(args) == 1 && args[0].iv.isInt() {
			a := args[0].iv
			if a.lo == math.MinInt64 {
				return avInt(ivFullInt)
			}
			lo := int64(0)
			if a.lo > 0 {
				lo = a.lo
			} else if a.hi < 0 {
				lo = -a.hi
			}
			return avInt(ivRange(lo, max64(abs64(a.lo), abs64(a.hi))))
		}
		return avTop
	case "min", "max":
		out := ivBottom
		for _, a := range args {
			if !a.iv.isInt() {
				return avTop
			}
			out = ivJoin(out, a.iv)
		}
		if out.isInt() {
			return avInt(out)
		}
		return avTop
	case "int", "floor", "ceil", "hash":
		return avInt(ivFullInt)
	case "ord":
		return avInt(ivRange(0, 0x10FFFF))
	case "float", "sqrt", "sin", "cos", "tan", "exp", "log", "atan2":
		return avScalar(cFloat)
	case "str", "repr", "chr", "type_name":
		return avScalar(cStr)
	case "bool", "isinstance":
		return avScalar(cBool)
	case "list", "sorted":
		return avFreshHeap(cList)
	case "tuple":
		return avFreshHeap(cTuple)
	case "dict":
		return avFreshHeap(cDict)
	case "print":
		return avScalar(cNone)
	}
	return avTop
}

func abs64(v int64) int64 {
	if v == math.MinInt64 {
		return math.MaxInt64
	}
	if v < 0 {
		return -v
	}
	return v
}

// rangeAbs models range(): element interval and iteration count.
func rangeAbs(args []absv) absv {
	out := absv{iv: ivTop, cls: cRange, elem: ivTop, length: ivTop}
	var start, stop, step ival
	switch len(args) {
	case 1:
		start, stop, step = ivConst(0), args[0].iv, ivConst(1)
	case 2:
		start, stop, step = args[0].iv, args[1].iv, ivConst(1)
	case 3:
		start, stop, step = args[0].iv, args[1].iv, args[2].iv
	default:
		return out
	}
	if !start.isInt() || !stop.isInt() {
		return out
	}
	switch {
	case step.isConst() && step.lo > 0:
		if stop.hi <= start.lo {
			out.elem = ivBottom // loop body never runs
			out.length = ivConst(0)
			return out
		}
		out.elem = ivRange(start.lo, stop.hi-1)
		if span, ok := subOv(stop.hi, start.lo); ok {
			out.length = ivRange(0, (span+step.lo-1)/step.lo)
		} else {
			out.length = ivRange(0, math.MaxInt64)
		}
	case step.isConst() && step.lo < 0:
		if stop.lo >= start.hi {
			out.elem = ivBottom
			out.length = ivConst(0)
			return out
		}
		out.elem = ivRange(stop.lo+1, start.hi)
		if span, ok := subOv(start.hi, stop.lo); ok {
			out.length = ivRange(0, (span+(-step.lo)-1)/(-step.lo))
		} else {
			out.length = ivRange(0, math.MaxInt64)
		}
	default:
		// Unknown step: elements stay inside the hull of the endpoints,
		// but the count is unknown (and step=0 raises at runtime).
		out.elem = ivJoin(start, stop)
		out.length = ivTop
	}
	return out
}

// methodCallAbs models bound builtin-method calls, accounting receiver
// mutation when the receiver is not provably fresh.
func (r *absRun) methodCallAbs(callee absv, record bool) absv {
	key := callee.fn[2:]
	switch key {
	case "list.append", "list.extend", "list.insert", "list.remove",
		"list.reverse", "list.sort", "list.pop", "dict.pop":
		if record && !callee.recvFresh {
			r.mutatesNonFresh = true
		}
	}
	if record {
		r.mayRaise = true
	}
	switch key {
	case "list.index", "list.count", "str.find":
		return avInt(ivFullInt)
	case "dict.keys", "dict.values", "dict.items", "str.split":
		return avFreshHeap(cList)
	case "str.join", "str.upper", "str.lower", "str.strip", "str.replace":
		return avScalar(cStr)
	case "str.startswith", "str.endswith":
		return avScalar(cBool)
	case "list.append", "list.extend", "list.insert", "list.remove",
		"list.reverse", "list.sort":
		return avScalar(cNone)
	}
	return avTop
}
