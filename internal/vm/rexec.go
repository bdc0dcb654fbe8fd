package vm

import (
	"repro/internal/minipy"
)

// This file is the register tier: the only production executor. Stack
// bytecode — the compiler's IR — is lowered 1:1 to three-address register
// form (minipy.LowerToRegister), values live in tagged word-sized register
// slots (rval.go), and hot sites quicken in place after observing a
// monomorphic operand shape. The lowering preserves pcs, cost keys
// (RInstr.Src), and immediates (RInstr.Arg), so every simulated counter,
// probe event, and tracer record is bit-identical to what the stack
// interpreter (exec.go, the test reference) produces — the differential
// tests and benchgate -equivalence on the committed baseline enforce
// this. The speedup is purely host-level: no operand-stack slice traffic,
// no boxing of scalar intermediates, and one register file replaces the
// stack+locals pair.

// regTemplate is the immutable register form of one code object: the
// verified lowering plus pre-tagged constants. Templates never mutate
// (VerifyRegister rejects quickened opcodes in them), so every Interp
// shares them and quickens a private copy of the op array (codeState.rops).
type regTemplate struct {
	rc      *minipy.RCode
	rconsts []rslot
}

// lowerTemplate lowers code to register form (move-elided for ablation A9)
// and verifies it. Unverified register code never executes: a failure is
// an error, never a switch to another executor.
func lowerTemplate(code *minipy.Code, elide bool) (*regTemplate, error) {
	rc, err := minipy.LowerToRegister(code)
	if err != nil {
		return nil, err
	}
	if elide {
		rc = minipy.ElideMoves(rc)
	}
	if err := minipy.VerifyRegister(rc); err != nil {
		return nil, err
	}
	rconsts := make([]rslot, len(code.Consts))
	for i, c := range code.Consts {
		rconsts[i] = runbox(c)
	}
	return &regTemplate{rc: rc, rconsts: rconsts}, nil
}

// Program is a module compiled for the register tier: the module code and
// the verified templates of it and every nested code object. It is
// immutable, so any number of Interps may run it concurrently, and its
// templates live exactly as long as it does.
type Program struct {
	Code      *minipy.Code
	templates map[*minipy.Code]*regTemplate
}

// Prepare lowers and verifies code and every nested code object. A failure
// is a compile error: no Interp could run the program.
func Prepare(code *minipy.Code) (*Program, error) {
	p := &Program{Code: code, templates: map[*minipy.Code]*regTemplate{}}
	for todo := []*minipy.Code{code}; len(todo) > 0; {
		c := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		rt, err := lowerTemplate(c, false)
		if err != nil {
			return nil, err
		}
		p.templates[c] = rt
		for _, k := range c.Consts {
			if sub, ok := k.(*minipy.Code); ok {
				todo = append(todo, sub)
			}
		}
	}
	return p, nil
}

// regCode resolves (lazily creating) the register state for code on this
// Interp: the running Program's template, else one lowered on first use.
func (in *Interp) regCode(code *minipy.Code, st *codeState) (*regTemplate, error) {
	if st.rt != nil {
		return st.rt, nil
	}
	rt := in.templates[code]
	if rt == nil {
		var err error
		if rt, err = lowerTemplate(code, in.regElide); err != nil {
			return nil, err
		}
	}
	st.rt = rt
	// Copy-on-quicken: share the immutable template op stream until the
	// first in-place rewrite. Code that never quickens (module bodies,
	// straight-line glue) never pays for a private copy.
	st.rops = rt.rc.Ops
	return rt, nil
}

// quickenOp rewrites the opcode at pc on this Interp's private op stream,
// cloning the shared template on first write. It always writes through
// st.rops — a frame holding a stale pre-clone slice must never write the
// template, which other Interps execute concurrently. Returns the current
// private stream so the caller can refresh its hoisted local.
func (st *codeState) quickenOp(pc int, op minipy.ROp) []minipy.RInstr {
	if !st.ropsOwned {
		st.rops = append([]minipy.RInstr(nil), st.rt.rc.Ops...)
		st.ropsOwned = true
	}
	st.rops[pc].Op = op
	return st.rops
}

// callFunctionReg invokes a *Function in the register tier with args
// already in tagged form — the RopCall fast path, which never boxes scalar
// arguments. Arity errors surface before the depth guard, matching call().
func (in *Interp) callFunctionReg(fn *minipy.Function, args []rslot) (rslot, error) {
	code := fn.Code
	if len(args) != code.NumParams {
		return rslot{}, typeErr("%s() takes %d arguments (%d given)",
			code.Name, code.NumParams, len(args))
	}
	st := in.state(code)
	rt, err := in.regCode(code, st)
	if err != nil {
		return rslot{}, err
	}
	regs := in.getRegs(rt.rc.NumRegs)
	copy(regs, args)
	var cells []*minipy.Cell
	if n := code.NumCells(); n > 0 {
		cells = make([]*minipy.Cell, n)
		for i, slot := range code.CellLocals {
			cells[i] = &minipy.Cell{V: rbox(&regs[slot])}
		}
		copy(cells[len(code.CellLocals):], fn.Free)
	}
	ret, err := in.runFrameReg(code, rt, st, regs, cells)
	in.putRegs(regs)
	return ret, err
}

// callFunctionRegBoxed is the boxed-argument entry into the register tier,
// used by call() for external CallGlobal entries and for callables invoked
// from builtins.
func (in *Interp) callFunctionRegBoxed(fn *minipy.Function, args []minipy.Value) (minipy.Value, error) {
	buf := in.getRegs(len(args))
	for i, a := range args {
		buf[i] = runbox(a)
	}
	ret, err := in.callFunctionReg(fn, buf)
	in.putRegs(buf)
	return rbox(&ret), err
}

// callBoundReg prepends the receiver and dispatches a bound-method call
// through the register fast path.
func (in *Interp) callBoundReg(bm *minipy.BoundMethod, args []rslot) (rslot, error) {
	buf := in.getRegs(len(args) + 1)
	buf[0] = runbox(bm.Recv)
	copy(buf[1:], args)
	ret, err := in.callFunctionReg(bm.Fn, buf)
	in.putRegs(buf)
	return ret, err
}

// runFrameReg executes one register-tier activation: depth guard, tracer
// frame events, then the dispatch loop. The register file is owned (pooled)
// by the caller.
func (in *Interp) runFrameReg(code *minipy.Code, rt *regTemplate, st *codeState,
	regs []rslot, cells []*minipy.Cell) (rslot, error) {
	in.depth++
	if in.depth > in.maxDepth {
		in.depth--
		return rslot{}, &RuntimeError{Kind: "RecursionError", Msg: "maximum recursion depth exceeded"}
	}
	defer func() { in.depth-- }()
	if in.tracer != nil {
		in.tracer.OnEnter(code)
		defer in.tracer.OnExit(code)
	}
	return in.regLoop(code, rt, st, regs, cells)
}

// intBinFast computes the inline int ⊙ int subset into dst, reporting
// whether the pair was handled. The subset — and its sign guards on
// floor-division and modulo — is exactly the stack tier's inline fast path,
// so the produced values are identical to in.binary's; unhandled shapes
// (true division, power, negative floordiv/mod, containment) take the
// generic path in both tiers. int64 overflow wraps, matching minipy.Int.
// benchlint:hotpath
func intBinFast(dst *rslot, bop minipy.BinOpCode, x, y int64) bool {
	switch bop {
	case minipy.BinAdd:
		rsetInt(dst, x+y)
	case minipy.BinSub:
		rsetInt(dst, x-y)
	case minipy.BinMul:
		rsetInt(dst, x*y)
	case minipy.BinFloorDiv:
		if x < 0 || y <= 0 {
			return false
		}
		rsetInt(dst, x/y)
	case minipy.BinMod:
		if x < 0 || y <= 0 {
			return false
		}
		rsetInt(dst, x%y)
	case minipy.BinLt:
		rsetBool(dst, x < y)
	case minipy.BinGt:
		rsetBool(dst, x > y)
	case minipy.BinLe:
		rsetBool(dst, x <= y)
	case minipy.BinGe:
		rsetBool(dst, x >= y)
	case minipy.BinEq:
		rsetBool(dst, x == y)
	case minipy.BinNe:
		rsetBool(dst, x != y)
	default:
		return false
	}
	return true
}

// floatBinFast computes the inline float ⊙ float subset into dst. The
// arithmetic ops mirror floatBinary exactly; the comparisons mirror the
// ValueLess/ValueEqual routes in binary() — note Le is !(y<x) and Ge is
// !(x<y), which is what the generic path computes (identical for ordered
// operands AND for NaN). Division and modulo keep their zero checks in the
// generic path and are never fast-pathed.
// benchlint:hotpath
func floatBinFast(dst *rslot, bop minipy.BinOpCode, x, y float64) bool {
	switch bop {
	case minipy.BinAdd:
		rsetFloat(dst, x+y)
	case minipy.BinSub:
		rsetFloat(dst, x-y)
	case minipy.BinMul:
		rsetFloat(dst, x*y)
	case minipy.BinLt:
		rsetBool(dst, x < y)
	case minipy.BinGt:
		rsetBool(dst, y < x)
	case minipy.BinLe:
		rsetBool(dst, !(y < x))
	case minipy.BinGe:
		rsetBool(dst, !(x < y))
	case minipy.BinEq:
		rsetBool(dst, x == y)
	case minipy.BinNe:
		rsetBool(dst, x != y)
	default:
		return false
	}
	return true
}

// regBinaryGeneric boxes the operands and routes through the shared binary
// helper — identical values and errors to the stack tier's slow path.
func (in *Interp) regBinaryGeneric(bop minipy.BinOpCode, a, b, dst *rslot) error {
	v, err := in.binary(bop, rbox(a), rbox(b))
	if err != nil {
		return err
	}
	rsetVal(dst, v)
	return nil
}

// regIndexGet is the RopIndexGet fast path for a tagged integer (or bool)
// index into a List, Tuple, or Str: the index stays an unboxed word instead
// of round-tripping through minipy.IntValue solely for seqIndex to unbox it
// again. Returns handled=false for every other target/index shape — the
// caller then falls back to the generic boxed indexGet. The simulated
// stream is identical to indexGet's: same memAccess address and order
// (none for Str), same error identities from seqIndexInt.
// benchlint:hotpath
func (in *Interp) regIndexGet(a, b, dst *rslot) (bool, error) {
	if a.tag != tagRef || (b.tag != tagInt && b.tag != tagBool) {
		return false, nil
	}
	switch t := a.ref.(type) {
	case *minipy.List:
		i, err := seqIndexInt(b.num, len(t.Items))
		if err != nil {
			return true, err
		}
		in.memAccess(t.Addr+uint64(i)*8, false)
		rsetVal(dst, t.Items[i])
		return true, nil
	case *minipy.Tuple:
		i, err := seqIndexInt(b.num, len(t.Items))
		if err != nil {
			return true, err
		}
		in.memAccess(t.Addr+uint64(i)*8, false)
		rsetVal(dst, t.Items[i])
		return true, nil
	case minipy.Str:
		i, err := seqIndexInt(b.num, len(t))
		if err != nil {
			return true, err
		}
		rsetVal(dst, minipy.Str1Value(t[i]))
		return true, nil
	}
	return false, nil
}

// regLoop is the register-tier dispatch loop. It mirrors frameLoop's
// structure instruction for instruction: the hoisted simulated counters are
// flushed/reloaded at exactly the same observation points (probe, tracer,
// abort, nested calls, JIT back edges, value hook), every pc-keyed side
// structure (ic, attr cache, JIT mask, branch sites, line attribution) is
// indexed by RInstr.Orig — the source stack pc — and every op charges
// baseInstr[RInstr.Src]. Under the default 1:1 lowering Orig equals the
// loop's own pc and the Src sequence equals the stack tier's executed op
// sequence, which makes the two tiers' observable streams bit-identical.
// benchlint:hotpath
func (in *Interp) regLoop(code *minipy.Code, rt *regTemplate, st *codeState,
	regs []rslot, cells []*minipy.Cell) (rslot, error) {
	var (
		ret      rslot
		errv     error
		pc       int
		rc       = rt.rc
		ops      = st.rops // shared template until first quicken (see quickenOp)
		rconsts  = rt.rconsts
		names    = code.Names
		L        = rc.NumLocals
		probe    = in.probe
		tracer   = in.tracer
		vtracer  = in.vtracer
		jit      = in.jit
		abortFn  = in.abort
		maxSteps = in.maxSteps
		dispatch = in.cost.DispatchOverhead
		icWarmup = in.icWarmup
		cid      = st.id
		gcache   = st.globals
		acache   = st.attrs
		ic       = st.ic
		// Hoisted simulated counters (see frameLoop).
		steps     = in.steps
		instrsTot = in.instrs
		cyclesTot = in.cycles
		frameBase = uint64(0x8000) + uint64(in.depth)*512
	)

	var mask []bool
	var maskVer uint64
	var opPC int
	// Boxed shadow stack, materialized per op only for ValueTracer
	// observers (the soundness checker); nil tracers pay nothing.
	var vstack []minipy.Value
	if jit != nil {
		mask = jit.compiled[code]
		maskVer = jit.version
	}
	if vtracer != nil {
		vstack = in.getStack(rc.NumRegs - L)
	}

	for {
		steps++
		if steps > maxSteps {
			errv = &RuntimeError{Kind: "TimeoutError", Msg: "step budget exhausted"}
			goto done
		}
		if abortFn != nil && steps%abortPollInterval == 0 {
			in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			if err := abortFn(); err != nil {
				errv = abortErr("%s", err.Error())
				goto done
			}
			steps, instrsTot, cyclesTot = in.steps, in.instrs, in.cycles
		}
		ins := ops[pc]
		op := ins.Src
		opc := int(ins.Orig)

		// ---- Cost accounting (keyed by the source stack op and pc) ----
		instrs := uint64(baseInstr[op] + dispatch)
		inTrace := false
		if jit != nil {
			if maskVer != jit.version {
				mask = jit.compiled[code]
				maskVer = jit.version
			}
			if mask != nil && mask[opc] {
				inTrace = true
				instrs /= uint64(in.cost.JITDivisor)
				if instrs == 0 {
					instrs = 1
				}
				jit.OpsInTraces++
			}
		}
		if ic != nil && !inTrace && icSpecializable(op) {
			if c := ic[opc]; c >= icWarmup {
				instrs = uint64(dispatch) + uint64(baseInstr[op])/uint64(in.icDivisor)
				if instrs == 0 {
					instrs = 1
				}
			} else {
				ic[opc] = c + 1
			}
		}
		instrsTot += instrs
		cyclesTot += instrs
		if probe != nil {
			in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			stall := probe.OnOp(op, instrs)
			in.stalls += stall
			in.cycles += stall
			instrsTot, cyclesTot = in.instrs, in.cycles
		}
		if tracer != nil {
			in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			tracer.OnOp(code, opc, op, instrs)
			steps, instrsTot, cyclesTot = in.steps, in.instrs, in.cycles
		}
		if vtracer != nil {
			opPC = opc
		}

		switch ins.Op {
		case minipy.RopNop:
			pc++
		case minipy.RopLoadConst:
			regs[ins.A] = rconsts[ins.Arg]
			pc++
		case minipy.RopLoadLocal:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+uint64(ins.Arg)*8, false)
				cyclesTot = in.cycles
			}
			src := &regs[ins.B]
			if src.tag == tagEmpty {
				errv = in.failAt(code, opc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[ins.B]))
				goto done
			}
			regs[ins.A] = *src
			pc++
		case minipy.RopStoreLocal:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+uint64(ins.A)*8, true)
				cyclesTot = in.cycles
			}
			regs[ins.A] = regs[ins.B]
			pc++
		case minipy.RopLoadGlobal:
			name := names[ins.Arg]
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(0x4000+nameHash(name)%1024*8, false)
				cyclesTot = in.cycles
			}
			var v minipy.Value
			if s := &gcache[ins.Arg]; s.ver == in.gver {
				v = s.val
			} else {
				var ok bool
				v, ok = in.Globals[name]
				if !ok {
					v, ok = in.builtins[name]
					if !ok {
						errv = in.failAt(code, opc, nameErr("name '%s' is not defined", name))
						goto done
					}
				}
				s.ver, s.val = in.gver, v
			}
			rsetVal(&regs[ins.A], v)
			pc++
		case minipy.RopStoreGlobal:
			name := names[ins.Arg]
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(0x4000+nameHash(name)%1024*8, true)
				cyclesTot = in.cycles
			}
			v := rbox(&regs[ins.A])
			in.Globals[name] = v
			in.gver++
			gcache[ins.Arg] = gslot{ver: in.gver, val: v}
			pc++
		case minipy.RopLoadCell:
			c := cells[ins.Arg]
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+256+uint64(ins.Arg)*8, false)
				cyclesTot = in.cycles
			}
			if c.V == nil {
				errv = in.failAt(code, opc, nameErr("free variable referenced before assignment"))
				goto done
			}
			rsetVal(&regs[ins.A], c.V)
			pc++
		case minipy.RopStoreCell:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+256+uint64(ins.Arg)*8, true)
				cyclesTot = in.cycles
			}
			cells[ins.Arg].V = rbox(&regs[ins.A])
			pc++
		case minipy.RopPushCell:
			regs[ins.A] = rslot{ref: cells[ins.Arg], tag: tagRef}
			pc++
		case minipy.RopLoadAttr:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			}
			target := rbox(&regs[ins.A])
			var v minipy.Value
			var err error
			if acache != nil {
				v, err = in.getAttrCached(target, names[ins.Arg], &acache[opc])
			} else {
				v, err = in.getAttr(target, names[ins.Arg])
			}
			if probe != nil {
				cyclesTot = in.cycles
			}
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			rsetVal(&regs[ins.B], v)
			pc++
		case minipy.RopStoreAttr:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			}
			err := in.setAttr(rbox(&regs[ins.A]), names[ins.Arg], rbox(&regs[ins.B]))
			if probe != nil {
				cyclesTot = in.cycles
			}
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopBinary:
			bop := minipy.BinOpCode(ins.Arg)
			a, b := regs[ins.A], regs[ins.B]
			if a.tag == tagInt && b.tag == tagInt &&
				intBinFast(&regs[ins.C], bop, a.num, b.num) {
				// Monomorphic int site: quicken in place. The guard is
				// re-checked by the quickened form on every execution.
				ops = st.quickenOp(pc, minipy.RopBinaryII)
			} else if a.tag == tagFloat && b.tag == tagFloat &&
				floatBinFast(&regs[ins.C], bop, rfloat(&a), rfloat(&b)) {
				ops = st.quickenOp(pc, minipy.RopBinaryFF)
			} else if err := in.regBinaryGeneric(bop, &a, &b, &regs[ins.C]); err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopBinaryII:
			a, b := regs[ins.A], regs[ins.B]
			if !(a.tag == tagInt && b.tag == tagInt &&
				intBinFast(&regs[ins.C], minipy.BinOpCode(ins.Arg), a.num, b.num)) {
				// Shape miss: generic path for this execution, no rewrite
				// back (a rare polymorphic hit costs two tag tests).
				if err := in.regBinaryGeneric(minipy.BinOpCode(ins.Arg), &a, &b, &regs[ins.C]); err != nil {
					errv = in.failAt(code, opc, err)
					goto done
				}
			}
			pc++
		case minipy.RopBinaryFF:
			a, b := regs[ins.A], regs[ins.B]
			if !(a.tag == tagFloat && b.tag == tagFloat &&
				floatBinFast(&regs[ins.C], minipy.BinOpCode(ins.Arg), rfloat(&a), rfloat(&b))) {
				if err := in.regBinaryGeneric(minipy.BinOpCode(ins.Arg), &a, &b, &regs[ins.C]); err != nil {
					errv = in.failAt(code, opc, err)
					goto done
				}
			}
			pc++
		case minipy.RopUnary:
			uop := minipy.UnOpCode(ins.Arg)
			src := &regs[ins.A]
			if uop == minipy.UnNot {
				rsetBool(&regs[ins.B], !rtruth(src))
			} else if uop == minipy.UnNeg && src.tag == tagInt {
				rsetInt(&regs[ins.B], -src.num)
			} else if uop == minipy.UnNeg && src.tag == tagFloat {
				rsetFloat(&regs[ins.B], -rfloat(src))
			} else {
				v, err := in.unary(uop, rbox(src))
				if err != nil {
					errv = in.failAt(code, opc, err)
					goto done
				}
				rsetVal(&regs[ins.B], v)
			}
			pc++
		case minipy.RopJump:
			target := int(ins.Arg)
			if jit != nil && ops[target].Orig <= ins.Orig {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				pause := jit.onBackEdge(code, ins.Orig, ops[target].Orig)
				if pause > 0 {
					in.cycles += pause
					in.jitPauses += pause
					mask = jit.compiled[code]
					maskVer = jit.version
				}
				cyclesTot = in.cycles
			}
			pc = target
		case minipy.RopJumpIfFalse, minipy.RopJumpIfTrue:
			cond := rtruth(&regs[ins.A])
			taken := (ins.Op == minipy.RopJumpIfFalse && !cond) ||
				(ins.Op == minipy.RopJumpIfTrue && cond)
			if probe != nil || inTrace {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.branchEvent(code, cid, opc, taken, inTrace)
				cyclesTot = in.cycles
			}
			if taken {
				pc = int(ins.Arg)
			} else {
				pc++
			}
		case minipy.RopJumpIfFalseKeep, minipy.RopJumpIfTrueKeep:
			cond := rtruth(&regs[ins.A])
			taken := (ins.Op == minipy.RopJumpIfFalseKeep && !cond) ||
				(ins.Op == minipy.RopJumpIfTrueKeep && cond)
			if probe != nil || inTrace {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.branchEvent(code, cid, opc, taken, inTrace)
				cyclesTot = in.cycles
			}
			if taken {
				pc = int(ins.Arg)
			} else {
				pc++
			}
		case minipy.RopCall:
			n := int(ins.Arg)
			callee := rbox(&regs[ins.A])
			flushCall := probe != nil
			if !flushCall {
				switch callee.(type) {
				case *minipy.Function, *minipy.BoundMethod, *minipy.Class:
					flushCall = true
				}
			}
			if flushCall {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			}
			var callRet rslot
			var err error
			switch f := callee.(type) {
			case *minipy.Function:
				callRet, err = in.callFunctionReg(f, regs[ins.A+1:int(ins.A)+1+n])
			case *minipy.BoundMethod:
				callRet, err = in.callBoundReg(f, regs[ins.A+1:int(ins.A)+1+n])
			default:
				// Builtins, classes, non-callables: box the args and share
				// call() — identical behavior and errors.
				boxed := in.getLocals(n)
				for i := 0; i < n; i++ {
					boxed[i] = rbox(&regs[int(ins.A)+1+i])
				}
				var v minipy.Value
				v, err = in.call(callee, boxed)
				in.putLocals(boxed)
				callRet = runbox(v)
			}
			if flushCall {
				steps, instrsTot, cyclesTot = in.steps, in.instrs, in.cycles
			}
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			regs[ins.B] = callRet
			pc++
		case minipy.RopReturn:
			ret = regs[ins.A]
			goto done
		case minipy.RopDrop:
			regs[ins.A] = rslot{}
			pc++
		case minipy.RopDup:
			regs[ins.A] = regs[ins.B]
			pc++
		case minipy.RopDup2:
			regs[ins.A] = regs[ins.B]
			regs[ins.A+1] = regs[ins.B+1]
			pc++
		case minipy.RopBuildList:
			n := int(ins.Arg)
			seg := in.getLocals(n)
			for i := 0; i < n; i++ {
				seg[i] = rbox(&regs[int(ins.A)+i])
			}
			l := minipy.NewListFrom(seg, in.alloc(uint64(24+8*n)))
			in.putLocals(seg)
			regs[ins.B] = rslot{ref: l, tag: tagRef}
			pc++
		case minipy.RopBuildTuple:
			n := int(ins.Arg)
			seg := in.getLocals(n)
			for i := 0; i < n; i++ {
				seg[i] = rbox(&regs[int(ins.A)+i])
			}
			t := minipy.NewTupleFrom(seg, in.alloc(uint64(16+8*n)))
			in.putLocals(seg)
			regs[ins.B] = rslot{ref: t, tag: tagRef}
			pc++
		case minipy.RopBuildDict:
			n := int(ins.Arg)
			d := in.newDict()
			ok := true
			for i := 0; i < n; i++ {
				kv := rbox(&regs[int(ins.A)+2*i])
				vv := rbox(&regs[int(ins.A)+2*i+1])
				k, err := minipy.MakeKey(kv)
				if err != nil {
					errv = in.failAt(code, opc, typeErr("%s", err.Error()))
					ok = false
					break
				}
				d.Set(k, kv, vv)
			}
			if !ok {
				goto done
			}
			regs[ins.A] = rslot{ref: d, tag: tagRef}
			pc++
		case minipy.RopBuildClass:
			n := int(ins.Arg)
			seg := in.getLocals(2*n + 2)
			for i := range seg {
				seg[i] = rbox(&regs[int(ins.A)+i])
			}
			cls, err := in.buildClass(seg, n)
			in.putLocals(seg)
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			regs[ins.A] = rslot{ref: cls, tag: tagRef}
			pc++
		case minipy.RopIndexGet:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			}
			handled, err := in.regIndexGet(&regs[ins.A], &regs[ins.B], &regs[ins.C])
			if !handled && err == nil {
				var v minipy.Value
				v, err = in.indexGet(rbox(&regs[ins.A]), rbox(&regs[ins.B]))
				if err == nil {
					rsetVal(&regs[ins.C], v)
				}
			}
			if probe != nil {
				cyclesTot = in.cycles
			}
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopIndexSet:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			}
			err := in.indexSet(rbox(&regs[ins.A]), rbox(&regs[ins.B]), rbox(&regs[ins.C]))
			if probe != nil {
				cyclesTot = in.cycles
			}
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopSliceGet:
			v, err := in.sliceGet(rbox(&regs[ins.A]), rbox(&regs[ins.B]), rbox(&regs[ins.C]))
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			rsetVal(&regs[ins.A], v)
			pc++
		case minipy.RopDelIndex:
			if err := in.delIndex(rbox(&regs[ins.A]), rbox(&regs[ins.B])); err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopGetIter:
			it, err := in.getIter(rbox(&regs[ins.A]))
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			regs[ins.A] = rslot{ref: it, tag: tagRef}
			pc++
		case minipy.RopForIter, minipy.RopForIterRange:
			if r, ok := regs[ins.A].ref.(*rangeIter); ok {
				if ins.Op == minipy.RopForIter {
					ops = st.quickenOp(pc, minipy.RopForIterRange)
				}
				// Inline range protocol: the produced element stays an
				// unboxed tagInt, so large loop counters never box.
				more := r.cur < r.stop
				if r.step <= 0 {
					more = r.cur > r.stop
				}
				if probe != nil || inTrace {
					in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
					in.branchEvent(code, cid, opc, !more, inTrace)
					cyclesTot = in.cycles
				}
				if !more {
					regs[ins.A] = rslot{}
					pc = int(ins.Arg)
				} else {
					rsetInt(&regs[ins.A+1], r.cur)
					r.cur += r.step
					pc++
				}
			} else {
				it := regs[ins.A].ref.(iterator)
				v, more := it.next()
				if probe != nil || inTrace {
					in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
					in.branchEvent(code, cid, opc, !more, inTrace)
					cyclesTot = in.cycles
				}
				if !more {
					regs[ins.A] = rslot{}
					pc = int(ins.Arg)
				} else {
					rsetVal(&regs[ins.A+1], v)
					pc++
				}
			}
		case minipy.RopMakeFunction:
			fnCode := code.Consts[ins.Arg].(*minipy.Code)
			nf := len(fnCode.FreeNames)
			var free []*minipy.Cell
			if nf > 0 {
				free = make([]*minipy.Cell, nf)
				for i := 0; i < nf; i++ {
					free[i] = regs[int(ins.A)+i].ref.(*minipy.Cell)
				}
			}
			regs[ins.A] = rslot{ref: &minipy.Function{Code: fnCode, Free: free}, tag: tagRef}
			pc++
		case minipy.RopUnpack:
			n := int(ins.Arg)
			seq := rbox(&regs[ins.A])
			var items []minipy.Value
			switch s := seq.(type) {
			case *minipy.Tuple:
				items = s.Items
			case *minipy.List:
				items = s.Items
			default:
				errv = in.failAt(code, opc, typeErr("cannot unpack non-sequence %s", seq.TypeName()))
				goto done
			}
			if len(items) != n {
				errv = in.failAt(code, opc, valueErr("expected %d values to unpack, got %d", n, len(items)))
				goto done
			}
			for i := 0; i < n; i++ {
				rsetVal(&regs[int(ins.A)+i], items[n-1-i])
			}
			pc++
		case minipy.RopLoadLocalPair:
			slotA, slotB := ins.B, ins.C
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+uint64(slotA)*8, false)
				in.memAccess(frameBase+uint64(slotB)*8, false)
				cyclesTot = in.cycles
			}
			if regs[slotA].tag == tagEmpty {
				errv = in.failAt(code, opc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[slotA]))
				goto done
			}
			if regs[slotB].tag == tagEmpty {
				errv = in.failAt(code, opc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[slotB]))
				goto done
			}
			regs[ins.A] = regs[slotA]
			regs[ins.A+1] = regs[slotB]
			pc++
		case minipy.RopLoadLocalConst:
			slot := ins.B
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+uint64(slot)*8, false)
				cyclesTot = in.cycles
			}
			if regs[slot].tag == tagEmpty {
				errv = in.failAt(code, opc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[slot]))
				goto done
			}
			regs[ins.A] = regs[slot]
			regs[ins.A+1] = rconsts[ins.Arg>>12]
			pc++
		case minipy.RopBinaryJumpIfFalse, minipy.RopBinaryJumpIfFalseII:
			bop := minipy.BinOpCode(ins.Arg & 0xF)
			a, b := regs[ins.A], regs[ins.B]
			var tmp rslot
			var taken bool
			if a.tag == tagInt && b.tag == tagInt && intBinFast(&tmp, bop, a.num, b.num) {
				if ins.Op == minipy.RopBinaryJumpIfFalse {
					ops = st.quickenOp(pc, minipy.RopBinaryJumpIfFalseII)
				}
				taken = !rtruth(&tmp)
			} else {
				v, err := in.binary(bop, rbox(&a), rbox(&b))
				if err != nil {
					errv = in.failAt(code, opc, err)
					goto done
				}
				taken = !v.Truth()
			}
			if probe != nil || inTrace {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.branchEvent(code, cid, opc, taken, inTrace)
				cyclesTot = in.cycles
			}
			if taken {
				pc = int(ins.Arg >> 4)
			} else {
				pc++
			}
		default:
			errv = in.failAt(code, opc, &RuntimeError{Kind: "SystemError",
				Msg: "unknown register opcode " + ins.Op.String()})
			goto done
		}

		// Post-op value hook: materialize the boxed operand stack the stack
		// tier would hold after this op (registers L..L+d-1, where d is the
		// entry depth of the next instruction) and report it. Raising paths
		// goto done above and never reach here, matching frameLoop.
		if vtracer != nil {
			d := int(rc.Depth[ops[pc].Orig])
			vstack = vstack[:0]
			for k := 0; k < d; k++ {
				vstack = append(vstack, rbox(&regs[L+k]))
			}
			in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			vtracer.OnValue(code, opPC, op, vstack)
			steps, instrsTot, cyclesTot = in.steps, in.instrs, in.cycles
		}
	}

done:
	in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
	if vstack != nil {
		in.putStack(vstack)
	}
	return ret, errv
}

// DisassembleQuickened renders this Interp's current register stream for
// code — including any in-place quickening rewrites accumulated so far —
// for debugging and byte-stable golden tests. Returns "" when the code
// object has not executed on the register tier.
func (in *Interp) DisassembleQuickened(code *minipy.Code) string {
	st, ok := in.codeStates[code]
	if !ok || st.rt == nil {
		return ""
	}
	view := *st.rt.rc
	view.Ops = st.rops
	return view.Disassemble()
}
