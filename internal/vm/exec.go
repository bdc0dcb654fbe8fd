package vm

import (
	"repro/internal/minipy"
)

// This file is the stack interpreter, kept only as the reference the
// register tier (rexec.go) is differentially tested against: no production
// path reaches it, and tests enter it through export_test.go.

// callFunctionStack runs a *Function on the stack interpreter: the frame
// setup (pooled locals, cell capture) and dispatch loop.
func (in *Interp) callFunctionStack(fn *minipy.Function, args []minipy.Value) (minipy.Value, error) {
	code := fn.Code
	if len(args) != code.NumParams {
		return nil, typeErr("%s() takes %d arguments (%d given)",
			code.Name, code.NumParams, len(args))
	}
	locals := in.getLocals(len(code.LocalNames))
	copy(locals, args)
	var cells []*minipy.Cell
	if n := code.NumCells(); n > 0 {
		cells = make([]*minipy.Cell, n)
		for i, slot := range code.CellLocals {
			cells[i] = &minipy.Cell{V: locals[slot]}
		}
		copy(cells[len(code.CellLocals):], fn.Free)
	}
	ret, err := in.runFrame(code, locals, cells)
	// Cells copy values out at creation and the frame is gone, so the
	// locals array is dead here and safe to recycle.
	in.putLocals(locals)
	return ret, err
}

// runFrame executes one function (or module) activation: it takes a pooled
// operand stack sized by the code's verified high-water mark and enters the
// dispatch loop. The loop lives in frameLoop so its stack slice is never
// captured by a deferred closure (a deferred capture would force every
// append through a heap cell).
// benchlint:hotpath
// benchlint:allow boxedhot — the stack tier's frame contract is boxed by
// design; the register tier enters through runFrameReg instead
func (in *Interp) runFrame(code *minipy.Code, locals []minipy.Value, cells []*minipy.Cell) (minipy.Value, error) {
	in.depth++
	if in.depth > in.maxDepth {
		in.depth--
		return nil, &RuntimeError{Kind: "RecursionError", Msg: "maximum recursion depth exceeded"}
	}
	defer func() { in.depth-- }()
	if in.tracer != nil {
		in.tracer.OnEnter(code)
		defer in.tracer.OnExit(code)
	}
	v, stack, err := in.frameLoop(code, locals, cells, in.getStack(stackBound(code)))
	in.putStack(stack)
	return v, err
}

// stackBound returns the operand-stack capacity a frame for code needs.
// Verified code carries the exact high-water mark in MaxStack; unverified
// code (RunModule does not demand a prior Verify) gets a conservative
// bound — the sum of every positive net stack effect — so the dispatch
// loop's capacity-guaranteed pushes can never overrun. ForIter is the one
// control op with a positive push (its continue path) and is excluded from
// EffectOf, so it is special-cased.
func stackBound(code *minipy.Code) int {
	if code.MaxStack > 0 || len(code.Ops) == 0 {
		return code.MaxStack
	}
	bound := 0
	for _, ins := range code.Ops {
		if ins.Op == minipy.OpForIter {
			bound++
			continue
		}
		if pops, pushes, ok := minipy.EffectOf(code, ins); ok && pushes > pops {
			bound += pushes - pops
		}
	}
	return bound
}

// failAt decorates a runtime error with the source line of the faulting pc.
func (in *Interp) failAt(code *minipy.Code, pc int, err error) error {
	if re, ok := err.(*RuntimeError); ok && re.Line == 0 {
		re.Line = int(code.Lines[pc])
	}
	return err
}

// frameLoop is the interpreter dispatch loop: every simulated instruction
// passes through here, so it must stay free of allocation-prone stdlib
// calls. All loop invariants (code pools, probe, tracer, cost table, cache
// arrays) are hoisted above the loop; the operand stack is manipulated with
// inline slice operations rather than push/pop closures. It returns the
// (possibly regrown) stack so the caller can pool it.
//
// The simulated counters (steps/instrs/cycles) are accumulated in local
// variables so the hot path runs register-to-register instead of doing
// three pointer-chasing read-modify-writes per opcode. The locals are
// flushed to the Interp fields before — and reloaded after — every call
// that can observe or mutate them: probe and tracer hooks, the abort
// callback, nested calls (OpCall), the JIT back-edge hook, and every helper
// that reaches memAccess while a probe is attached. Counter values at each
// observation point are therefore bit-identical to the unhoisted form.
// benchlint:hotpath
// benchlint:allow boxedhot — the stack tier's operand stack is boxed by design
func (in *Interp) frameLoop(code *minipy.Code, locals []minipy.Value, cells []*minipy.Cell,
	stack []minipy.Value) (minipy.Value, []minipy.Value, error) {
	st := in.state(code)
	var (
		ret      minipy.Value
		errv     error
		pc       int
		ops      = code.Ops
		consts   = code.Consts
		names    = code.Names
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
		// Hoisted simulated counters (see the function comment).
		steps     = in.steps
		instrsTot = in.instrs
		cyclesTot = in.cycles
		// Synthetic frame-local storage base for the cache model.
		frameBase = uint64(0x8000) + uint64(in.depth)*512
	)

	// JIT trace mask for this code object, refreshed on version changes.
	var mask []bool
	var maskVer uint64
	// Program counter of the op being executed, for the post-op value
	// hook (pc itself has already advanced by then). Only maintained when
	// a ValueTracer is attached.
	var opPC int
	if jit != nil {
		mask = jit.compiled[code]
		maskVer = jit.version
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
		op := ins.Op

		// ---- Cost accounting ----
		instrs := uint64(baseInstr[op] + dispatch)
		inTrace := false
		if jit != nil {
			if maskVer != jit.version {
				mask = jit.compiled[code]
				maskVer = jit.version
			}
			if mask != nil && mask[pc] {
				inTrace = true
				instrs /= uint64(in.cost.JITDivisor)
				if instrs == 0 {
					instrs = 1
				}
				jit.OpsInTraces++
			}
		}
		if ic != nil && !inTrace && icSpecializable(op) {
			if c := ic[pc]; c >= icWarmup {
				// Specialized site: the dynamic-lookup work shrinks; the
				// dispatch cost is unchanged.
				instrs = uint64(dispatch) + uint64(baseInstr[op])/uint64(in.icDivisor)
				if instrs == 0 {
					instrs = 1
				}
			} else {
				ic[pc] = c + 1
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
			tracer.OnOp(code, pc, op, instrs)
			steps, instrsTot, cyclesTot = in.steps, in.instrs, in.cycles
		}
		if vtracer != nil {
			opPC = pc
		}

		switch op {
		case minipy.OpNop:
			pc++
		case minipy.OpLoadConst:
			n := len(stack)
			stack = stack[:n+1]
			stack[n] = consts[ins.Arg]
			pc++
		case minipy.OpLoadLocal:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+uint64(ins.Arg)*8, false)
				cyclesTot = in.cycles
			}
			v := locals[ins.Arg]
			if v == nil {
				errv = in.failAt(code, pc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[ins.Arg]))
				goto done
			}
			n := len(stack)
			stack = stack[:n+1]
			stack[n] = v
			pc++
		case minipy.OpStoreLocal:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+uint64(ins.Arg)*8, true)
				cyclesTot = in.cycles
			}
			n := len(stack) - 1
			locals[ins.Arg] = stack[n]
			stack = stack[:n]
			pc++
		case minipy.OpLoadGlobal:
			name := names[ins.Arg]
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(0x4000+nameHash(name)%1024*8, false)
				cyclesTot = in.cycles
			}
			var v minipy.Value
			if s := &gcache[ins.Arg]; s.ver == in.gver {
				// Inline-cache hit: the namespace is unchanged since this
				// name was last resolved. Host-level only — the simulated
				// cost above is charged identically on hit and miss.
				v = s.val
			} else {
				var ok bool
				v, ok = in.Globals[name]
				if !ok {
					v, ok = in.builtins[name]
					if !ok {
						errv = in.failAt(code, pc, nameErr("name '%s' is not defined", name))
						goto done
					}
				}
				s.ver, s.val = in.gver, v
			}
			m := len(stack)
			stack = stack[:m+1]
			stack[m] = v
			pc++
		case minipy.OpStoreGlobal:
			name := names[ins.Arg]
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(0x4000+nameHash(name)%1024*8, true)
				cyclesTot = in.cycles
			}
			n := len(stack) - 1
			v := stack[n]
			stack = stack[:n]
			in.Globals[name] = v
			// Any store may shadow a builtin or rebind a cached name, so it
			// starts a new namespace version; the stored name's own slot is
			// refilled immediately (store-through).
			in.gver++
			gcache[ins.Arg] = gslot{ver: in.gver, val: v}
			pc++
		case minipy.OpLoadCell:
			c := cells[ins.Arg]
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+256+uint64(ins.Arg)*8, false)
				cyclesTot = in.cycles
			}
			if c.V == nil {
				errv = in.failAt(code, pc, nameErr("free variable referenced before assignment"))
				goto done
			}
			n := len(stack)
			stack = stack[:n+1]
			stack[n] = c.V
			pc++
		case minipy.OpStoreCell:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+256+uint64(ins.Arg)*8, true)
				cyclesTot = in.cycles
			}
			n := len(stack) - 1
			cells[ins.Arg].V = stack[n]
			stack = stack[:n]
			pc++
		case minipy.OpPushCell:
			n := len(stack)
			stack = stack[:n+1]
			stack[n] = cells[ins.Arg]
			pc++
		case minipy.OpLoadAttr:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			}
			n := len(stack) - 1
			var v minipy.Value
			var err error
			if acache != nil {
				v, err = in.getAttrCached(stack[n], names[ins.Arg], &acache[pc])
			} else {
				v, err = in.getAttr(stack[n], names[ins.Arg])
			}
			if probe != nil {
				cyclesTot = in.cycles
			}
			if err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack[n] = v
			pc++
		case minipy.OpStoreAttr:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			}
			n := len(stack) - 2 // stack: ..., target, value
			err := in.setAttr(stack[n], names[ins.Arg], stack[n+1])
			if probe != nil {
				cyclesTot = in.cycles
			}
			if err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack = stack[:n]
			pc++
		case minipy.OpBinary:
			n := len(stack) - 2
			bop := minipy.BinOpCode(ins.Arg)
			// int ⊙ int is the dominant binary shape; handle the overflow-free
			// subset inline so the dispatch loop never leaves frameLoop for it.
			// Division, modulo, and power fall through to in.binary (zero and
			// sign handling), as does every mixed-type pair. Host-level only:
			// identical values, no simulated-cost interaction.
			var v minipy.Value
			if x, ok := stack[n].(minipy.Int); ok {
				if y, ok := stack[n+1].(minipy.Int); ok {
					switch bop {
					case minipy.BinAdd:
						v = minipy.IntValue(int64(x + y))
					case minipy.BinSub:
						v = minipy.IntValue(int64(x - y))
					case minipy.BinMul:
						v = minipy.IntValue(int64(x * y))
					case minipy.BinFloorDiv:
						// Non-negative operands only: Go and Python agree
						// there. Negative operands round differently and
						// fall through to minipy.FloorDivInt.
						if x >= 0 && y > 0 {
							v = minipy.IntValue(int64(x / y))
						}
					case minipy.BinMod:
						if x >= 0 && y > 0 {
							v = minipy.IntValue(int64(x % y))
						}
					case minipy.BinLt:
						v = minipy.Bool(x < y)
					case minipy.BinGt:
						v = minipy.Bool(x > y)
					case minipy.BinLe:
						v = minipy.Bool(x <= y)
					case minipy.BinGe:
						v = minipy.Bool(x >= y)
					case minipy.BinEq:
						v = minipy.Bool(x == y)
					case minipy.BinNe:
						v = minipy.Bool(x != y)
					}
				}
			}
			if v == nil {
				var err error
				v, err = in.binary(bop, stack[n], stack[n+1])
				if err != nil {
					errv = in.failAt(code, pc, err)
					goto done
				}
			}
			stack[n] = v
			stack = stack[:n+1]
			pc++
		case minipy.OpUnary:
			n := len(stack) - 1
			v, err := in.unary(minipy.UnOpCode(ins.Arg), stack[n])
			if err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack[n] = v
			pc++
		case minipy.OpJump:
			target := int(ins.Arg)
			if jit != nil && target <= pc {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				pause := jit.onBackEdge(code, int32(pc), ins.Arg)
				if pause > 0 {
					in.cycles += pause
					in.jitPauses += pause
					mask = jit.compiled[code]
					maskVer = jit.version
				}
				cyclesTot = in.cycles
			}
			pc = target
		case minipy.OpJumpIfFalse, minipy.OpJumpIfTrue:
			n := len(stack) - 1
			cond := stack[n].Truth()
			stack = stack[:n]
			taken := (op == minipy.OpJumpIfFalse && !cond) || (op == minipy.OpJumpIfTrue && cond)
			if probe != nil || inTrace {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.branchEvent(code, cid, pc, taken, inTrace)
				cyclesTot = in.cycles
			}
			if taken {
				pc = int(ins.Arg)
			} else {
				pc++
			}
		case minipy.OpJumpIfFalseKeep, minipy.OpJumpIfTrueKeep:
			cond := stack[len(stack)-1].Truth()
			taken := (op == minipy.OpJumpIfFalseKeep && !cond) || (op == minipy.OpJumpIfTrueKeep && cond)
			if probe != nil || inTrace {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.branchEvent(code, cid, pc, taken, inTrace)
				cyclesTot = in.cycles
			}
			if taken {
				pc = int(ins.Arg)
			} else {
				stack = stack[:len(stack)-1]
				pc++
			}
		case minipy.OpCall:
			n := int(ins.Arg)
			base := len(stack) - n - 1
			callee := stack[base]
			// Builtin callees are leaves: they never read the simulated
			// counters and cannot re-enter the dispatch loop, so the
			// counter flush is only needed for frame-entering callees or
			// when a probe can charge stalls inside the callee.
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
			callRet, err := in.call(callee, stack[base+1:])
			if flushCall {
				steps, instrsTot, cyclesTot = in.steps, in.instrs, in.cycles
			}
			if err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack[base] = callRet
			stack = stack[:base+1]
			pc++
		case minipy.OpReturn:
			n := len(stack) - 1
			ret = stack[n]
			stack = stack[:n]
			goto done
		case minipy.OpPop:
			stack = stack[:len(stack)-1]
			pc++
		case minipy.OpDup:
			n := len(stack)
			stack = stack[:n+1]
			stack[n] = stack[n-1]
			pc++
		case minipy.OpDup2:
			n := len(stack)
			stack = stack[:n+2]
			stack[n] = stack[n-2]
			stack[n+1] = stack[n-1]
			pc++
		case minipy.OpBuildList:
			n := int(ins.Arg)
			base := len(stack) - n
			l := minipy.NewListFrom(stack[base:], in.alloc(uint64(24+8*n)))
			stack = stack[:base+1]
			stack[base] = l
			pc++
		case minipy.OpBuildTuple:
			n := int(ins.Arg)
			base := len(stack) - n
			t := minipy.NewTupleFrom(stack[base:], in.alloc(uint64(16+8*n)))
			stack = stack[:base+1]
			stack[base] = t
			pc++
		case minipy.OpBuildDict:
			n := int(ins.Arg)
			d := in.newDict()
			base := len(stack) - 2*n
			for i := 0; i < n; i++ {
				kv := stack[base+2*i]
				vv := stack[base+2*i+1]
				k, err := minipy.MakeKey(kv)
				if err != nil {
					errv = in.failAt(code, pc, typeErr("%s", err.Error()))
					goto done
				}
				d.Set(k, kv, vv)
			}
			stack = stack[:base+1]
			stack[base] = d
			pc++
		case minipy.OpBuildClass:
			base := len(stack) - 2*int(ins.Arg) - 2
			cls, err := in.buildClass(stack[base:], int(ins.Arg))
			if err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack = stack[:base+1]
			stack[base] = cls
			pc++
		case minipy.OpIndexGet:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			}
			n := len(stack) - 2
			v, err := in.indexGet(stack[n], stack[n+1])
			if probe != nil {
				cyclesTot = in.cycles
			}
			if err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack[n] = v
			stack = stack[:n+1]
			pc++
		case minipy.OpIndexSet:
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			}
			n := len(stack) - 3 // stack: ..., target, index, value
			err := in.indexSet(stack[n], stack[n+1], stack[n+2])
			if probe != nil {
				cyclesTot = in.cycles
			}
			if err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack = stack[:n]
			pc++
		case minipy.OpSliceGet:
			n := len(stack) - 3 // stack: ..., target, lo, hi
			v, err := in.sliceGet(stack[n], stack[n+1], stack[n+2])
			if err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack[n] = v
			stack = stack[:n+1]
			pc++
		case minipy.OpDelIndex:
			n := len(stack) - 2
			if err := in.delIndex(stack[n], stack[n+1]); err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack = stack[:n]
			pc++
		case minipy.OpGetIter:
			n := len(stack) - 1
			it, err := in.getIter(stack[n])
			if err != nil {
				errv = in.failAt(code, pc, err)
				goto done
			}
			stack[n] = it
			pc++
		case minipy.OpForIter:
			it := stack[len(stack)-1].(iterator)
			v, ok := it.next()
			if probe != nil || inTrace {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.branchEvent(code, cid, pc, !ok, inTrace)
				cyclesTot = in.cycles
			}
			if !ok {
				stack = stack[:len(stack)-1]
				pc = int(ins.Arg)
			} else {
				m := len(stack)
				stack = stack[:m+1]
				stack[m] = v
				pc++
			}
		case minipy.OpMakeFunction:
			fnCode := consts[ins.Arg].(*minipy.Code)
			nf := len(fnCode.FreeNames)
			var free []*minipy.Cell
			if nf > 0 {
				free = make([]*minipy.Cell, nf)
				base := len(stack) - nf
				for i := 0; i < nf; i++ {
					free[i] = stack[base+i].(*minipy.Cell)
				}
				stack = stack[:base]
			}
			m := len(stack)
			stack = stack[:m+1]
			stack[m] = &minipy.Function{Code: fnCode, Free: free}
			pc++
		case minipy.OpUnpack:
			n := int(ins.Arg)
			top := len(stack) - 1
			seq := stack[top]
			var items []minipy.Value
			switch s := seq.(type) {
			case *minipy.Tuple:
				items = s.Items
			case *minipy.List:
				items = s.Items
			default:
				errv = in.failAt(code, pc, typeErr("cannot unpack non-sequence %s", seq.TypeName()))
				goto done
			}
			if len(items) != n {
				errv = in.failAt(code, pc, valueErr("expected %d values to unpack, got %d", n, len(items)))
				goto done
			}
			stack = stack[:top+n]
			for i := 0; i < n; i++ {
				stack[top+i] = items[n-1-i]
			}
			pc++
		case minipy.OpLoadLocalPair:
			slotA := int(ins.Arg) & 0xFFF
			slotB := int(ins.Arg) >> 12
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+uint64(slotA)*8, false)
				in.memAccess(frameBase+uint64(slotB)*8, false)
				cyclesTot = in.cycles
			}
			va := locals[slotA]
			if va == nil {
				errv = in.failAt(code, pc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[slotA]))
				goto done
			}
			vb := locals[slotB]
			if vb == nil {
				errv = in.failAt(code, pc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[slotB]))
				goto done
			}
			n := len(stack)
			stack = stack[:n+2]
			stack[n] = va
			stack[n+1] = vb
			pc++
		case minipy.OpLoadLocalConst:
			slot := int(ins.Arg) & 0xFFF
			if probe != nil {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.memAccess(frameBase+uint64(slot)*8, false)
				cyclesTot = in.cycles
			}
			v := locals[slot]
			if v == nil {
				errv = in.failAt(code, pc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[slot]))
				goto done
			}
			n := len(stack)
			stack = stack[:n+2]
			stack[n] = v
			stack[n+1] = consts[ins.Arg>>12]
			pc++
		case minipy.OpBinaryJumpIfFalse:
			n := len(stack) - 2
			bop := minipy.BinOpCode(ins.Arg & 0xF)
			// Same int ⊙ int inline subset as OpBinary; everything else
			// (division, power, mixed types) goes through in.binary.
			var v minipy.Value
			if x, ok := stack[n].(minipy.Int); ok {
				if y, ok := stack[n+1].(minipy.Int); ok {
					switch bop {
					case minipy.BinAdd:
						v = minipy.IntValue(int64(x + y))
					case minipy.BinSub:
						v = minipy.IntValue(int64(x - y))
					case minipy.BinMul:
						v = minipy.IntValue(int64(x * y))
					case minipy.BinLt:
						v = minipy.Bool(x < y)
					case minipy.BinGt:
						v = minipy.Bool(x > y)
					case minipy.BinLe:
						v = minipy.Bool(x <= y)
					case minipy.BinGe:
						v = minipy.Bool(x >= y)
					case minipy.BinEq:
						v = minipy.Bool(x == y)
					case minipy.BinNe:
						v = minipy.Bool(x != y)
					}
				}
			}
			if v == nil {
				var err error
				v, err = in.binary(bop, stack[n], stack[n+1])
				if err != nil {
					errv = in.failAt(code, pc, err)
					goto done
				}
			}
			stack = stack[:n]
			taken := !v.Truth()
			if probe != nil || inTrace {
				in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
				in.branchEvent(code, cid, pc, taken, inTrace)
				cyclesTot = in.cycles
			}
			if taken {
				pc = int(ins.Arg >> 4)
			} else {
				pc++
			}
		default:
			errv = in.failAt(code, pc, &RuntimeError{Kind: "SystemError", Msg: "unknown opcode " + op.String()})
			goto done
		}

		// Post-op value hook: the op at opPC completed without raising
		// (raising paths goto done above and never reach here), so the
		// certificate's claim about its result — if any — is now checkable
		// against the live stack.
		if vtracer != nil {
			in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
			vtracer.OnValue(code, opPC, op, stack)
			steps, instrsTot, cyclesTot = in.steps, in.instrs, in.cycles
		}
	}

done:
	in.steps, in.instrs, in.cycles = steps, instrsTot, cyclesTot
	return ret, stack, errv
}

// buildClass constructs a class object for OpBuildClass. Split out of the
// dispatch loop because it allocates a methods map (cold: runs once per
// class statement). seg is the operand segment [name, base, (name, value)*n].
func (in *Interp) buildClass(seg []minipy.Value, n int) (minipy.Value, error) {
	methods := map[string]minipy.Value{}
	// Match the historical pop order (top pair first): on duplicate method
	// names the bottom-most pair wins.
	for i := n - 1; i >= 0; i-- {
		nameV := seg[2+2*i]
		v := seg[3+2*i]
		methods[string(nameV.(minipy.Str))] = v
	}
	baseV := seg[1]
	className := string(seg[0].(minipy.Str))
	var baseClass *minipy.Class
	if bc, ok := baseV.(*minipy.Class); ok {
		baseClass = bc
	} else if _, isNone := baseV.(minipy.NoneType); !isNone {
		return nil, typeErr("class base must be a class, not '%s'", baseV.TypeName())
	}
	return &minipy.Class{Name: className, Base: baseClass, Methods: methods, Addr: in.alloc(256)}, nil
}

// branchEvent reports a resolved conditional branch to the probe and, when
// inside a compiled trace, to the JIT guard model. The dispatch loop guards
// the call so plain-interpreter branches skip it entirely.
// benchlint:hotpath
func (in *Interp) branchEvent(code *minipy.Code, cid uint64, pc int, taken, inTrace bool) {
	if in.probe != nil {
		stall := in.probe.OnBranch(cid|uint64(pc), taken)
		in.stalls += stall
		in.cycles += stall
	}
	if inTrace && in.jit != nil {
		pause := in.jit.onGuard(code, int32(pc), taken)
		if pause > 0 {
			in.cycles += pause
			in.jitPauses += pause
		}
	}
}

// nameHash spreads global-name accesses over the synthetic globals region.
// Runs on every global load/store.
// benchlint:hotpath
func nameHash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
