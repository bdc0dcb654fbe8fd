package minipy

import "fmt"

// LowerToRegister lowers verified stack bytecode to register form.
//
// The lowering is 1:1 and pc-preserving: instruction i of the register code
// implements instruction i of the stack code, and every jump target is
// unchanged. Registers 0..L-1 (L = len(LocalNames)) alias the local slots;
// register L+d holds the value the stack machine would have at operand
// depth d. The verifier's join-consistency invariant makes that mapping a
// static function of pc, so no runtime stack pointer exists at all.
//
// Because the executed instruction sequence, the per-op cost keys (Src),
// the immediates (Arg) and the control-flow targets are all identical to
// the stack form, the register tier's simulated counters, probe events and
// tracer streams are bit-identical to the stack tier's by construction —
// the speedup is purely host-level (no push/pop slice traffic, tagged
// unboxed register slots). Stream-changing optimizations live in
// ElideMoves and are opt-in.
//
// Lowering shares the verifier's depth computation; code that fails depth
// analysis (unbalanced, inconsistent joins) returns an error, which the VM
// reports as a compile error (vm.Prepare) or a run error — such code never
// executes.
func LowerToRegister(code *Code) (*RCode, error) {
	depth, err := stackDepths(code)
	if err != nil {
		return nil, err
	}
	L := len(code.LocalNames)
	maxDepth := 0
	for _, d := range depth {
		if int(d) > maxDepth {
			maxDepth = int(d)
		}
	}
	// ForIter's loop path pushes above its entry depth; account for the
	// pushed element (entry depths cover every other op's high-water mark,
	// matching the verifier's MaxStack argument).
	for pc, ins := range code.Ops {
		if ins.Op == OpForIter && depth[pc] >= 0 && int(depth[pc])+1 > maxDepth {
			maxDepth = int(depth[pc]) + 1
		}
	}
	rc := &RCode{
		Code:      code,
		NumLocals: L,
		NumRegs:   L + maxDepth,
		Ops:       make([]RInstr, len(code.Ops)),
		Depth:     depth,
	}
	for pc, ins := range code.Ops {
		d := depth[pc]
		if d < 0 {
			// Unreachable: keep the pc slot (1:1 mapping) but never execute.
			rc.Ops[pc] = RInstr{Op: RopNop, Src: OpNop, Orig: int32(pc)}
			continue
		}
		ri, err := lowerOne(code, ins, int32(L), d)
		if err != nil {
			return nil, fmt.Errorf("minipy: lower %s at pc %d: %w", code.Name, pc, err)
		}
		ri.Orig = int32(pc)
		rc.Ops[pc] = ri
	}
	return rc, nil
}

// lowerOne maps one stack instruction at entry depth d to register form.
// reg(k) = L + k is the register holding operand-stack depth k.
func lowerOne(code *Code, ins Instr, L, d int32) (RInstr, error) {
	reg := func(k int32) int32 { return L + k }
	arg := ins.Arg
	ri := RInstr{Src: ins.Op, Arg: arg}
	switch ins.Op {
	case OpNop:
		ri.Op = RopNop
	case OpLoadConst:
		ri.Op, ri.A = RopLoadConst, reg(d)
	case OpLoadLocal:
		ri.Op, ri.A, ri.B = RopLoadLocal, reg(d), arg
	case OpStoreLocal:
		ri.Op, ri.A, ri.B = RopStoreLocal, arg, reg(d-1)
	case OpLoadGlobal:
		ri.Op, ri.A = RopLoadGlobal, reg(d)
	case OpStoreGlobal:
		ri.Op, ri.A = RopStoreGlobal, reg(d-1)
	case OpLoadCell:
		ri.Op, ri.A = RopLoadCell, reg(d)
	case OpStoreCell:
		ri.Op, ri.A = RopStoreCell, reg(d-1)
	case OpPushCell:
		ri.Op, ri.A = RopPushCell, reg(d)
	case OpLoadAttr:
		ri.Op, ri.A, ri.B = RopLoadAttr, reg(d-1), reg(d-1)
	case OpStoreAttr:
		ri.Op, ri.A, ri.B = RopStoreAttr, reg(d-2), reg(d-1)
	case OpBinary:
		ri.Op, ri.A, ri.B, ri.C = RopBinary, reg(d-2), reg(d-1), reg(d-2)
	case OpUnary:
		ri.Op, ri.A, ri.B = RopUnary, reg(d-1), reg(d-1)
	case OpJump:
		ri.Op = RopJump
	case OpJumpIfFalse:
		ri.Op, ri.A = RopJumpIfFalse, reg(d-1)
	case OpJumpIfTrue:
		ri.Op, ri.A = RopJumpIfTrue, reg(d-1)
	case OpJumpIfFalseKeep:
		ri.Op, ri.A = RopJumpIfFalseKeep, reg(d-1)
	case OpJumpIfTrueKeep:
		ri.Op, ri.A = RopJumpIfTrueKeep, reg(d-1)
	case OpCall:
		ri.Op, ri.A, ri.B = RopCall, reg(d-1-arg), reg(d-1-arg)
	case OpReturn:
		ri.Op, ri.A = RopReturn, reg(d-1)
	case OpPop:
		ri.Op, ri.A = RopDrop, reg(d-1)
	case OpDup:
		ri.Op, ri.A, ri.B = RopDup, reg(d), reg(d-1)
	case OpDup2:
		ri.Op, ri.A, ri.B = RopDup2, reg(d), reg(d-2)
	case OpBuildList:
		ri.Op, ri.A, ri.B = RopBuildList, reg(d-arg), reg(d-arg)
	case OpBuildTuple:
		ri.Op, ri.A, ri.B = RopBuildTuple, reg(d-arg), reg(d-arg)
	case OpBuildDict:
		ri.Op, ri.A = RopBuildDict, reg(d-2*arg)
	case OpBuildClass:
		ri.Op, ri.A = RopBuildClass, reg(d-2*arg-2)
	case OpIndexGet:
		ri.Op, ri.A, ri.B, ri.C = RopIndexGet, reg(d-2), reg(d-1), reg(d-2)
	case OpIndexSet:
		ri.Op, ri.A, ri.B, ri.C = RopIndexSet, reg(d-3), reg(d-2), reg(d-1)
	case OpSliceGet:
		ri.Op, ri.A, ri.B, ri.C = RopSliceGet, reg(d-3), reg(d-2), reg(d-1)
	case OpDelIndex:
		ri.Op, ri.A, ri.B = RopDelIndex, reg(d-2), reg(d-1)
	case OpGetIter:
		ri.Op, ri.A = RopGetIter, reg(d-1)
	case OpForIter:
		ri.Op, ri.A = RopForIter, reg(d-1)
	case OpMakeFunction:
		sub, ok := code.Consts[arg].(*Code)
		if !ok {
			return ri, fmt.Errorf("MAKE_FUNCTION const %d is not code", arg)
		}
		ri.Op, ri.A = RopMakeFunction, reg(d-int32(len(sub.FreeNames)))
	case OpUnpack:
		ri.Op, ri.A = RopUnpack, reg(d-1)
	case OpLoadLocalPair:
		ri.Op, ri.A, ri.B, ri.C = RopLoadLocalPair, reg(d), arg&0xFFF, arg>>12
	case OpLoadLocalConst:
		ri.Op, ri.A, ri.B = RopLoadLocalConst, reg(d), arg&0xFFF
	case OpBinaryJumpIfFalse:
		ri.Op, ri.A, ri.B = RopBinaryJumpIfFalse, reg(d-2), reg(d-1)
	default:
		return ri, fmt.Errorf("unknown opcode %v", ins.Op)
	}
	return ri, nil
}

// stackDepths runs the verifier's abstract stack-depth interpretation and
// returns the entry depth per pc (-1 = unreachable). It accepts unverified
// code (RunModule never demands a prior Verify) and reports the same class
// of imbalance errors the verifier would.
func stackDepths(code *Code) ([]int32, error) {
	n := len(code.Ops)
	if n == 0 {
		return nil, fmt.Errorf("minipy: lower %s: empty code object", code.Name)
	}
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	work := []int{0}
	var werr error
	propagate := func(from, to int, d int32) bool {
		if d < 0 || to >= n || to < 0 {
			werr = fmt.Errorf("minipy: lower %s at pc %d: bad flow (depth %d, target %d)",
				code.Name, from, d, to)
			return false
		}
		if depth[to] == -1 {
			depth[to] = d
			work = append(work, to)
			return true
		}
		if depth[to] != d {
			werr = fmt.Errorf("minipy: lower %s at pc %d: inconsistent depth at join pc %d: %d vs %d",
				code.Name, from, to, depth[to], d)
			return false
		}
		return true
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		d := depth[pc]
		ins := code.Ops[pc]
		arg := int(ins.Arg)
		switch ins.Op {
		case OpReturn:
			if d != 1 {
				return nil, fmt.Errorf("minipy: lower %s at pc %d: RETURN with depth %d", code.Name, pc, d)
			}
			continue
		case OpJump:
			if !propagate(pc, arg, d) {
				return nil, werr
			}
			continue
		case OpJumpIfFalse, OpJumpIfTrue:
			if !propagate(pc, arg, d-1) || !propagate(pc, pc+1, d-1) {
				return nil, werr
			}
			continue
		case OpJumpIfFalseKeep, OpJumpIfTrueKeep:
			if !propagate(pc, arg, d) || !propagate(pc, pc+1, d-1) {
				return nil, werr
			}
			continue
		case OpForIter:
			if !propagate(pc, arg, d-1) || !propagate(pc, pc+1, d+1) {
				return nil, werr
			}
			continue
		case OpBinaryJumpIfFalse:
			if d < 2 {
				return nil, fmt.Errorf("minipy: lower %s at pc %d: underflow at depth %d", code.Name, pc, d)
			}
			if !propagate(pc, arg>>4, d-2) || !propagate(pc, pc+1, d-2) {
				return nil, werr
			}
			continue
		}
		eff, ok := stackEffect(code, ins)
		if !ok {
			return nil, fmt.Errorf("minipy: lower %s at pc %d: unknown opcode %v", code.Name, pc, ins.Op)
		}
		if int(d)+minPops(code, ins) < 0 {
			return nil, fmt.Errorf("minipy: lower %s at pc %d: underflow executing %v at depth %d",
				code.Name, pc, ins.Op, d)
		}
		if !propagate(pc, pc+1, d+int32(eff)) {
			return nil, werr
		}
	}
	return depth, nil
}

// ElideMoves is the stream-changing register optimization (ablation A9): it
// copy-propagates register moves into their adjacent consumer and deletes
// the move. Two patterns, both classic stack→register lowering wins:
//
//   - RLOAD_LOCAL r_s <- r_l followed by a consumer reading r_s: the
//     consumer reads the local register r_l directly and the load vanishes.
//     Because the elided load carried the unassigned-local check, only
//     loads of locals proven definitely assigned at that pc (params, or
//     stores dominating the load) are elided.
//   - a producer whose destination register is retargetable, followed by
//     RSTORE_LOCAL r_l <- dst: the producer writes r_l directly and the
//     store vanishes.
//
// A consumer (or store) that is a jump target keeps its moves: another
// path could arrive with a live value in the stack register. Deleting
// instructions renumbers pcs, so every jump target is remapped and Orig
// keeps the source pc for line attribution and pc-keyed engine state. The
// executed instruction stream — and therefore the simulated counters — is
// intentionally different from the stack tier; the harness surfaces this
// variant only as ablation A9, never under the default equivalence-gated
// configuration.
func ElideMoves(rc *RCode) *RCode {
	n := len(rc.Ops)
	isTarget := make([]bool, n+1)
	for _, ins := range rc.Ops {
		switch ins.Op {
		case RopJump, RopJumpIfFalse, RopJumpIfTrue, RopJumpIfFalseKeep,
			RopJumpIfTrueKeep, RopForIter:
			isTarget[ins.Arg] = true
		case RopBinaryJumpIfFalse:
			isTarget[ins.Arg>>4] = true
		}
	}
	assigned := definitelyAssigned(rc.Code)
	keep := make([]bool, n)
	out := make([]RInstr, n)
	copy(out, rc.Ops)
	for i := range keep {
		keep[i] = true
	}
	for i := 0; i+1 < n; i++ {
		if !keep[i] {
			continue
		}
		cur, next := out[i], out[i+1]
		// Load elision: forward the local register into the consumer.
		if cur.Op == RopLoadLocal && !isTarget[i+1] &&
			assigned != nil && assigned[i]&(1<<uint(cur.B)) != 0 {
			if c, ok := replaceRead(next, cur.A, cur.B); ok {
				out[i+1] = c
				keep[i] = false
				continue
			}
			// The dominant `local ⊙ const` shape puts one RLOAD_CONST
			// between the load and its consumer. A constant load is
			// transparent — it cannot raise, branch, or touch the forwarded
			// registers — so the local read forwards across it.
			if i+2 < n && next.Op == RopLoadConst && next.A != cur.A &&
				!isTarget[i+2] {
				if c, ok := replaceRead(out[i+2], cur.A, cur.B); ok {
					out[i+2] = c
					keep[i] = false
					continue
				}
			}
		}
		// Store elision: retarget the producer's destination to the local.
		if next.Op == RopStoreLocal && !isTarget[i+1] {
			if c, ok := retargetDst(cur, next.B, next.A); ok {
				out[i] = c
				keep[i+1] = false
				i++ // the store is consumed; don't pair it with a successor
			}
		}
	}
	// Renumber: newIndex[old] = position after deletions.
	newIndex := make([]int32, n+1)
	var kept []RInstr
	for i := 0; i < n; i++ {
		newIndex[i] = int32(len(kept))
		if keep[i] {
			kept = append(kept, out[i])
		}
	}
	newIndex[n] = int32(len(kept))
	for i := range kept {
		switch kept[i].Op {
		case RopJump, RopJumpIfFalse, RopJumpIfTrue, RopJumpIfFalseKeep,
			RopJumpIfTrueKeep, RopForIter:
			kept[i].Arg = newIndex[kept[i].Arg]
		case RopBinaryJumpIfFalse:
			kept[i].Arg = kept[i].Arg&0xF | newIndex[kept[i].Arg>>4]<<4
		}
	}
	return &RCode{
		Code:      rc.Code,
		NumLocals: rc.NumLocals,
		NumRegs:   rc.NumRegs,
		Ops:       kept,
		Depth:     rc.Depth,
		Elided:    true,
	}
}

// replaceRead rewrites ins's read of register from to register to. Only
// pure-read operands of instructions whose full read set is statically
// known participate; anything with block operands (calls, builds, unpack),
// value-keeping branches, or an aliasing hazard declines.
func replaceRead(ins RInstr, from, to int32) (RInstr, bool) {
	switch ins.Op {
	case RopBinary, RopBinaryJumpIfFalse:
		// A and B are both pure reads (RopBinary writes C).
		if ins.B == from {
			ins.B = to
			return ins, true
		}
		if ins.A == from {
			ins.A = to
			return ins, true
		}
	// RopGetIter is deliberately absent: it is read-modify-write on A
	// (the iterator is written back in place for the RFOR_ITER header to
	// poll), so forwarding a local into A would leave the iterator in the
	// local register and the loop header reading an empty slot.
	case RopUnary, RopLoadAttr:
		if ins.A == from {
			ins.A = to
			return ins, true
		}
	case RopIndexGet:
		if ins.B == from {
			ins.B = to
			return ins, true
		}
		if ins.A == from {
			ins.A = to
			return ins, true
		}
	case RopStoreGlobal, RopStoreCell, RopReturn,
		RopJumpIfFalse, RopJumpIfTrue:
		if ins.A == from {
			ins.A = to
			return ins, true
		}
	case RopStoreLocal:
		if ins.B == from {
			ins.B = to
			return ins, true
		}
	// RopDup and RopDrop decline: DUP reads its source without consuming it
	// (the stack register stays live for a later reader), and DROP would
	// clear a live local register.
	case RopStoreAttr, RopIndexSet, RopDelIndex:
		if ins.B == from {
			ins.B = to
			return ins, true
		}
	}
	return ins, false
}

// retargetDst rewrites a producer so its result register dst becomes to,
// reporting whether the op's destination is independently retargetable
// (ops whose destination field doubles as an input decline).
func retargetDst(ins RInstr, dst, to int32) (RInstr, bool) {
	switch ins.Op {
	case RopLoadConst, RopLoadLocal, RopLoadGlobal, RopLoadCell, RopDup:
		if ins.A == dst {
			ins.A = to
			return ins, true
		}
	case RopBinary, RopIndexGet:
		if ins.C == dst {
			ins.C = to
			return ins, true
		}
	case RopUnary, RopLoadAttr, RopCall, RopBuildList, RopBuildTuple:
		if ins.B == dst {
			ins.B = to
			return ins, true
		}
	}
	return ins, false
}

// definitelyAssigned computes, per pc, the bitmask of local slots that are
// definitely assigned on entry to that pc (params at entry; intersection
// at joins). Returns nil when the code has more than 64 locals — elision
// then skips load forwarding rather than track wide bitsets.
func definitelyAssigned(code *Code) []uint64 {
	if len(code.LocalNames) > 64 {
		return nil
	}
	n := len(code.Ops)
	const unknown = ^uint64(0)
	in := make([]uint64, n)
	for i := range in {
		in[i] = unknown // top: not yet reached
	}
	var entry uint64
	for i := 0; i < code.NumParams; i++ {
		entry |= 1 << uint(i)
	}
	in[0] = entry
	work := []int{0}
	propagate := func(to int, set uint64) {
		if to < 0 || to >= n {
			return
		}
		merged := set
		if in[to] != unknown {
			merged &= in[to]
		}
		if merged != in[to] {
			in[to] = merged
			work = append(work, to)
		}
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		set := in[pc]
		ins := code.Ops[pc]
		if ins.Op == OpStoreLocal {
			set |= 1 << uint(ins.Arg)
		}
		arg := int(ins.Arg)
		switch ins.Op {
		case OpReturn:
		case OpJump:
			propagate(arg, set)
		case OpJumpIfFalse, OpJumpIfTrue, OpJumpIfFalseKeep, OpJumpIfTrueKeep,
			OpForIter:
			propagate(arg, set)
			propagate(pc+1, set)
		case OpBinaryJumpIfFalse:
			propagate(arg>>4, set)
			propagate(pc+1, set)
		default:
			propagate(pc+1, set)
		}
	}
	for i := range in {
		if in[i] == unknown {
			in[i] = 0
		}
	}
	return in
}
