package analysis

import "repro/internal/minipy"

// OptimizationFacts computes the analysis facts consumed by the bytecode
// optimizer (minipy.Optimize): dead local stores, derived from the same
// liveness dataflow that backs the dead-store diagnostic. Facts are keyed
// by *Code pointer and pc in the UNOPTIMIZED instruction stream; the
// optimizer applies them before any pass that renumbers instructions.
// Recurses over nested code objects in the constant pool.
//
// Loop-variable stores (`for _ in range(n)`) are included: the store is
// provably unread, and rewriting it to a plain POP is exactly as safe there
// as anywhere else — the diagnostic layer's idiomatic-code carve-out is a
// reporting policy, not a semantic one.
func OptimizationFacts(root *minipy.Code) *minipy.OptFacts {
	facts := &minipy.OptFacts{DeadStores: map[*minipy.Code]map[int]bool{}}
	var walk func(c *minipy.Code)
	walk = func(c *minipy.Code) {
		if dead := deadStorePCs(c); len(dead) > 0 {
			facts.DeadStores[c] = dead
		}
		for _, k := range c.Consts {
			if sub, ok := k.(*minipy.Code); ok {
				walk(sub)
			}
		}
	}
	walk(root)
	return facts
}

// deadStorePCs returns the pcs of OpStoreLocal instructions whose value no
// execution path reads before the next store or frame exit. Cell-boxed
// variables use distinct ops (STORE_CELL) and are never reported.
func deadStorePCs(c *minipy.Code) map[int]bool {
	if len(c.LocalNames) == 0 || len(c.Ops) == 0 {
		return nil
	}
	g := BuildCFG(c)
	liveOut := localLiveness(g)
	var dead map[int]bool
	for _, id := range g.RPO {
		b := g.Blocks[id]
		live := liveOut[id].clone()
		for pc := b.End - 1; pc >= b.Start; pc-- {
			ins := c.Ops[pc]
			switch ins.Op {
			case minipy.OpLoadLocal:
				live.set(int(ins.Arg))
			case minipy.OpLoadLocalPair:
				live.set(int(ins.Arg) & 0xFFF)
				live.set(int(ins.Arg) >> 12)
			case minipy.OpLoadLocalConst:
				live.set(int(ins.Arg) & 0xFFF)
			case minipy.OpStoreLocal:
				slot := int(ins.Arg)
				if !live.get(slot) {
					if dead == nil {
						dead = map[int]bool{}
					}
					dead[pc] = true
				}
				live[slot/64] &^= 1 << uint(slot%64)
			}
		}
	}
	return dead
}
