package vm

// NewStackReference returns an Interp that runs every function and module
// body on the stack interpreter (exec.go) instead of the register tier.
// The stack interpreter is the reference implementation the register tier
// is differentially tested against; no production path reaches it, and
// tests reach it only through this constructor.
func NewStackReference(cfg Config) *Interp {
	in := New(cfg)
	in.stackExec = (*Interp).callFunctionStack
	return in
}
