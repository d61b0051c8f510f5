package isa

// EvalALU computes the result of a pure arithmetic, logic, or comparison
// opcode: the ALU's semantics for an engine that holds the opcode as a
// value (the reference interpreters, the WaveCache simulator, the
// compiler's constant folding). The rules that are more than one Go
// operator live in Div, Rem, Shl, Shr and Bool, which EvalALU calls and
// which the linear emulator, whose decoded program gives every ALU
// operation a case of its own, calls directly; so no engine spells integer
// semantics out for itself.
//
// Division and remainder by zero yield 0: simulators execute down dataflow
// paths whose predicates later prune them, so arithmetic must be total.
// Shift counts are masked to 6 bits, matching a 64-bit barrel shifter.
func EvalALU(op Opcode, a, b int64) int64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return Div(a, b)
	case OpRem:
		return Rem(a, b)
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return Shl(a, b)
	case OpShr:
		return Shr(a, b)
	case OpNeg:
		return -a
	case OpNot:
		return ^a
	case OpEq:
		return Bool(a == b)
	case OpNe:
		return Bool(a != b)
	case OpLt:
		return Bool(a < b)
	case OpLe:
		return Bool(a <= b)
	case OpGt:
		return Bool(a > b)
	case OpGe:
		return Bool(a >= b)
	}
	panic("isa: EvalALU called with non-ALU opcode " + op.String())
}

// Div is OpDiv: a / b truncated toward zero, 0 when b is 0, and MinInt64
// for MinInt64 / -1 (the quotient wraps, as Go defines it).
func Div(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Rem is OpRem: a % b with the sign of a, 0 when b is 0, and 0 for
// MinInt64 % -1 (as Go defines it).
func Rem(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a % b
}

// Shl is OpShl: a shifted left by the low 6 bits of b.
func Shl(a, b int64) int64 { return a << (uint64(b) & 63) }

// Shr is OpShr: a shifted right arithmetically by the low 6 bits of b.
func Shr(a, b int64) int64 { return a >> (uint64(b) & 63) }

// Bool is a comparison's result: 1 for true, 0 for false.
func Bool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// IsALU reports whether the opcode is handled by EvalALU.
func IsALU(op Opcode) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpNeg, OpNot, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}
