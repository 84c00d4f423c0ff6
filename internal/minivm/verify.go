package minivm

import "fmt"

// Bytecode verifier: an abstract interpreter over the type-tagged operand
// stack, in the spirit of the JVM's class-file verifier. It proves, before
// execution, that compiled code
//
//   - never underflows or overflows its declared MaxStack,
//   - only applies ref ops to refs and int ops to ints,
//   - loads/stores locals within range and with the declared ref-ness,
//   - jumps only to valid targets, with consistent stack shapes at joins,
//   - returns with the method's declared kind,
//   - lays out this and the parameters as its first locals, with their kinds.
//
// The interpreter relies on exactly these properties — it tests neither pc
// nor operand depth nor slot kind at run time, and it keeps references only
// in the slots the collector scans — so Load verifies every method before
// running guest code.

// vkind is the abstract type of one stack slot.
type vkind uint8

const (
	vInt vkind = iota
	vRef
)

func (v vkind) String() string {
	if v == vRef {
		return "ref"
	}
	return "int"
}

// VerifyError reports a verification failure.
type VerifyError struct {
	Method string
	PC     int
	Msg    string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("minivm: verify %s at pc %d: %s", e.Method, e.PC, e.Msg)
}

// Verify checks every method of the unit.
func Verify(u *Unit) error {
	for _, m := range u.Methods {
		if err := verifyMethod(u, m); err != nil {
			return err
		}
	}
	return nil
}

// stackEffect describes an opcode's pops (typed) and pushes (typed).
// Opcodes with operand-dependent effects are handled specially.
var simpleEffects = map[Op]struct {
	pops   []vkind // top of stack last
	pushes []vkind
}{
	OpNop:             {nil, nil},
	OpConstInt:        {nil, []vkind{vInt}},
	OpNull:            {nil, []vkind{vRef}},
	OpPopInt:          {[]vkind{vInt}, nil},
	OpPopRef:          {[]vkind{vRef}, nil},
	OpGetFInt:         {[]vkind{vRef}, []vkind{vInt}},
	OpGetFRef:         {[]vkind{vRef}, []vkind{vRef}},
	OpPutFInt:         {[]vkind{vRef, vInt}, nil},
	OpPutFRef:         {[]vkind{vRef, vRef}, nil},
	OpNewArrInt:       {[]vkind{vInt}, []vkind{vRef}},
	OpNewArrRef:       {[]vkind{vInt}, []vkind{vRef}},
	OpALoadInt:        {[]vkind{vRef, vInt}, []vkind{vInt}},
	OpALoadRef:        {[]vkind{vRef, vInt}, []vkind{vRef}},
	OpAStoreInt:       {[]vkind{vRef, vInt, vInt}, nil},
	OpAStoreRef:       {[]vkind{vRef, vInt, vRef}, nil},
	OpLen:             {[]vkind{vRef}, []vkind{vInt}},
	OpAdd:             {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpSub:             {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpMul:             {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpDiv:             {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpMod:             {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpNeg:             {[]vkind{vInt}, []vkind{vInt}},
	OpNot:             {[]vkind{vInt}, []vkind{vInt}},
	OpEqInt:           {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpNeInt:           {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpLt:              {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpLe:              {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpGt:              {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpGe:              {[]vkind{vInt, vInt}, []vkind{vInt}},
	OpEqRef:           {[]vkind{vRef, vRef}, []vkind{vInt}},
	OpNeRef:           {[]vkind{vRef, vRef}, []vkind{vInt}},
	OpPrint:           {[]vkind{vInt}, nil},
	OpGC:              {nil, nil},
	OpAssertDead:      {[]vkind{vRef}, nil},
	OpAssertUnshared:  {[]vkind{vRef}, nil},
	OpAssertOwnedBy:   {[]vkind{vRef, vRef}, nil},
	OpAssertInstances: {nil, nil},
	OpRegionStart:     {nil, nil},
	OpRegionAllDead:   {nil, []vkind{vInt}},
}

func verifyMethod(u *Unit, m *MethodInfo) error {
	fail := func(pc int, format string, args ...interface{}) error {
		return &VerifyError{Method: m.Sig(), PC: pc, Msg: fmt.Sprintf(format, args...)}
	}
	if len(m.Code) == 0 {
		return fail(0, "empty code")
	}
	if len(m.RefSlot) != m.NumLocals {
		return fail(0, "RefSlot table size %d != NumLocals %d", len(m.RefSlot), m.NumLocals)
	}
	// A call leaves the receiver and arguments where the caller pushed them
	// and makes them the callee's first locals, so those must have the
	// parameters' kinds.
	if m.NumLocals < 1+len(m.Params) || m.MaxStack < 0 {
		return fail(0, "%d locals, %d stack slots for this and %d parameters", m.NumLocals, m.MaxStack, len(m.Params))
	}
	for i, isRef := range m.RefSlot[:1+len(m.Params)] {
		if isRef != (i == 0 || m.Params[i-1].IsRef()) {
			return fail(0, "local %d is %v-ref, its parameter is not", i, isRef)
		}
	}

	// states[pc] is the stack shape on entry to pc; nil = not yet reached.
	states := make([][]vkind, len(m.Code))
	states[0] = []vkind{}
	work := []int{0}

	// transfer returns the successor state(s) of executing code[pc] on in.
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := states[pc]
		instr := m.Code[pc]

		pop := func(st []vkind, want vkind) ([]vkind, error) {
			if len(st) == 0 {
				return nil, fail(pc, "%s: stack underflow", instr.Op)
			}
			got := st[len(st)-1]
			if got != want {
				return nil, fail(pc, "%s: want %s on stack, have %s", instr.Op, want, got)
			}
			return st[:len(st)-1], nil
		}
		push := func(st []vkind, k vkind) ([]vkind, error) {
			if len(st)+1 > m.MaxStack {
				return nil, fail(pc, "%s: stack overflow (max %d)", instr.Op, m.MaxStack)
			}
			return append(st, k), nil
		}
		// flow merges the out state into the successor's entry state.
		flow := func(next int, out []vkind) error {
			if next < 0 || next >= len(m.Code) {
				return fail(pc, "%s: target %d out of range", instr.Op, next)
			}
			if states[next] == nil {
				states[next] = append([]vkind{}, out...)
				work = append(work, next)
				return nil
			}
			have := states[next]
			if len(have) != len(out) {
				return fail(pc, "inconsistent stack depth at join %d: %d vs %d", next, len(have), len(out))
			}
			for i := range have {
				if have[i] != out[i] {
					return fail(pc, "inconsistent stack type at join %d slot %d: %s vs %s",
						next, i, have[i], out[i])
				}
			}
			return nil
		}

		st := append([]vkind{}, in...)
		var err error
		switch instr.Op {
		case OpLoadInt, OpLoadRef, OpStoreInt, OpStoreRef:
			if instr.A < 0 || instr.A >= m.NumLocals {
				return fail(pc, "%s: local %d out of range (%d locals)", instr.Op, instr.A, m.NumLocals)
			}
			wantRef := instr.Op == OpLoadRef || instr.Op == OpStoreRef
			if m.RefSlot[instr.A] != wantRef {
				return fail(pc, "%s: local %d is %v-ref", instr.Op, instr.A, m.RefSlot[instr.A])
			}
			switch instr.Op {
			case OpLoadInt:
				st, err = push(st, vInt)
			case OpLoadRef:
				st, err = push(st, vRef)
			case OpStoreInt:
				st, err = pop(st, vInt)
			case OpStoreRef:
				st, err = pop(st, vRef)
			}
			if err != nil {
				return err
			}
			if err := flow(pc+1, st); err != nil {
				return err
			}
		case OpNewObj:
			if instr.A < 0 || instr.A >= len(u.Classes) {
				return fail(pc, "new: class %d out of range", instr.A)
			}
			if st, err = push(st, vRef); err != nil {
				return err
			}
			if err := flow(pc+1, st); err != nil {
				return err
			}
		case OpAssertInstances:
			if instr.A < 0 || instr.A >= len(u.Classes) {
				return fail(pc, "assert.instances: class %d out of range", instr.A)
			}
			if err := flow(pc+1, st); err != nil {
				return err
			}
		case OpJmp:
			if err := flow(instr.A, st); err != nil {
				return err
			}
		case OpJz:
			if st, err = pop(st, vInt); err != nil {
				return err
			}
			if err := flow(instr.A, st); err != nil {
				return err
			}
			if err := flow(pc+1, st); err != nil {
				return err
			}
		case OpCall:
			if instr.A < 0 || instr.A >= len(u.Methods) {
				return fail(pc, "call: method %d out of range", instr.A)
			}
			callee := u.Methods[instr.A]
			for i := len(callee.Params) - 1; i >= 0; i-- {
				want := vInt
				if callee.Params[i].IsRef() {
					want = vRef
				}
				if st, err = pop(st, want); err != nil {
					return err
				}
			}
			if st, err = pop(st, vRef); err != nil { // receiver
				return err
			}
			switch {
			case callee.Ret.Kind == KVoid:
			case callee.Ret.IsRef():
				if st, err = push(st, vRef); err != nil {
					return err
				}
			default:
				if st, err = push(st, vInt); err != nil {
					return err
				}
			}
			if err := flow(pc+1, st); err != nil {
				return err
			}
		case OpRetVoid:
			if m.Ret.Kind != KVoid {
				return fail(pc, "ret.v in %s-returning method", m.Ret)
			}
		case OpRetInt:
			if m.Ret.Kind == KVoid || m.Ret.IsRef() {
				return fail(pc, "ret.i in %s-returning method", m.Ret)
			}
			if _, err = pop(st, vInt); err != nil {
				return err
			}
		case OpRetRef:
			if !m.Ret.IsRef() {
				return fail(pc, "ret.r in %s-returning method", m.Ret)
			}
			if _, err = pop(st, vRef); err != nil {
				return err
			}
		default:
			eff, ok := simpleEffects[instr.Op]
			if !ok {
				return fail(pc, "unknown opcode %d", uint8(instr.Op))
			}
			for i := len(eff.pops) - 1; i >= 0; i-- {
				if st, err = pop(st, eff.pops[i]); err != nil {
					return err
				}
			}
			for _, k := range eff.pushes {
				if st, err = push(st, k); err != nil {
					return err
				}
			}
			if err := flow(pc+1, st); err != nil {
				return err
			}
		}
	}
	return nil
}
