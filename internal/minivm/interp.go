package minivm

import (
	"fmt"
	"io"

	"gcassert"
)

// VMError is a guest-program runtime error (null dereference, bounds,
// division by zero, ...), with the method and source position it occurred at.
type VMError struct {
	Method string
	PC     int
	Pos    Pos
	Msg    string
}

func (e *VMError) Error() string {
	return fmt.Sprintf("minivm: %s at %s (pc %d in %s)", e.Msg, e.Pos, e.PC, e.Method)
}

// Image is a compiled Unit loaded into a managed runtime: every class is
// registered as a heap type, and execution state (interpreter frames) is
// visible to the collector as GC roots.
type Image struct {
	Unit *Unit
	vm   *gcassert.Runtime
	th   *gcassert.Thread
	out  io.Writer
	// typeIDs maps class index to managed TypeID.
	typeIDs []gcassert.TypeID
	// steps counts executed instructions, against MaxSteps when it is set.
	steps uint64
	// MaxSteps bounds execution (0 = unlimited); exceeded → VMError.
	MaxSteps uint64
	// provenance mirrors whether the runtime records allocation sites;
	// sites caches the per-(method, pc) registered SiteID of every `new`
	// bytecode so steady-state allocation formats no strings (0 = not yet
	// registered — real IDs are never 0 while provenance is on).
	provenance bool
	sites      map[*MethodInfo][]gcassert.SiteID
	// ints is the integer value stack, calls the control stack of suspended
	// callers and fr the reference stack, an rt frame pushed on th for each
	// Run. All three keep what they grew to from one Run to the next.
	ints  []int64
	calls []activation
	fr    *gcassert.Frame
	// cur and sp are the Run in progress: the active activation and its
	// operand depth. cur.pc and sp are current only while run is not
	// running: run keeps them in registers.
	cur activation
	sp  int
	// atSafepoint, when a test sets it, sees the active activation at every
	// point a collection can start.
	atSafepoint func(sp int)
}

// maxStackSlots caps the value stacks, and with them the guest's call depth
// (every activation starts at least one slot above its caller's): the call
// that would carve past it is a guest "stack overflow", not a host one.
const maxStackSlots = 1 << 16

// activation is a method in progress: where it resumes and where its slots
// start.
type activation struct {
	m    *MethodInfo
	pc   int
	base int
}

// Load verifies the unit's bytecode, registers its classes with the
// runtime, and returns an executable image. out receives print() output.
func Load(vm *gcassert.Runtime, unit *Unit, out io.Writer) (*Image, error) {
	if err := Verify(unit); err != nil {
		return nil, err
	}
	im := &Image{Unit: unit, vm: vm, th: vm.NewThread("minivm"), out: out}
	if vm.Space().Provenance() != nil {
		im.provenance = true
		im.sites = make(map[*MethodInfo][]gcassert.SiteID)
	}
	reg := vm.Registry()
	for _, ci := range unit.Classes {
		if id, ok := reg.Lookup(ci.Name); ok {
			// Already registered (e.g. two images on one VM): verify shape.
			info := reg.Info(id)
			if info.NumFields() != len(ci.Fields) {
				return nil, fmt.Errorf("minivm: class %s conflicts with an existing heap type", ci.Name)
			}
			im.typeIDs = append(im.typeIDs, id)
			continue
		}
		fields := make([]gcassert.Field, len(ci.Fields))
		for i, f := range ci.Fields {
			fields[i] = gcassert.Field{Name: f.Name, Ref: f.Type.IsRef()}
		}
		im.typeIDs = append(im.typeIDs, vm.Define(ci.Name, fields...))
	}
	return im, nil
}

// TypeID returns the managed TypeID of a class name.
func (im *Image) TypeID(name string) (gcassert.TypeID, bool) {
	ci, ok := im.Unit.Class(name)
	if !ok {
		return 0, false
	}
	return im.typeIDs[ci.Index], true
}

// Thread returns the image's mutator thread.
func (im *Image) Thread() *gcassert.Thread { return im.th }

// ResetSteps restarts the MaxSteps budget. The step counter is cumulative
// across Run calls, so a long-lived image serving many guest requests (a
// gcassertd tenant) resets between requests to make the bound per-request
// rather than per-lifetime.
func (im *Image) ResetSteps() { im.steps = 0 }

// Run executes Main.main() on a fresh Main instance. Guest runtime errors
// come back as *VMError; host panics (out of memory, a halting violation
// reaction) pass through once the run's frame is popped.
func (im *Image) Run() error {
	// The frame is reused, and reserve leaves reference locals alone because
	// invariant 1 says they are Nil. A Run that returns from main leaves
	// every slot Nil (invariant 2 holds for main too); one that traps or
	// panics out leaves references behind, which the next Run would scan as
	// roots before overwriting them, so those exits clear the frame.
	if im.fr == nil {
		im.fr = im.th.NewFrame(0)
	}
	im.th.PushFrame(im.fr)
	returned := false
	defer func() {
		if !returned {
			im.fr.Clear()
		}
		im.th.Pop()
	}()
	main := im.Unit.Main
	im.fr.Resize(1)[0] = im.th.New(im.typeIDs[main.Class.Index])
	im.calls, im.cur, im.sp = im.calls[:0], activation{m: main}, main.NumLocals
	if !im.reserve(main, 0, 1) {
		_, err := im.trap(0, im.steps, "stack overflow")
		return err
	}
	limit := im.MaxSteps
	if limit == 0 {
		limit = ^uint64(0)
	}
	for {
		m, base := im.cur.m, im.cur.base
		top := base + m.NumLocals + m.MaxStack
		more, err := im.run(im.cur.pc, im.sp, im.steps, limit, m.Code, im.ints[base:top], im.fr.Resize(top)[base:])
		if !more {
			returned = err == nil
			return err
		}
	}
}

// siteAt returns the allocation SiteID for the `new` bytecode at (m, pc),
// registering "Class.method:line: new What" with the runtime on first
// execution and caching the ID per method. With provenance off it returns
// the unknown site, and the sited allocation degrades to a plain one.
func (im *Image) siteAt(m *MethodInfo, pc int, what string) gcassert.SiteID {
	if !im.provenance {
		return 0
	}
	ids := im.sites[m]
	if ids == nil {
		ids = make([]gcassert.SiteID, len(m.Code))
		im.sites[m] = ids
	}
	if ids[pc] == 0 {
		pos := Pos{}
		if pc >= 0 && pc < len(m.Pos) {
			pos = m.Pos[pc]
		}
		ids[pc] = im.vm.RegisterAllocSite(fmt.Sprintf("%s:%d: new %s", m.Sig(), pos.Line, what))
	}
	return ids[pc]
}

// trap is run's result for a guest runtime error at pc of the active method.
func (im *Image) trap(pc int, steps uint64, format string, args ...interface{}) (bool, error) {
	im.steps = steps
	m := im.cur.m
	pos := Pos{}
	if pc >= 0 && pc < len(m.Pos) {
		pos = m.Pos[pc]
	}
	return false, &VMError{Method: m.Sig(), PC: pc, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// indexTrap is the trap of an array access that failed its check.
func (im *Image) indexTrap(pc int, steps uint64, arr gcassert.Ref, i int64) (bool, error) {
	if arr == gcassert.Nil {
		return im.trap(pc, steps, "null array dereference")
	}
	return im.trap(pc, steps, "array index %d out of range [0,%d)", i, im.vm.Space().ArrayLen(arr))
}

// safepoint comes before every runtime call that can start a collection or
// panic out of the loop: it publishes the step count the loop keeps in a
// register.
func (im *Image) safepoint(sp int, steps uint64) {
	im.steps = steps
	if im.atSafepoint != nil {
		im.atSafepoint(sp)
	}
}

// reserve makes room for m's activation at base, where its first nargs
// locals (this and the parameters) already lie; it reports false when that
// would pass maxStackSlots. The remaining integer locals are zeroed, as a
// declaration without an initializer reads; the reference ones are Nil by
// invariant 1.
func (im *Image) reserve(m *MethodInfo, base, nargs int) bool {
	top := base + m.NumLocals + m.MaxStack
	if top > maxStackSlots {
		return false
	}
	if top > len(im.ints) {
		grown := make([]int64, min(max(top, 2*len(im.ints)), maxStackSlots))
		copy(grown, im.ints)
		im.ints = grown
	}
	clear(im.ints[base+nargs : base+m.NumLocals])
	return true
}

// run interprets the active activation, whose code and slots it is given,
// until a call or return makes another one active (true) or the Run ends.
// pc, sp and steps come first so that they arrive, and stay, in registers;
// what changes at calls and returns only is read from im where needed.
//
// Every activation is a run of NumLocals+MaxStack slots — locals, then the
// operand stack — carved from two parallel stacks: an integer slot lives in
// im.ints and a reference slot in im.fr, the only thing the collector scans,
// so each value is written once. A callee's first locals are the caller's
// top operand slots: a call moves base and copies nothing. What the
// collector then relies on, and TestRootPrecision checks at every safepoint:
//
//  1. every scanned slot at or above the active sp is Nil (a popped
//     reference is cleared where it is popped);
//  2. a returned activation leaves nothing but Nil behind;
//  3. the scanned window ends at the active activation's top.
//
// Indexing is unchecked beyond Go's own bounds tests: Verify has proved
// operand depths, slot kinds, local indices and jump targets.
func (im *Image) run(pc, sp int, steps, limit uint64, code []Instr, iv []int64, rv []gcassert.Ref) (bool, error) {
	space := im.vm.Space()
	for {
		steps++
		if steps > limit {
			return im.trap(pc, steps, "execution budget exceeded (%d steps)", limit)
		}
		in := &code[pc]
		pc++
		switch in.Op {
		case OpNop:
		case OpConstInt:
			iv[sp] = in.K
			sp++
		case OpNull:
			rv[sp] = gcassert.Nil
			sp++
		case OpLoadInt:
			iv[sp] = iv[in.A]
			sp++
		case OpLoadRef:
			rv[sp] = rv[in.A]
			sp++
		case OpStoreInt:
			sp--
			iv[in.A] = iv[sp]
		case OpStoreRef:
			sp--
			rv[in.A] = rv[sp]
			rv[sp] = gcassert.Nil
		case OpPopInt:
			sp--
		case OpPopRef:
			sp--
			rv[sp] = gcassert.Nil
		case OpGetFInt:
			obj := rv[sp-1]
			if obj == gcassert.Nil {
				return im.trap(pc-1, steps, "null pointer dereference")
			}
			rv[sp-1] = gcassert.Nil
			iv[sp-1] = int64(space.GetScalar(obj, in.A))
		case OpGetFRef:
			obj := rv[sp-1]
			if obj == gcassert.Nil {
				return im.trap(pc-1, steps, "null pointer dereference")
			}
			rv[sp-1] = space.GetRef(obj, in.A)
		case OpPutFInt:
			sp -= 2
			obj := rv[sp]
			if obj == gcassert.Nil {
				return im.trap(pc-1, steps, "null pointer dereference")
			}
			rv[sp] = gcassert.Nil
			space.SetScalar(obj, in.A, uint64(iv[sp+1]))
		case OpPutFRef:
			sp -= 2
			obj, v := rv[sp], rv[sp+1]
			if obj == gcassert.Nil {
				return im.trap(pc-1, steps, "null pointer dereference")
			}
			rv[sp], rv[sp+1] = gcassert.Nil, gcassert.Nil
			space.SetRef(obj, in.A, v)
		case OpNewArrInt, OpNewArrRef:
			n := iv[sp-1]
			if n < 0 {
				return im.trap(pc-1, steps, "negative array length %d", n)
			}
			t, what := gcassert.TWordArray, "int[]"
			if in.Op == OpNewArrRef {
				t, what = gcassert.TRefArray, "ref[]"
			}
			im.safepoint(sp-1, steps)
			rv[sp-1] = im.th.NewArrayAt(t, int(n), im.siteAt(im.cur.m, pc-1, what))
		case OpALoadInt:
			sp--
			arr, i := rv[sp-1], iv[sp]
			if arr == gcassert.Nil || uint64(i) >= uint64(space.ArrayLen(arr)) {
				return im.indexTrap(pc-1, steps, arr, i)
			}
			rv[sp-1] = gcassert.Nil
			iv[sp-1] = int64(space.WordAt(arr, int(i)))
		case OpALoadRef:
			sp--
			arr, i := rv[sp-1], iv[sp]
			if arr == gcassert.Nil || uint64(i) >= uint64(space.ArrayLen(arr)) {
				return im.indexTrap(pc-1, steps, arr, i)
			}
			rv[sp-1] = space.RefAt(arr, int(i))
		case OpAStoreInt:
			sp -= 3
			arr, i := rv[sp], iv[sp+1]
			if arr == gcassert.Nil || uint64(i) >= uint64(space.ArrayLen(arr)) {
				return im.indexTrap(pc-1, steps, arr, i)
			}
			rv[sp] = gcassert.Nil
			space.SetWordAt(arr, int(i), uint64(iv[sp+2]))
		case OpAStoreRef:
			sp -= 3
			arr, i, v := rv[sp], iv[sp+1], rv[sp+2]
			if arr == gcassert.Nil || uint64(i) >= uint64(space.ArrayLen(arr)) {
				return im.indexTrap(pc-1, steps, arr, i)
			}
			rv[sp], rv[sp+2] = gcassert.Nil, gcassert.Nil
			space.SetRefAt(arr, int(i), v)
		case OpLen:
			arr := rv[sp-1]
			if arr == gcassert.Nil {
				return im.trap(pc-1, steps, "length of null array")
			}
			rv[sp-1] = gcassert.Nil
			iv[sp-1] = int64(space.ArrayLen(arr))
		case OpNewObj:
			im.safepoint(sp, steps)
			rv[sp] = im.th.NewAt(im.typeIDs[in.A], im.siteAt(im.cur.m, pc-1, im.Unit.Classes[in.A].Name))
			sp++
		case OpAdd:
			sp--
			iv[sp-1] += iv[sp]
		case OpSub:
			sp--
			iv[sp-1] -= iv[sp]
		case OpMul:
			sp--
			iv[sp-1] *= iv[sp]
		case OpDiv:
			sp--
			if iv[sp] == 0 {
				return im.trap(pc-1, steps, "division by zero")
			}
			iv[sp-1] /= iv[sp]
		case OpMod:
			sp--
			if iv[sp] == 0 {
				return im.trap(pc-1, steps, "division by zero")
			}
			iv[sp-1] %= iv[sp]
		case OpNeg:
			iv[sp-1] = -iv[sp-1]
		case OpNot:
			iv[sp-1] = b2i(iv[sp-1] == 0)
		case OpEqInt:
			sp--
			iv[sp-1] = b2i(iv[sp-1] == iv[sp])
		case OpNeInt:
			sp--
			iv[sp-1] = b2i(iv[sp-1] != iv[sp])
		case OpLt:
			sp--
			iv[sp-1] = b2i(iv[sp-1] < iv[sp])
		case OpLe:
			sp--
			iv[sp-1] = b2i(iv[sp-1] <= iv[sp])
		case OpGt:
			sp--
			iv[sp-1] = b2i(iv[sp-1] > iv[sp])
		case OpGe:
			sp--
			iv[sp-1] = b2i(iv[sp-1] >= iv[sp])
		case OpEqRef, OpNeRef:
			sp--
			eq := rv[sp-1] == rv[sp]
			rv[sp-1], rv[sp] = gcassert.Nil, gcassert.Nil
			iv[sp-1] = b2i(eq == (in.Op == OpEqRef))
		case OpJmp:
			pc = in.A
		case OpJz:
			sp--
			if iv[sp] == 0 {
				pc = in.A
			}
		case OpCall:
			callee := im.Unit.Methods[in.A]
			n := 1 + len(callee.Params)
			if rv[sp-n] == gcassert.Nil {
				return im.trap(pc-1, steps, "method call on null receiver (%s)", callee.Sig())
			}
			// The receiver and arguments become the callee's first locals
			// where they lie.
			if !im.reserve(callee, im.cur.base+sp-n, n) {
				return im.trap(pc-1, steps, "stack overflow calling %s", callee.Sig())
			}
			im.calls = append(im.calls, activation{im.cur.m, pc, im.cur.base})
			im.cur, im.sp, im.steps = activation{m: callee, base: im.cur.base + sp - n}, callee.NumLocals, steps
			return true, nil
		case OpRetVoid, OpRetInt, OpRetRef:
			// The result goes to the callee's slot 0, which is the caller's
			// next operand slot.
			ri, rr := iv[sp-1], rv[sp-1]
			clear(rv[:sp])
			im.steps = steps
			if len(im.calls) == 0 {
				return false, nil
			}
			switch in.Op {
			case OpRetInt:
				iv[0] = ri
			case OpRetRef:
				rv[0] = rr
			}
			caller := im.calls[len(im.calls)-1]
			im.calls = im.calls[:len(im.calls)-1]
			im.sp = im.cur.base - caller.base
			if in.Op != OpRetVoid {
				im.sp++
			}
			im.cur = caller
			return true, nil
		case OpPrint:
			sp--
			fmt.Fprintln(im.out, iv[sp])
		case OpGC:
			im.safepoint(sp, steps)
			im.vm.Collect()
		case OpAssertDead:
			sp--
			r := rv[sp]
			if r == gcassert.Nil {
				return im.trap(pc-1, steps, "assertDead(null)")
			}
			rv[sp] = gcassert.Nil
			im.safepoint(sp, steps)
			im.vm.AssertDead(r)
		case OpAssertUnshared:
			sp--
			r := rv[sp]
			if r == gcassert.Nil {
				return im.trap(pc-1, steps, "assertUnshared(null)")
			}
			rv[sp] = gcassert.Nil
			im.safepoint(sp, steps)
			im.vm.AssertUnshared(r)
		case OpAssertInstances:
			im.safepoint(sp, steps)
			im.vm.AssertInstances(im.typeIDs[in.A], in.K)
		case OpAssertOwnedBy:
			sp -= 2
			owner, ownee := rv[sp], rv[sp+1]
			if owner == gcassert.Nil || ownee == gcassert.Nil {
				return im.trap(pc-1, steps, "assertOwnedBy(null)")
			}
			if owner == ownee {
				return im.trap(pc-1, steps, "assertOwnedBy: an object cannot own itself")
			}
			rv[sp], rv[sp+1] = gcassert.Nil, gcassert.Nil
			im.safepoint(sp, steps)
			im.vm.AssertOwnedBy(owner, ownee)
		case OpRegionStart:
			if im.th.InRegion() {
				return im.trap(pc-1, steps, "startRegion: region already active")
			}
			im.safepoint(sp, steps)
			im.th.StartRegion()
		case OpRegionAllDead:
			if !im.th.InRegion() {
				return im.trap(pc-1, steps, "assertAllDead: no active region")
			}
			im.safepoint(sp, steps)
			iv[sp] = int64(im.th.AssertAllDead())
			sp++
		default:
			return im.trap(pc-1, steps, "internal: bad opcode %s", in.Op)
		}
	}
}
