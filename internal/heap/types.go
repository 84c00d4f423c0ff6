package heap

import "fmt"

// TypeID identifies a registered object type. IDs are dense small integers so
// per-type side tables (e.g. assert-instances counters) can be flat arrays,
// mirroring the paper's per-RVMClass instance limit/count fields.
type TypeID uint32

// Builtin type IDs. The registry pre-defines array types so workloads can
// allocate arrays without declaring them.
const (
	// TInvalid is never a valid type.
	TInvalid TypeID = 0
	// TRefArray is the builtin reference-array type ("[Ljava/lang/Object;").
	TRefArray TypeID = 1
	// TWordArray is the builtin scalar-array type (one word per element).
	TWordArray TypeID = 2

	firstUserType TypeID = 3
)

// Kind classifies the layout of a type.
type Kind uint8

// Layout kinds.
const (
	// KindObject is a fixed-shape object: header word + one word per field.
	KindObject Kind = iota
	// KindRefArray is a variable-length array of references.
	KindRefArray
	// KindWordArray is a variable-length array of scalar words.
	KindWordArray
)

func (k Kind) String() string {
	switch k {
	case KindObject:
		return "object"
	case KindRefArray:
		return "ref-array"
	case KindWordArray:
		return "word-array"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Field describes one slot of a KindObject type.
type Field struct {
	// Name is the field name, used in diagnostics and path reports.
	Name string
	// Ref marks the field as a reference the collector must trace.
	Ref bool
}

// TypeInfo is the layout descriptor for a registered type, the analogue of a
// class's GC map in a real VM.
type TypeInfo struct {
	// ID is the type's dense identifier.
	ID TypeID
	// Name is the fully qualified type name (e.g. "spec/jbb/Order").
	Name string
	// Kind selects the layout.
	Kind Kind
	// Fields holds the declared fields, in layout order (KindObject only).
	Fields []Field
	// fieldIndex maps field name to slot index.
	fieldIndex map[string]int
}

// SizeWords returns the total object size in words, including the header, for
// an instance with the given array length (ignored for KindObject).
func (t *TypeInfo) SizeWords(arrayLen int) int {
	switch t.Kind {
	case KindObject:
		return 1 + len(t.Fields)
	default:
		return 1 + arrayLen
	}
}

// NumFields returns the number of declared fields.
func (t *TypeInfo) NumFields() int { return len(t.Fields) }

// FieldIndex returns the slot index of the named field.
// It panics if the field does not exist; field names are compile-time
// constants of the embedding program, so a miss is a programming error.
func (t *TypeInfo) FieldIndex(name string) int {
	i, ok := t.fieldIndex[name]
	if !ok {
		panic(fmt.Sprintf("heap: type %s has no field %q", t.Name, name))
	}
	return i
}

// FieldName returns the name of the field at the given slot, or a synthetic
// name for array elements and unknown slots.
func (t *TypeInfo) FieldName(slot int) string {
	if t.Kind == KindObject && slot >= 0 && slot < len(t.Fields) {
		return t.Fields[slot].Name
	}
	return fmt.Sprintf("[%d]", slot)
}

// layoutSlots is the number of field slots a layout's bitmaps cover. Slots
// past it exist only on wide types, whose accessors and scan fall back to
// the TypeInfo's Fields.
const layoutSlots = 64

// layout is the flat per-type descriptor every per-access and per-object
// path reads instead of the TypeInfo: one load resolves a header's TypeID
// to which field slots hold references and which hold scalars. Arrays have
// neither bit set; the only array types are TRefArray and TWordArray, and
// their accessors test the TypeID itself.
type layout struct {
	refs    uint64 // bit i: field slot i < 64 is a reference
	scalars uint64 // bit i: field slot i < 64 exists and is not a reference
	words   uint64 // instance size in words, header included; 0 for arrays
}

// wide reports whether the type has field slots the bitmaps do not cover.
func (l *layout) wide() bool { return l.words > 1+layoutSlots }

// makeLayout builds the layout of a type from its descriptor.
func makeLayout(t *TypeInfo) layout {
	if t.Kind != KindObject {
		return layout{}
	}
	l := layout{words: uint64(1 + len(t.Fields))}
	for i, f := range t.Fields[:min(len(t.Fields), layoutSlots)] {
		if f.Ref {
			l.refs |= 1 << i
		} else {
			l.scalars |= 1 << i
		}
	}
	return l
}

// Registry holds all registered types. It is the analogue of the VM's loaded
// class table. A Registry is not safe for concurrent mutation; workloads
// register types during setup.
type Registry struct {
	types   []*TypeInfo // indexed by TypeID
	layouts []layout    // indexed by TypeID, in step with types
	byNam   map[string]TypeID
}

// NewRegistry creates a registry pre-populated with the builtin array types.
func NewRegistry() *Registry {
	r := &Registry{byNam: make(map[string]TypeID)}
	r.types = make([]*TypeInfo, firstUserType)
	r.types[TInvalid] = &TypeInfo{ID: TInvalid, Name: "<invalid>", Kind: KindObject}
	r.types[TRefArray] = &TypeInfo{ID: TRefArray, Name: "[Object", Kind: KindRefArray}
	r.types[TWordArray] = &TypeInfo{ID: TWordArray, Name: "[word", Kind: KindWordArray}
	r.byNam["[Object"] = TRefArray
	r.byNam["[word"] = TWordArray
	for _, t := range r.types {
		r.layouts = append(r.layouts, makeLayout(t))
	}
	return r
}

// Define registers a new object type with the given fields and returns its
// TypeID. Defining a duplicate name or exceeding the header's type-ID width
// panics: types are program structure, not runtime data.
func (r *Registry) Define(name string, fields ...Field) TypeID {
	if _, dup := r.byNam[name]; dup {
		panic(fmt.Sprintf("heap: type %q already defined", name))
	}
	id := TypeID(len(r.types))
	if uint64(id) > maxTypeID {
		panic("heap: type registry overflow")
	}
	t := &TypeInfo{
		ID:         id,
		Name:       name,
		Kind:       KindObject,
		Fields:     append([]Field(nil), fields...),
		fieldIndex: make(map[string]int, len(fields)),
	}
	for i, f := range fields {
		if _, dup := t.fieldIndex[f.Name]; dup {
			panic(fmt.Sprintf("heap: type %q has duplicate field %q", name, f.Name))
		}
		t.fieldIndex[f.Name] = i
	}
	r.types = append(r.types, t)
	r.layouts = append(r.layouts, makeLayout(t))
	r.byNam[name] = id
	return id
}

// Lookup returns the TypeID for a name and whether it exists.
func (r *Registry) Lookup(name string) (TypeID, bool) {
	id, ok := r.byNam[name]
	return id, ok
}

// Info returns the TypeInfo for an ID. It panics on an unknown ID.
func (r *Registry) Info(id TypeID) *TypeInfo {
	if int(id) >= len(r.types) || r.types[id] == nil {
		panic(fmt.Sprintf("heap: unknown TypeID %d", id))
	}
	return r.types[id]
}

// layoutOf returns the layout of a registered type. An unknown ID panics in
// Info with its message.
func (r *Registry) layoutOf(id TypeID) *layout {
	if int(id) >= len(r.layouts) {
		r.Info(id)
	}
	return &r.layouts[id]
}

// NumTypes returns the number of registered types (including builtins).
func (r *Registry) NumTypes() int { return len(r.types) }

// ForEachType calls fn for every registered type (builtins included), in
// TypeID order. Side tables indexed by TypeID (census counters, per-type
// gauges) use it to stay in sync with the registry.
func (r *Registry) ForEachType(fn func(*TypeInfo)) {
	for _, t := range r.types {
		if t != nil && t.ID != TInvalid {
			fn(t)
		}
	}
}

// Name returns the name of a type, tolerating unknown IDs (for diagnostics).
func (r *Registry) Name(id TypeID) string {
	if int(id) < len(r.types) && r.types[id] != nil {
		return r.types[id].Name
	}
	return fmt.Sprintf("<type %d>", id)
}
