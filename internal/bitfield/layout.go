package bitfield

import "fmt"

// Field declares one member of a packed record: a name and a width in bits.
// An empty name declares anonymous padding ("unused for byte alignment" in
// the paper's struct listings).
type Field struct {
	Name  string
	Width uint
}

// Layout is a compiled packed-record description: an ordered list of fields,
// exactly mirroring the paper's Microcode struct declarations such as
// trio_ml_hdr_t (Fig. 8) and trio_ml_job_ctx_t (Fig. 17).
type Layout struct {
	fields  []Field
	offsets []uint
	index   map[string]int
	bits    uint
}

// NewLayout compiles an ordered field list. Duplicate non-empty names panic.
func NewLayout(fields ...Field) *Layout {
	l := &Layout{
		fields:  append([]Field(nil), fields...),
		offsets: make([]uint, len(fields)),
		index:   make(map[string]int, len(fields)),
	}
	for i, f := range fields {
		if f.Width == 0 {
			panic(fmt.Sprintf("bitfield: field %q has zero width", f.Name))
		}
		l.offsets[i] = l.bits
		l.bits += f.Width
		if f.Name == "" {
			continue // padding
		}
		if _, dup := l.index[f.Name]; dup {
			panic(fmt.Sprintf("bitfield: duplicate field %q", f.Name))
		}
		l.index[f.Name] = i
	}
	return l
}

// Bits reports the total layout width in bits.
func (l *Layout) Bits() uint { return l.bits }

// Bytes reports the record size in bytes, rounded up to a whole byte.
func (l *Layout) Bytes() int { return int((l.bits + 7) / 8) }

// Offset reports the bit offset of a named field.
func (l *Layout) Offset(name string) uint { return l.offsets[l.lookup(name)] }

// Width reports the bit width of a named field.
func (l *Layout) Width(name string) uint { return l.fields[l.lookup(name)].Width }

// Get reads a named field from record b.
func (l *Layout) Get(b []byte, name string) uint64 {
	i := l.lookup(name)
	return Get(b, l.offsets[i], l.fields[i].Width)
}

// Put writes a named field into record b.
func (l *Layout) Put(b []byte, name string, v uint64) {
	i := l.lookup(name)
	Put(b, l.offsets[i], l.fields[i].Width, v)
}

// New allocates a zeroed record of the layout's size.
func (l *Layout) New() []byte { return make([]byte, l.Bytes()) }

// Handle is a pre-resolved field reference: the name lookup is paid once at
// setup time, leaving Get as pure bit arithmetic.
type Handle struct {
	off   uint
	width uint
}

// Handle resolves a named field to a reusable reference.
func (l *Layout) Handle(name string) Handle {
	i := l.lookup(name)
	return Handle{off: l.offsets[i], width: l.fields[i].Width}
}

// Get reads the field from record b.
func (h Handle) Get(b []byte) uint64 { return Get(b, h.off, h.width) }

func (l *Layout) lookup(name string) int {
	i, ok := l.index[name]
	if !ok {
		panic(fmt.Sprintf("bitfield: unknown field %q", name))
	}
	return i
}
