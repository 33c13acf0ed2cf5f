package packet

import (
	"encoding/binary"
	"fmt"

	"github.com/trioml/triogo/internal/bitfield"
)

// TrioMLHeaderLen is the serialized trio_ml_hdr_t size (Fig. 8: 12 bytes).
const TrioMLHeaderLen = 12

// MaxGradientsPerPacket is the largest gradient block one packet carries
// (Fig. 7: up to 4096 bytes = 1024 32-bit gradients).
const MaxGradientsPerPacket = 1024

// TrioMLLayout is the bit-exact layout of trio_ml_hdr_t from Fig. 8: the
// spec of MarshalTo and Unmarshal, which bake its offsets in, and the by-name
// oracle their tests and fuzzers hold them to.
var TrioMLLayout = bitfield.NewLayout(
	bitfield.Field{Name: "job_id", Width: 8},
	bitfield.Field{Name: "block_id", Width: 32},
	bitfield.Field{Name: "age_op", Width: 4},
	bitfield.Field{Name: "final", Width: 1},
	bitfield.Field{Name: "degraded", Width: 1},
	bitfield.Field{Name: "", Width: 2}, // unused for byte alignment
	bitfield.Field{Name: "src_id", Width: 8},
	bitfield.Field{Name: "src_cnt", Width: 8},
	bitfield.Field{Name: "gen_id", Width: 16},
	bitfield.Field{Name: "", Width: 4}, // room to expand grad_cnt
	bitfield.Field{Name: "grad_cnt", Width: 12},
)

// TrioML is the aggregation header that follows UDP in Trio-ML packets.
// Field semantics follow §4–§5 of the paper.
type TrioML struct {
	JobID    uint8  // aggregation job id
	BlockID  uint32 // aggregation block id
	AgeOp    uint8  // 4 bits: whether the block has aged out
	Final    bool   // block is the job's final block
	Degraded bool   // aggregation is partial (straggler mitigation)
	SrcID    uint8  // source id of the packet
	SrcCnt   uint8  // number of sources contributing
	GenID    uint16 // generation id (iteration number)
	GradCnt  uint16 // 12 bits: number of gradients in this packet
}

// MarshalTo writes the header into b[:TrioMLHeaderLen] and returns that
// length. Like the Microcode assembler, it bakes TrioMLLayout's offsets in:
// the first 8 bytes are job_id, block_id, age_op, final, degraded, two
// reserved bits, src_id and src_cnt; the last 4 are gen_id, four reserved
// bits and grad_cnt. Reserved bits are written as zero, and AgeOp and GradCnt
// are cut to their 4 and 12 bits.
func (h *TrioML) MarshalTo(b []byte) int {
	_ = b[TrioMLHeaderLen-1]
	binary.BigEndian.PutUint64(b, uint64(h.JobID)<<56|uint64(h.BlockID)<<24|
		uint64(h.AgeOp&0xF)<<20|boolBit(h.Final)<<19|boolBit(h.Degraded)<<18|
		uint64(h.SrcID)<<8|uint64(h.SrcCnt))
	binary.BigEndian.PutUint32(b[8:], uint32(h.GenID)<<16|uint32(h.GradCnt&0xFFF))
	return TrioMLHeaderLen
}

// Unmarshal reads the header from b's first TrioMLHeaderLen bytes, at the
// offsets MarshalTo writes, ignoring the reserved bits, and returns the rest.
func (h *TrioML) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < TrioMLHeaderLen {
		return nil, fmt.Errorf("trioml: %w (%d bytes)", ErrTruncated, len(b))
	}
	w, x := binary.BigEndian.Uint64(b), binary.BigEndian.Uint32(b[8:])
	*h = TrioML{
		JobID:    uint8(w >> 56),
		BlockID:  uint32(w >> 24),
		AgeOp:    uint8(w>>20) & 0xF,
		Final:    w>>19&1 != 0,
		Degraded: w>>18&1 != 0,
		SrcID:    uint8(w >> 8),
		SrcCnt:   uint8(w),
		GenID:    uint16(x >> 16),
		GradCnt:  uint16(x) & 0xFFF,
	}
	return b[TrioMLHeaderLen:], nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PutGradients serializes gradients as big-endian int32 values (the ATP-style
// fixed-point representation the paper adopts) into b and returns the byte
// count. b must hold 4*len(grads) bytes.
func PutGradients(b []byte, grads []int32) int {
	putGradients(b, grads)
	return 4 * len(grads)
}

// putGradients is PutGradients returning the partial Internet-checksum sum of
// the bytes it wrote (each 32-bit lane is congruent to its two 16-bit words;
// see sum16), two lanes per store.
func putGradients(b []byte, grads []int32) (acc uint64) {
	for ; len(grads) >= 2 && len(b) >= 8; b, grads = b[8:], grads[2:] {
		hi, lo := uint64(uint32(grads[0])), uint64(uint32(grads[1]))
		binary.BigEndian.PutUint64(b, hi<<32|lo)
		acc += hi + lo
	}
	for i, g := range grads {
		binary.BigEndian.PutUint32(b[4*i:], uint32(g))
		acc += uint64(uint32(g))
	}
	return acc
}

// Gradients parses count big-endian int32 gradients from b.
func Gradients(b []byte, count int) ([]int32, error) {
	if len(b) < 4*count {
		return nil, fmt.Errorf("gradients: %w (%d bytes for %d gradients)", ErrTruncated, len(b), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// laneTops holds the sign bit of both big-endian int32 lanes of a word.
const laneTops = 0x8000000080000000

// add2 adds the two big-endian int32 lanes of s into those of d, each modulo
// 2³²: with every lane's top bit masked off neither low sum carries into the
// lane above, and the top bits are then added without carry (xor).
func add2(d, s []byte) {
	x, y := binary.BigEndian.Uint64(d), binary.BigEndian.Uint64(s)
	binary.BigEndian.PutUint64(d, (x&^laneTops+y&^laneTops)^((x^y)&laneTops))
}

// AddLanes is the one int32 lane add: it adds the big-endian lanes of src
// into dst in place, two per 8-byte word, whole 64-byte chunks unrolled. dst
// and src have the same length, a multiple of 4.
func AddLanes(dst, src []byte) {
	for len(dst) >= 64 {
		d, s := dst[:64:64], src[:64:64]
		add2(d[0:8], s[0:8])
		add2(d[8:16], s[8:16])
		add2(d[16:24], s[16:24])
		add2(d[24:32], s[24:32])
		add2(d[32:40], s[32:40])
		add2(d[40:48], s[40:48])
		add2(d[48:56], s[48:56])
		add2(d[56:64], s[56:64])
		dst, src = dst[64:], src[64:]
	}
	for len(dst) >= 8 {
		add2(dst[:8], src[:8])
		dst, src = dst[8:], src[8:]
	}
	if len(dst) >= 4 {
		binary.BigEndian.PutUint32(dst, binary.BigEndian.Uint32(dst)+binary.BigEndian.Uint32(src))
	}
}

// DecodeLanes writes the big-endian int32 lanes of src into dst, two lanes
// per 8-byte load; src holds 4*len(dst) bytes.
func DecodeLanes(dst []int32, src []byte) {
	for ; len(dst) >= 2; dst, src = dst[2:], src[8:] {
		w := binary.BigEndian.Uint64(src)
		dst[0], dst[1] = int32(w>>32), int32(w)
	}
	if len(dst) == 1 {
		dst[0] = int32(binary.BigEndian.Uint32(src))
	}
}
