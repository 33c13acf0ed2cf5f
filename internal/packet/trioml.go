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

// trioMLLayout is the bit-exact layout of trio_ml_hdr_t from Fig. 8.
var trioMLLayout = bitfield.NewLayout(
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

// Pre-resolved field handles: the header codec runs per packet, so the name
// lookups are paid once here (the names stay the layout's, for listings and
// docs) and MarshalTo/Unmarshal are pure bit arithmetic.
var mlF = struct {
	jobID, blockID, ageOp, final, degraded, srcID, srcCnt, genID, gradCnt bitfield.Handle
}{
	jobID:    trioMLLayout.Handle("job_id"),
	blockID:  trioMLLayout.Handle("block_id"),
	ageOp:    trioMLLayout.Handle("age_op"),
	final:    trioMLLayout.Handle("final"),
	degraded: trioMLLayout.Handle("degraded"),
	srcID:    trioMLLayout.Handle("src_id"),
	srcCnt:   trioMLLayout.Handle("src_cnt"),
	genID:    trioMLLayout.Handle("gen_id"),
	gradCnt:  trioMLLayout.Handle("grad_cnt"),
}

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

func (h *TrioML) MarshalTo(b []byte) int {
	rec := b[:TrioMLHeaderLen]
	clear(rec)
	mlF.jobID.Put(rec, uint64(h.JobID))
	mlF.blockID.Put(rec, uint64(h.BlockID))
	mlF.ageOp.Put(rec, uint64(h.AgeOp))
	mlF.final.Put(rec, boolBit(h.Final))
	mlF.degraded.Put(rec, boolBit(h.Degraded))
	mlF.srcID.Put(rec, uint64(h.SrcID))
	mlF.srcCnt.Put(rec, uint64(h.SrcCnt))
	mlF.genID.Put(rec, uint64(h.GenID))
	mlF.gradCnt.Put(rec, uint64(h.GradCnt))
	return TrioMLHeaderLen
}

func (h *TrioML) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < TrioMLHeaderLen {
		return nil, fmt.Errorf("trioml: %w (%d bytes)", ErrTruncated, len(b))
	}
	rec := b[:TrioMLHeaderLen]
	h.JobID = uint8(mlF.jobID.Get(rec))
	h.BlockID = uint32(mlF.blockID.Get(rec))
	h.AgeOp = uint8(mlF.ageOp.Get(rec))
	h.Final = mlF.final.Get(rec) != 0
	h.Degraded = mlF.degraded.Get(rec) != 0
	h.SrcID = uint8(mlF.srcID.Get(rec))
	h.SrcCnt = uint8(mlF.srcCnt.Get(rec))
	h.GenID = uint16(mlF.genID.Get(rec))
	h.GradCnt = uint16(mlF.gradCnt.Get(rec))
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

// AddGradients adds count big-endian int32 gradients from b into dst in
// place — the allocation-free aggregation path for hot receive loops. Only
// min(count, len(dst)) values are added. b must hold 4*count bytes: the
// caller checks the payload length against the header's GradCnt first (as
// hostagg does with len(rest) != 4*GradCnt).
func AddGradients(dst []int32, b []byte, count int) {
	if count > len(dst) {
		count = len(dst)
	}
	for i := 0; i < count; i++ {
		dst[i] += int32(binary.BigEndian.Uint32(b[4*i:]))
	}
}
