// Package trioml implements Trio-ML, the paper's in-network aggregation
// application (§4), together with the timer-thread straggler mitigation of
// §5. It runs as a native application on internal/trio/pfe with explicit
// instruction accounting calibrated to the paper's Microcode analysis
// (§6.3: ≈60 static instructions; ≈1.2 run-time instructions per gradient in
// the tail-aggregation loop).
package trioml

import (
	"encoding/binary"

	"github.com/trioml/triogo/internal/aggcore"
	"github.com/trioml/triogo/internal/bitfield"
	"github.com/trioml/triogo/internal/sim"
)

// JobBlockID is the pseudo block id under which a job record is keyed in the
// aggregation hash table ("JOB_ID = 1, BLOCK_ID = -1" in Fig. 9).
const JobBlockID = 0xFFFFFFFF

// ResultSrcID marks a packet as an aggregation result rather than a worker
// contribution; first-level PFEs use it to recognize results arriving from a
// top-level aggregator for local distribution.
const ResultSrcID = 0xFF

// MaxSources is the number of workers a job's source bitmask can describe
// (four 64-bit mask words, Appendix A.1).
const MaxSources = 256

// Key packs (job, block) into a hash-engine key.
func Key(jobID uint8, blockID uint32) uint64 {
	return uint64(jobID)<<32 | uint64(blockID)
}

// SplitKey recovers (job, block) from a hash key.
func SplitKey(k uint64) (jobID uint8, blockID uint32) {
	return uint8(k >> 32), uint32(k)
}

// jobLayout is trio_ml_job_ctx_t (Fig. 17): 58 bytes. It and blockLayout are
// the spec of the fixed-offset codecs below, and the by-name oracle their
// tests hold them to.
var jobLayout = bitfield.NewLayout(
	bitfield.Field{Name: "block_curr_cnt", Width: 16},
	bitfield.Field{Name: "block_cnt_max", Width: 12},
	bitfield.Field{Name: "block_grad_max", Width: 12},
	bitfield.Field{Name: "block_exp", Width: 8}, // milliseconds
	bitfield.Field{Name: "block_total_cnt", Width: 32},
	bitfield.Field{Name: "out_src_addr", Width: 32},
	bitfield.Field{Name: "out_dst_addr", Width: 32},
	bitfield.Field{Name: "out_nh_addr", Width: 32},
	bitfield.Field{Name: "", Width: 24},
	bitfield.Field{Name: "src_cnt", Width: 8},
	bitfield.Field{Name: "src_mask_0", Width: 64},
	bitfield.Field{Name: "src_mask_1", Width: 64},
	bitfield.Field{Name: "src_mask_2", Width: 64},
	bitfield.Field{Name: "src_mask_3", Width: 64},
)

// blockLayout is trio_ml_block_ctx_t (Fig. 18): 58 bytes. The paper leaves a
// 24-bit alignment hole before rcvd_cnt; this implementation names 16 bits
// of it gen_id so a block record can distinguish consecutive iterations
// (the packet header's gen_id field exists for exactly this purpose, §4),
// and 4 bits of the hole before grad_cnt agg_age_op: the highest age_op
// carried by any contribution aggregated into the block, so hierarchical
// levels can propagate straggler provenance upward (which level of the tree
// aged out) without growing the record.
var blockLayout = bitfield.NewLayout(
	bitfield.Field{Name: "block_exp", Width: 8},
	bitfield.Field{Name: "block_age", Width: 8},
	bitfield.Field{Name: "block_start_time", Width: 64},
	bitfield.Field{Name: "job_ctx_paddr", Width: 32},
	bitfield.Field{Name: "aggr_paddr", Width: 32},
	bitfield.Field{Name: "", Width: 16},
	bitfield.Field{Name: "agg_age_op", Width: 4},
	bitfield.Field{Name: "grad_cnt", Width: 12},
	bitfield.Field{Name: "gen_id", Width: 16},
	bitfield.Field{Name: "", Width: 8},
	bitfield.Field{Name: "rcvd_cnt", Width: 8},
	bitfield.Field{Name: "rcvd_mask_0", Width: 64},
	bitfield.Field{Name: "rcvd_mask_1", Width: 64},
	bitfield.Field{Name: "rcvd_mask_2", Width: 64},
	bitfield.Field{Name: "rcvd_mask_3", Width: 64},
)

// RecordBytes is the size of both record structures (58 bytes per the
// paper); records are read and written as 64-byte memory transactions.
var RecordBytes = jobLayout.Bytes()

// recordTxnBytes rounds the record size up to the 8-byte transaction grain.
const recordTxnBytes = 64

// JobRecord is the decoded form of trio_ml_job_ctx_t.
type JobRecord struct {
	BlockCurrCnt  uint16
	BlockCntMax   uint16 // 12 bits
	BlockGradMax  uint16 // 12 bits
	BlockExpMs    uint8
	BlockTotalCnt uint32
	OutSrcAddr    uint32
	OutDstAddr    uint32
	OutNhAddr     uint32
	SrcCnt        uint8
	SrcMask       aggcore.Mask
}

// encode writes the record at jobLayout's byte offsets, as the Microcode
// assembler bakes them into instructions. block_cnt_max and block_grad_max
// share bytes 2-4, 12 bits each. The padding (bytes 22-24) and the bytes
// past the record in a 64-byte transaction are left as they were.
func (j *JobRecord) encode(b []byte) {
	_ = b[57] // the record's last byte: one bounds check for the fields below
	binary.BigEndian.PutUint16(b[0:], j.BlockCurrCnt)
	pair := uint32(j.BlockCntMax&0xFFF)<<12 | uint32(j.BlockGradMax&0xFFF)
	b[2], b[3], b[4] = byte(pair>>16), byte(pair>>8), byte(pair)
	b[5] = j.BlockExpMs
	binary.BigEndian.PutUint32(b[6:], j.BlockTotalCnt)
	binary.BigEndian.PutUint32(b[10:], j.OutSrcAddr)
	binary.BigEndian.PutUint32(b[14:], j.OutDstAddr)
	binary.BigEndian.PutUint32(b[18:], j.OutNhAddr)
	b[25] = j.SrcCnt
	for i, m := range j.SrcMask {
		binary.BigEndian.PutUint64(b[26+8*i:], m)
	}
}

// decodeJob reads a job record at the offsets encode writes.
func decodeJob(b []byte) JobRecord {
	_ = b[57] // the record's last byte: one bounds check for the fields below
	pair := uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4])
	j := JobRecord{
		BlockCurrCnt:  binary.BigEndian.Uint16(b[0:]),
		BlockCntMax:   uint16(pair >> 12),
		BlockGradMax:  uint16(pair) & 0xFFF,
		BlockExpMs:    b[5],
		BlockTotalCnt: binary.BigEndian.Uint32(b[6:]),
		OutSrcAddr:    binary.BigEndian.Uint32(b[10:]),
		OutDstAddr:    binary.BigEndian.Uint32(b[14:]),
		OutNhAddr:     binary.BigEndian.Uint32(b[18:]),
		SrcCnt:        b[25],
	}
	for i := range j.SrcMask {
		j.SrcMask[i] = binary.BigEndian.Uint64(b[26+8*i:])
	}
	return j
}

// BlockRecord is the decoded form of trio_ml_block_ctx_t.
type BlockRecord struct {
	BlockExpMs     uint8
	BlockAge       uint8
	BlockStartTime sim.Time
	JobCtxPAddr    uint32
	AggrPAddr      uint32
	AggAgeOp       uint8  // 4 bits: max age_op over aggregated contributions
	GradCnt        uint16 // 12 bits
	GenID          uint16
	RcvdCnt        uint8
	RcvdMask       aggcore.Mask
}

// encode writes the record at blockLayout's byte offsets. agg_age_op and
// grad_cnt share bytes 20-21, 4 and 12 bits. The padding (bytes 18-19 and
// 24) and the bytes past the record in a 64-byte transaction are left as
// they were.
func (r *BlockRecord) encode(b []byte) {
	_ = b[57] // the record's last byte: one bounds check for the fields below
	b[0], b[1] = r.BlockExpMs, r.BlockAge
	binary.BigEndian.PutUint64(b[2:], uint64(r.BlockStartTime))
	binary.BigEndian.PutUint32(b[10:], r.JobCtxPAddr)
	binary.BigEndian.PutUint32(b[14:], r.AggrPAddr)
	binary.BigEndian.PutUint16(b[20:], uint16(r.AggAgeOp&0xF)<<12|r.GradCnt&0xFFF)
	binary.BigEndian.PutUint16(b[22:], r.GenID)
	b[25] = r.RcvdCnt
	for i, m := range r.RcvdMask {
		binary.BigEndian.PutUint64(b[26+8*i:], m)
	}
}

// decodeBlock reads a block record at the offsets encode writes.
func decodeBlock(b []byte) BlockRecord {
	_ = b[57] // the record's last byte: one bounds check for the fields below
	pair := binary.BigEndian.Uint16(b[20:])
	r := BlockRecord{
		BlockExpMs:     b[0],
		BlockAge:       b[1],
		BlockStartTime: sim.Time(binary.BigEndian.Uint64(b[2:])),
		JobCtxPAddr:    binary.BigEndian.Uint32(b[10:]),
		AggrPAddr:      binary.BigEndian.Uint32(b[14:]),
		AggAgeOp:       uint8(pair >> 12),
		GradCnt:        pair & 0xFFF,
		GenID:          binary.BigEndian.Uint16(b[22:]),
		RcvdCnt:        b[25],
	}
	for i := range r.RcvdMask {
		r.RcvdMask[i] = binary.BigEndian.Uint64(b[26+8*i:])
	}
	return r
}
