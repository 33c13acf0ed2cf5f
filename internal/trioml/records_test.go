package trioml

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/trioml/triogo/internal/bitfield"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
)

// refEncodeJob and the other ref* functions are the record and header codecs
// written field by field through the layouts' names: the oracle the
// fixed-offset codecs are held to.
func refEncodeJob(j *JobRecord, b []byte) {
	jobLayout.Put(b, "block_curr_cnt", uint64(j.BlockCurrCnt))
	jobLayout.Put(b, "block_cnt_max", uint64(j.BlockCntMax))
	jobLayout.Put(b, "block_grad_max", uint64(j.BlockGradMax))
	jobLayout.Put(b, "block_exp", uint64(j.BlockExpMs))
	jobLayout.Put(b, "block_total_cnt", uint64(j.BlockTotalCnt))
	jobLayout.Put(b, "out_src_addr", uint64(j.OutSrcAddr))
	jobLayout.Put(b, "out_dst_addr", uint64(j.OutDstAddr))
	jobLayout.Put(b, "out_nh_addr", uint64(j.OutNhAddr))
	jobLayout.Put(b, "src_cnt", uint64(j.SrcCnt))
	for i, m := range j.SrcMask {
		jobLayout.Put(b, maskName("src_mask_", i), m)
	}
}

func refDecodeJob(b []byte) JobRecord {
	j := JobRecord{
		BlockCurrCnt:  uint16(jobLayout.Get(b, "block_curr_cnt")),
		BlockCntMax:   uint16(jobLayout.Get(b, "block_cnt_max")),
		BlockGradMax:  uint16(jobLayout.Get(b, "block_grad_max")),
		BlockExpMs:    uint8(jobLayout.Get(b, "block_exp")),
		BlockTotalCnt: uint32(jobLayout.Get(b, "block_total_cnt")),
		OutSrcAddr:    uint32(jobLayout.Get(b, "out_src_addr")),
		OutDstAddr:    uint32(jobLayout.Get(b, "out_dst_addr")),
		OutNhAddr:     uint32(jobLayout.Get(b, "out_nh_addr")),
		SrcCnt:        uint8(jobLayout.Get(b, "src_cnt")),
	}
	for i := range j.SrcMask {
		j.SrcMask[i] = jobLayout.Get(b, maskName("src_mask_", i))
	}
	return j
}

func refEncodeBlock(r *BlockRecord, b []byte) {
	blockLayout.Put(b, "block_exp", uint64(r.BlockExpMs))
	blockLayout.Put(b, "block_age", uint64(r.BlockAge))
	blockLayout.Put(b, "block_start_time", uint64(r.BlockStartTime))
	blockLayout.Put(b, "job_ctx_paddr", uint64(r.JobCtxPAddr))
	blockLayout.Put(b, "aggr_paddr", uint64(r.AggrPAddr))
	blockLayout.Put(b, "agg_age_op", uint64(r.AggAgeOp))
	blockLayout.Put(b, "grad_cnt", uint64(r.GradCnt))
	blockLayout.Put(b, "gen_id", uint64(r.GenID))
	blockLayout.Put(b, "rcvd_cnt", uint64(r.RcvdCnt))
	for i, m := range r.RcvdMask {
		blockLayout.Put(b, maskName("rcvd_mask_", i), m)
	}
}

func refDecodeBlock(b []byte) BlockRecord {
	r := BlockRecord{
		BlockExpMs:     uint8(blockLayout.Get(b, "block_exp")),
		BlockAge:       uint8(blockLayout.Get(b, "block_age")),
		BlockStartTime: sim.Time(blockLayout.Get(b, "block_start_time")),
		JobCtxPAddr:    uint32(blockLayout.Get(b, "job_ctx_paddr")),
		AggrPAddr:      uint32(blockLayout.Get(b, "aggr_paddr")),
		AggAgeOp:       uint8(blockLayout.Get(b, "agg_age_op")),
		GradCnt:        uint16(blockLayout.Get(b, "grad_cnt")),
		GenID:          uint16(blockLayout.Get(b, "gen_id")),
		RcvdCnt:        uint8(blockLayout.Get(b, "rcvd_cnt")),
	}
	for i := range r.RcvdMask {
		r.RcvdMask[i] = blockLayout.Get(b, maskName("rcvd_mask_", i))
	}
	return r
}

func maskName(prefix string, i int) string { return prefix + strconv.Itoa(i) }

// refMarshalML writes a header by name over b's first 12 bytes, reserved bits
// zero, as packet.TrioML.MarshalTo does.
func refMarshalML(h *packet.TrioML, b []byte) {
	l, rec := packet.TrioMLLayout, b[:packet.TrioMLHeaderLen]
	clear(rec)
	l.Put(rec, "job_id", uint64(h.JobID))
	l.Put(rec, "block_id", uint64(h.BlockID))
	l.Put(rec, "age_op", uint64(h.AgeOp))
	l.Put(rec, "final", oneIf(h.Final))
	l.Put(rec, "degraded", oneIf(h.Degraded))
	l.Put(rec, "src_id", uint64(h.SrcID))
	l.Put(rec, "src_cnt", uint64(h.SrcCnt))
	l.Put(rec, "gen_id", uint64(h.GenID))
	l.Put(rec, "grad_cnt", uint64(h.GradCnt))
}

func refUnmarshalML(b []byte) packet.TrioML {
	l := packet.TrioMLLayout
	return packet.TrioML{
		JobID:    uint8(l.Get(b, "job_id")),
		BlockID:  uint32(l.Get(b, "block_id")),
		AgeOp:    uint8(l.Get(b, "age_op")),
		Final:    l.Get(b, "final") != 0,
		Degraded: l.Get(b, "degraded") != 0,
		SrcID:    uint8(l.Get(b, "src_id")),
		SrcCnt:   uint8(l.Get(b, "src_cnt")),
		GenID:    uint16(l.Get(b, "gen_id")),
		GradCnt:  uint16(l.Get(b, "grad_cnt")),
	}
}

func oneIf(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// randJob and randBlock fill every field with random bits of the Go type's
// full width, so the 12- and 4-bit fields also get values they must cut.
func randJob(rng *rand.Rand) JobRecord {
	return JobRecord{
		BlockCurrCnt: uint16(rng.Uint32()), BlockCntMax: uint16(rng.Uint32()),
		BlockGradMax: uint16(rng.Uint32()), BlockExpMs: uint8(rng.Uint32()),
		BlockTotalCnt: rng.Uint32(), OutSrcAddr: rng.Uint32(), OutDstAddr: rng.Uint32(),
		OutNhAddr: rng.Uint32(), SrcCnt: uint8(rng.Uint32()),
		SrcMask: [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()},
	}
}

func randBlock(rng *rand.Rand) BlockRecord {
	return BlockRecord{
		BlockExpMs: uint8(rng.Uint32()), BlockAge: uint8(rng.Uint32()),
		BlockStartTime: sim.Time(rng.Uint64()), JobCtxPAddr: rng.Uint32(),
		AggrPAddr: rng.Uint32(), AggAgeOp: uint8(rng.Uint32()), GradCnt: uint16(rng.Uint32()),
		GenID: uint16(rng.Uint32()), RcvdCnt: uint8(rng.Uint32()),
		RcvdMask: [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()},
	}
}

// TestRecordCodecMatchesLayoutByName: encode writes, over whatever a 64-byte
// transaction held, the bytes the by-name layout writes — padding and bytes
// 58-63 untouched, 12- and 4-bit fields cut the same way at their width and
// one past it — and decode reads any 64 bytes as the by-name layout does.
func TestRecordCodecMatchesLayoutByName(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	jobs := []JobRecord{
		{},
		{BlockCntMax: 0xFFF, BlockGradMax: 0xFFF},
		{BlockCntMax: 0x1000, BlockGradMax: 0x1000}, // one past: truncates to zero
		{BlockCntMax: 0xFFFF, BlockGradMax: 0x1FFF},
		{BlockCntMax: 0x800, BlockGradMax: 1},
	}
	blocks := []BlockRecord{
		{},
		{AggAgeOp: 0xF, GradCnt: 0xFFF},
		{AggAgeOp: 0x10, GradCnt: 0x1000}, // one past: truncates to zero
		{AggAgeOp: 0xFF, GradCnt: 0xFFFF},
		{AggAgeOp: 8, GradCnt: 1},
	}
	for i := 0; i < 2000; i++ {
		jobs = append(jobs, randJob(rng))
		blocks = append(blocks, randBlock(rng))
	}
	got, want := make([]byte, recordTxnBytes), make([]byte, recordTxnBytes)
	for _, j := range jobs {
		rng.Read(got)
		copy(want, got)
		j.encode(got)
		refEncodeJob(&j, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: codec wrote %x, names %x", j, got, want)
		}
	}
	for _, r := range blocks {
		rng.Read(got)
		copy(want, got)
		r.encode(got)
		refEncodeBlock(&r, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: codec wrote %x, names %x", r, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		rng.Read(got)
		if j, want := decodeJob(got), refDecodeJob(got); j != want {
			t.Fatalf("%x: codec read job %+v, names %+v", got, j, want)
		}
		if r, want := decodeBlock(got), refDecodeBlock(got); r != want {
			t.Fatalf("%x: codec read block %+v, names %+v", got, r, want)
		}
	}
	j, r := jobs[len(jobs)-1], blocks[len(blocks)-1]
	if a := testing.AllocsPerRun(100, func() { j.encode(got); j = decodeJob(got); r.encode(got); r = decodeBlock(got) }); a != 0 {
		t.Fatalf("record round trip allocates %.1f times", a)
	}
}

// TestRecordCodecFieldOffsets: the byte offsets encode and decode hard-code
// are the layouts'. A record with one field all ones encodes, over zeros, to
// exactly the bits [Offset, Offset+Width) its layout gives that field, and
// those bits decode to that record; the named fields and the 24 padding bits
// of each figure tile the 58-byte record.
func TestRecordCodecFieldOffsets(t *testing.T) {
	jobFields := []struct {
		name string
		j    JobRecord
	}{
		{"block_curr_cnt", JobRecord{BlockCurrCnt: 0xFFFF}},
		{"block_cnt_max", JobRecord{BlockCntMax: 0xFFF}},
		{"block_grad_max", JobRecord{BlockGradMax: 0xFFF}},
		{"block_exp", JobRecord{BlockExpMs: 0xFF}},
		{"block_total_cnt", JobRecord{BlockTotalCnt: math.MaxUint32}},
		{"out_src_addr", JobRecord{OutSrcAddr: math.MaxUint32}},
		{"out_dst_addr", JobRecord{OutDstAddr: math.MaxUint32}},
		{"out_nh_addr", JobRecord{OutNhAddr: math.MaxUint32}},
		{"src_cnt", JobRecord{SrcCnt: 0xFF}},
		{"src_mask_0", JobRecord{SrcMask: [4]uint64{0: math.MaxUint64}}},
		{"src_mask_1", JobRecord{SrcMask: [4]uint64{1: math.MaxUint64}}},
		{"src_mask_2", JobRecord{SrcMask: [4]uint64{2: math.MaxUint64}}},
		{"src_mask_3", JobRecord{SrcMask: [4]uint64{3: math.MaxUint64}}},
	}
	bits := uint(24)
	for _, f := range jobFields {
		want := fieldBits(jobLayout, f.name)
		got := make([]byte, recordTxnBytes)
		f.j.encode(got)
		if !bytes.Equal(got, want) {
			t.Errorf("job %s: encodes to %x, layout bits are %x", f.name, got, want)
		}
		if back := decodeJob(want); back != f.j {
			t.Errorf("job %s: layout bits decode to %+v", f.name, back)
		}
		bits += jobLayout.Width(f.name)
	}
	if bits != jobLayout.Bits() {
		t.Errorf("job fields and padding cover %d bits, the layout has %d", bits, jobLayout.Bits())
	}

	blockFields := []struct {
		name string
		r    BlockRecord
	}{
		{"block_exp", BlockRecord{BlockExpMs: 0xFF}},
		{"block_age", BlockRecord{BlockAge: 0xFF}},
		{"block_start_time", BlockRecord{BlockStartTime: -1}},
		{"job_ctx_paddr", BlockRecord{JobCtxPAddr: math.MaxUint32}},
		{"aggr_paddr", BlockRecord{AggrPAddr: math.MaxUint32}},
		{"agg_age_op", BlockRecord{AggAgeOp: 0xF}},
		{"grad_cnt", BlockRecord{GradCnt: 0xFFF}},
		{"gen_id", BlockRecord{GenID: 0xFFFF}},
		{"rcvd_cnt", BlockRecord{RcvdCnt: 0xFF}},
		{"rcvd_mask_0", BlockRecord{RcvdMask: [4]uint64{0: math.MaxUint64}}},
		{"rcvd_mask_1", BlockRecord{RcvdMask: [4]uint64{1: math.MaxUint64}}},
		{"rcvd_mask_2", BlockRecord{RcvdMask: [4]uint64{2: math.MaxUint64}}},
		{"rcvd_mask_3", BlockRecord{RcvdMask: [4]uint64{3: math.MaxUint64}}},
	}
	bits = 24
	for _, f := range blockFields {
		want := fieldBits(blockLayout, f.name)
		got := make([]byte, recordTxnBytes)
		f.r.encode(got)
		if !bytes.Equal(got, want) {
			t.Errorf("block %s: encodes to %x, layout bits are %x", f.name, got, want)
		}
		if back := decodeBlock(want); back != f.r {
			t.Errorf("block %s: layout bits decode to %+v", f.name, back)
		}
		bits += blockLayout.Width(f.name)
	}
	if bits != blockLayout.Bits() {
		t.Errorf("block fields and padding cover %d bits, the layout has %d", bits, blockLayout.Bits())
	}
}

// fieldBits is a 64-byte transaction with only the named field's bits set.
func fieldBits(l *bitfield.Layout, name string) []byte {
	b := make([]byte, recordTxnBytes)
	off, width := l.Offset(name), l.Width(name)
	for i := off; i < off+width; i++ {
		b[i/8] |= 0x80 >> (i % 8)
	}
	return b
}

// FuzzTrioMLCodec: on any bytes, the fixed-offset header, job and block
// codecs decode what the by-name layouts read, and re-encode — with the
// out-of-width bits of the 12- and 4-bit fields set from the transaction's
// spare bytes 58-63 — to what the by-name layouts write.
func FuzzTrioMLCodec(f *testing.F) {
	hdr := make([]byte, packet.TrioMLHeaderLen)
	(&packet.TrioML{JobID: 1, BlockID: 7, AgeOp: 2, Final: true, SrcID: 2, GenID: 3, GradCnt: 1024}).MarshalTo(hdr)
	f.Add(hdr)
	rec := make([]byte, recordTxnBytes)
	(&JobRecord{BlockCurrCnt: 3, BlockCntMax: 4095, BlockGradMax: 1024, SrcCnt: 6, SrcMask: [4]uint64{0x3F}}).encode(rec)
	f.Add(rec)
	rec = make([]byte, recordTxnBytes)
	(&BlockRecord{BlockStartTime: 123456789, AggAgeOp: 3, GradCnt: 0xFFF, RcvdMask: [4]uint64{0x1F}}).encode(rec)
	f.Add(rec)
	f.Add(bytes.Repeat([]byte{0xFF}, recordTxnBytes))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var txn [recordTxnBytes]byte
		copy(txn[:], data)
		spare := txn[RecordBytes:] // bytes 58-63: high bits for the narrow fields

		var h packet.TrioML
		if _, err := h.Unmarshal(txn[:]); err != nil {
			t.Fatal(err)
		}
		if want := refUnmarshalML(txn[:]); h != want {
			t.Fatalf("%x: header codec read %+v, names %+v", txn[:packet.TrioMLHeaderLen], h, want)
		}
		h.AgeOp |= spare[0] &^ 0xF
		h.GradCnt |= uint16(spare[1]) << 8 &^ 0xFFF
		got, want := txn, txn
		h.MarshalTo(got[:])
		refMarshalML(&h, want[:])
		if got != want {
			t.Fatalf("%+v: header codec wrote %x, names %x", h, got, want)
		}

		j := decodeJob(txn[:])
		if want := refDecodeJob(txn[:]); j != want {
			t.Fatalf("%x: job codec read %+v, names %+v", txn, j, want)
		}
		j.BlockCntMax |= uint16(spare[2]) << 8 &^ 0xFFF
		j.BlockGradMax |= uint16(spare[3]) << 8 &^ 0xFFF
		got, want = txn, txn
		j.encode(got[:])
		refEncodeJob(&j, want[:])
		if got != want {
			t.Fatalf("%+v: job codec wrote %x, names %x", j, got, want)
		}

		r := decodeBlock(txn[:])
		if want := refDecodeBlock(txn[:]); r != want {
			t.Fatalf("%x: block codec read %+v, names %+v", txn, r, want)
		}
		r.AggAgeOp |= spare[4] &^ 0xF
		r.GradCnt |= uint16(spare[5]) << 8 &^ 0xFFF
		got, want = txn, txn
		r.encode(got[:])
		refEncodeBlock(&r, want[:])
		if got != want {
			t.Fatalf("%+v: block codec wrote %x, names %x", r, got, want)
		}
	})
}

var (
	sinkJob   JobRecord
	sinkBlock BlockRecord
)

// BenchmarkRecordCodec times one encode and one decode of a job record and
// of a block record in a 64-byte transaction, which must allocate nothing.
func BenchmarkRecordCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	j, r := randJob(rng), randBlock(rng)
	buf := make([]byte, recordTxnBytes)
	if a := testing.AllocsPerRun(100, func() {
		j.encode(buf)
		sinkJob = decodeJob(buf)
		r.encode(buf)
		sinkBlock = decodeBlock(buf)
	}); a != 0 {
		b.Fatalf("record round trip allocates %.1f times", a)
	}
	for b.Loop() {
		j.BlockTotalCnt++
		j.encode(buf)
		sinkJob = decodeJob(buf)
		r.GenID++
		r.encode(buf)
		sinkBlock = decodeBlock(buf)
	}
}
