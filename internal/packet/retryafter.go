package packet

import (
	"encoding/binary"
	"fmt"
)

// Source-id values with special meaning in server→client traffic. Contribution
// packets carry real source ids (0..63, bounded by the 64-bit receive mask);
// the top two values are reserved for the reverse direction.
const (
	// ResultSrcID marks an aggregated-result packet (the server speaking).
	ResultSrcID = 0xFF
	// CtrlSrcID marks a server→client control packet; today the only control
	// type is the retry-after NACK the admission ladder emits when it refuses
	// a contribution.
	CtrlSrcID = 0xFE
)

// Retry-after reason codes, carried in the TrioML header's AgeOp field of a
// CtrlSrcID packet.
const (
	// RetryReasonQuota: the sender's tenant is over one of its own quotas
	// (open blocks, bytes in flight, or packet rate).
	RetryReasonQuota = 1
	// RetryReasonOverload: the server is in the overload rung of its
	// degradation ladder and refused new-block admission globally.
	RetryReasonOverload = 2
)

// RetryAfterLen is the serialized retry-after record size.
const RetryAfterLen = 4

// RetryAfter is the payload of a CtrlSrcID packet: the back-off the server
// suggests before the client retries the refused contribution. The header's
// JobID/BlockID/GenID echo the refused packet so the client can attribute the
// NACK; AgeOp carries the reason code.
type RetryAfter struct {
	Millis uint32 // suggested back-off in milliseconds
}

func (r *RetryAfter) MarshalTo(b []byte) int {
	binary.BigEndian.PutUint32(b, r.Millis)
	return RetryAfterLen
}

func (r *RetryAfter) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < RetryAfterLen {
		return nil, fmt.Errorf("retryafter: %w (%d bytes)", ErrTruncated, len(b))
	}
	r.Millis = binary.BigEndian.Uint32(b)
	return b[RetryAfterLen:], nil
}

// BuildRetryAfter marshals a complete retry-after NACK: the TrioML header of
// the refused contribution with SrcID swapped to CtrlSrcID and AgeOp set to
// the reason, followed by the RetryAfter record.
func BuildRetryAfter(h TrioML, reason uint8, millis uint32) []byte {
	h.SrcID = CtrlSrcID
	h.AgeOp = reason
	h.GradCnt = 0
	buf := make([]byte, TrioMLHeaderLen+RetryAfterLen)
	h.MarshalTo(buf)
	(&RetryAfter{Millis: millis}).MarshalTo(buf[TrioMLHeaderLen:])
	return buf
}
