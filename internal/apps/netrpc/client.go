package netrpc

import (
	"encoding/binary"
	"fmt"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/trio/hasheng"
)

// RPCKey derives the 64-bit idempotency key from (method, canonicalized
// args) by folding the argument bytes through the hash engine's Mix64
// finalizer. Two clients issuing the same call collide on it by
// construction — which is what coalescing and caching key on — and
// unrelated calls spread uniformly over the slot space.
func RPCKey(method uint16, args []byte) uint64 {
	h := hasheng.Mix64(uint64(method) + 0x9E3779B97F4A7C15)
	for len(args) > 0 {
		var word uint64
		n := len(args)
		if n > 8 {
			n = 8
		}
		for i := 0; i < n; i++ {
			word = word<<8 | uint64(args[i])
		}
		args = args[n:]
		h = hasheng.Mix64(h ^ word)
	}
	if h == 0 { // key 0 is the free-slot sentinel in the record tag
		h = 1
	}
	return h
}

// Client builds request frames for one RPC client. ID doubles as the
// client's port on the service PFE — the cache addresses replies (and
// coalesced-fanout replicas) by forwarding to port client_id.
type Client struct {
	ID   uint16
	Spec packet.UDPSpec
}

// Request serializes a netrpc request for method(args), padded to the
// service's fixed cell size so a cache hit can rewrite it into the
// response in place.
func (c *Client) Request(method uint16, args []byte) []byte {
	if len(args) > defaultCell {
		panic(fmt.Sprintf("netrpc: %d args bytes exceed the %d-byte cell", len(args), defaultCell))
	}
	cell := make([]byte, defaultCell)
	copy(cell, args)
	return packet.BuildNetRPC(c.Spec, packet.NetRPC{
		Op:       packet.NetRPCRequest,
		ClientID: c.ID,
		Method:   method,
		RPCID:    RPCKey(method, args),
	}, cell)
}

// ParseResponse decodes a frame delivered to a client, returning the
// netrpc header and result payload.
func ParseResponse(frame []byte) (packet.NetRPC, []byte, error) {
	f, err := packet.Decode(frame)
	if err != nil {
		return packet.NetRPC{}, nil, err
	}
	var h packet.NetRPC
	rest, err := h.Unmarshal(f.Payload)
	if err != nil {
		return packet.NetRPC{}, nil, err
	}
	if h.Op != packet.NetRPCResponse {
		return h, nil, fmt.Errorf("netrpc: op %d is not a response", h.Op)
	}
	if int(h.PayloadLen) > len(rest) {
		return h, nil, fmt.Errorf("netrpc: %w: payload_len %d, %d bytes", packet.ErrTruncated, h.PayloadLen, len(rest))
	}
	return h, rest[:h.PayloadLen], nil
}

// Origin is the simulated origin server behind the cache: a deterministic
// executor for idempotent RPCs. Handle turns a request frame into the
// response frame the server would send back through the PFE, computed by
// DefaultCompute.
type Origin struct {
	Served int // requests executed
}

// DefaultCompute fills the result cell with a method/args digest stream —
// deterministic, distinct per call, and cheap to verify on the client.
func DefaultCompute(method uint16, args []byte, respBytes int) []byte {
	out := make([]byte, respBytes)
	seed := RPCKey(method, args) ^ 0xA5A5A5A5A5A5A5A5
	for i := 0; i < respBytes; i += 8 {
		seed = hasheng.Mix64(seed)
		binary.BigEndian.PutUint64(out[i:], seed)
	}
	return out
}

// Handle executes the request in frame and returns the response frame, or
// nil for frames that are not netrpc requests.
func (o *Origin) Handle(frame []byte) []byte {
	f, err := packet.Decode(frame)
	if err != nil {
		return nil
	}
	var h packet.NetRPC
	rest, err := h.Unmarshal(f.Payload)
	if err != nil || h.Op != packet.NetRPCRequest {
		return nil
	}
	respBytes := len(rest)
	args := rest
	if int(h.PayloadLen) <= len(rest) {
		args = rest[:h.PayloadLen]
	}
	o.Served++
	return packet.BuildNetRPC(packet.UDPSpec{}, packet.NetRPC{
		Op:       packet.NetRPCResponse,
		ClientID: h.ClientID,
		Method:   h.Method,
		RPCID:    h.RPCID,
	}, DefaultCompute(h.Method, args, respBytes))
}
