package hostagg

import (
	"net/netip"
	"slices"
)

// A run is what one write carries: up to maxRunSegs datagrams to one
// destination, all seg bytes long except possibly the last, which the kernel
// cuts apart again (GSO) or the receiver does at the UDP_GRO segment size.
const (
	maxRunSegs  = 64             // UDP_MAX_SEGMENTS on older kernels
	maxRunBytes = 65535 - 40 - 8 // one IPv6 payload, less the IP and UDP headers
	maxRunDests = 64             // destinations one batch holds runs for before it flushes
)

// forceNoGSO makes new batches write one datagram per run, as when the
// platform or the socket refuses GSO. Tests set it to run the fallback path.
var forceNoGSO bool

// batch gathers one goroutine's outgoing datagrams into per-destination runs.
// A datagram joins its destination's open run unless it cannot (see next);
// then that run is written and a new one starts. flush writes whatever is
// open. Run buffers are kept for the next burst, so a warm batch does not
// allocate.
type batch struct {
	write   func(p []byte, seg int, to netip.AddrPort) error // seg 0: p is one datagram
	maxSegs int                                              // maxRunSegs, or 1 once GSO is off
	runs    []run                                            // runs[:active] hold datagrams; the rest only buffers
	active  int
}

type run struct {
	to    netip.AddrPort
	buf   []byte
	seg   int  // length of the run's first datagram: the segment size
	n     int  // datagrams in buf
	short bool // the last datagram was shorter than seg, so the run is closed
}

func newBatch(write func(p []byte, seg int, to netip.AddrPort) error) *batch {
	b := &batch{write: write, maxSegs: maxRunSegs}
	if !gsoSupported || forceNoGSO {
		b.maxSegs = 1
	}
	return b
}

// next returns room for one n-byte datagram to to, which the caller fills
// before the next call. The destination's open run is written first when the
// datagram cannot join it: the run is closed by a shorter datagram, the new
// one is longer than the segment size or empty, or the run is at its segment
// or byte cap. An error is the write's.
func (b *batch) next(n int, to netip.AddrPort) ([]byte, error) {
	r, err := b.runFor(to)
	if err != nil {
		return nil, err
	}
	if r.n > 0 && (r.short || n == 0 || n > r.seg || r.n == b.maxSegs || len(r.buf)+n > maxRunBytes) {
		if err := b.send(r); err != nil {
			return nil, err
		}
	}
	if r.n == 0 {
		r.seg = n
	}
	r.short = n < r.seg
	r.n++
	at := len(r.buf)
	r.buf = slices.Grow(r.buf, n)[:at+n]
	return r.buf[at:], nil
}

// runFor finds to's run, or opens one — flushing first when the batch
// already holds maxRunDests of them.
func (b *batch) runFor(to netip.AddrPort) (*run, error) {
	for i := range b.runs[:b.active] {
		if b.runs[i].to == to {
			return &b.runs[i], nil
		}
	}
	if b.active == maxRunDests {
		if err := b.flush(); err != nil {
			return nil, err
		}
	}
	if b.active == len(b.runs) {
		b.runs = append(b.runs, run{})
	}
	r := &b.runs[b.active]
	b.active++
	r.to = to
	return r, nil
}

// flush writes every open run and empties the batch. It tries them all and
// returns the first error.
func (b *batch) flush() error {
	var err error
	for i := range b.runs[:b.active] {
		if e := b.send(&b.runs[i]); err == nil {
			err = e
		}
	}
	b.active = 0
	return err
}

// send writes r and empties it. A run of one is a plain write. A run the
// socket refuses as GSO turns GSO off for good, and it and any run still open
// go out one datagram at a time.
func (b *batch) send(r *run) error {
	p, seg, n := r.buf, r.seg, r.n
	r.buf, r.n, r.short = r.buf[:0], 0, false
	if n == 1 {
		return b.write(p, 0, r.to)
	}
	if b.maxSegs > 1 {
		err := b.write(p, seg, r.to)
		if !gsoRefused(err) {
			return err
		}
		b.maxSegs = 1
	}
	for len(p) > 0 {
		var d []byte
		d, p = nextSegment(p, seg)
		if err := b.write(d, 0, r.to); err != nil {
			return err
		}
	}
	return nil
}

// nextSegment splits the first datagram off a received buffer whose datagrams
// are seg bytes each, the last possibly shorter; seg <= 0 (no UDP_GRO control
// message) means the buffer is one datagram.
func nextSegment(p []byte, seg int) (d, rest []byte) {
	if seg <= 0 || seg >= len(p) {
		return p, nil
	}
	return p[:seg], p[seg:]
}
