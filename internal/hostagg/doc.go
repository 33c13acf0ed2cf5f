// Package hostagg is the host-side realization of Trio-ML: the same
// aggregation protocol (trio_ml_hdr_t over UDP, Fig. 7/8) served by a real
// net.UDPConn instead of simulated PFE hardware. It exists because the
// paper's data plane requires Juniper silicon; the host aggregator exercises
// the protocol logic — block records, source bitmaps, generation handling,
// straggler timeouts with partial results — on a stack anyone can run,
// including the vMX-style x86 deployment path the paper describes (§3.1).
//
// The wire format is the UDP payload produced by packet.TrioML followed by
// big-endian int32 gradients; a frame built for the simulator can be
// replayed here by stripping its Ethernet/IPv4/UDP headers.
//
// # Table and shell
//
// Table is the block table and everything around the per-contribution
// decision, which is aggcore.Decide's: the block map, tenant quotas, the
// overload ladder, the replay cache, counters. It owns no
// socket, no goroutine and no clock; Handle(now, payload, from, send) and
// Sweep(now, send) take the instant and the way out as arguments, so what a
// table does is a function of its inputs (nothing it decides follows map
// order) and it can be driven at wall-clock time or at instants a simulation
// chooses. Server is the UDP shell: it binds one socket and runs one loop
// calling Handle(time.Now(), ...) and Sweep(time.Now(), ...) — the only place
// the server side reads the clock or touches a socket.
//
// # Server architecture
//
//   - The server is one loop: one goroutine reads one socket, hands each
//     datagram to Handle, and runs Sweep once the clock passes the next
//     sweep instant — like §5's timer threads, which share the packet
//     threads' PPEs rather than owning one. A read deadline at that instant,
//     set once per sweep, wakes the loop when no traffic arrives; with aging
//     off there is none. A second server on the same port fails to bind.
//   - One lock: the block map, the replay cache, the fault stream and the
//     worker registry sit behind one table mutex. Every send — results,
//     replays, NACKs — happens after it is released, so no syscall is made
//     while holding it. Per-hash shards never measured faster than one lock
//     (EXPERIMENTS.md), so the table has none.
//   - Aging: one sweep passes over the block records (the host analogue of
//     §5's timer threads), clearing REF flags and emitting degraded partials.
//   - Lock-free stats: counters are sync/atomic and never touch the table
//     mutex; Stats() is a consistent-enough snapshot for telemetry.
//   - Bursts on the wire: the server's loop owns a batch. The send it hands the
//     table copies each datagram into that destination's open run, and the
//     loop flushes once per receive buffer and once per sweep, so a burst
//     costs one write per destination: a UDP_SEGMENT (GSO) run of equal-sized
//     datagrams, the last possibly shorter. Receive sockets turn on UDP_GRO,
//     so a run arrives as one buffer that the loop splits at the reported
//     segment size and hands to Handle one datagram at a time. The client
//     sends through the same batch, marshaling blocks straight into it. A
//     socket that refuses GSO falls back to one datagram per write for good;
//     off Linux every write is one datagram. Run buffers are reused, so a
//     warm batch does not allocate.
//
// # Wire-protocol invariants
//
// The hot path enforces the following invariants (each regression-tested):
//
//   - internal/aggcore decides each contribution, as it does on the PFE. A
//     generation restart is a close, then an open through a new block's
//     admission (ServerStats.GenRestarts); a contribution whose gradient
//     count differs from its open generation's is refused (GradMismatch).
//   - The table keeps wire lanes, never []int32, summed (packet.AddLanes)
//     behind headroom that the result header fills; the replay cache keeps
//     that datagram, which nothing writes again.
//   - The client is one loop around Reduce, an allreduce with no socket or
//     clock: AllReduce reads its own socket, read deadline at Wake. A socket
//     error fails AllReduce; Close makes it return net.ErrClosed.
//   - Each result is decoded straight into its block's slice of the output
//     vector and rescaled there if degraded. A result for a block not yet
//     sent answers it: the block is never sent and frees no window slot.
//     Results used by no block — another generation, a duplicate, out of
//     range, truncated, over-long — are counted in ClientStats.Dropped.
//   - A retry-after NACK starts a back-off: a deadline, not a sleep, and one
//     per burst of NACKs. Then every unanswered block is resent at once.
package hostagg
