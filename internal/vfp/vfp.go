// Package vfp is a virtual forwarding plane in the mould of the vMX Virtual
// Router (§3.1 of the paper): "the VFP runs the Microcode engine optimized
// for x86 environments". It executes assembled Microcode programs against
// real UDP traffic — each received datagram is reframed as a synthetic
// Ethernet/IPv4/UDP packet (restoring the headers the kernel stripped),
// processed by a software PPE thread backed by real shared-memory and
// hash-engine instances, and, when the program's verdict is forward,
// relayed to a downstream UDP address.
package vfp

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/smem"
)

// Config parameterizes a VFP instance.
type Config struct {
	// ListenAddr receives traffic, e.g. "127.0.0.1:0".
	ListenAddr string
	// ForwardAddr receives packets the program forwards ("" drops them with
	// a warning).
	ForwardAddr string
	// Program is the assembled Microcode program; Entry selects its entry
	// label ("" = first instruction).
	Program *microcode.Program
	Entry   string
	// HeadBytes is the head split (default 192, as on the chip).
	HeadBytes int
	// Setup initializes thread registers per packet (dispatch metadata);
	// the default loads the frame length into r1.
	Setup func(th *microcode.Thread, frameLen int)
	// Logger receives operational messages; nil uses slog.Default.
	Logger *slog.Logger
}

// Stats counts VFP activity; fields are updated atomically.
type Stats struct {
	Received  uint64
	Forwarded uint64
	Dropped   uint64
	Consumed  uint64
	Errors    uint64
}

// VFP is a running virtual forwarding plane.
type VFP struct {
	cfg      Config
	compiled *microcode.Compiled
	conn     *net.UDPConn
	out      *net.UDPConn
	log      *slog.Logger

	// The software engine state mirrors a PFE's: shared memory and hash
	// engine instances shared by all packet threads, guarded by a mutex
	// (the x86 VFP serializes where the chip's engines would).
	mu   sync.Mutex
	Mem  *smem.Memory
	Hash *hasheng.Table
	now  sim.Time         // virtual clock advanced per packet
	env  vfpEnv           // the one software PPE thread's XTXN targets ...
	th   microcode.Thread // ... and its state, reset per packet under mu

	stats   Stats
	closed  chan struct{}
	stopped sync.WaitGroup
}

// New starts a VFP. The program is lowered through the v2 compile/verify
// pipeline up front, so a program the static verifier rejects never
// reaches live traffic.
func New(cfg Config) (*VFP, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("vfp: no program")
	}
	compiled, err := microcode.Compile(cfg.Program)
	if err != nil {
		return nil, fmt.Errorf("vfp: compile: %w", err)
	}
	if cfg.HeadBytes == 0 {
		cfg.HeadBytes = 192
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("vfp: resolve listen: %w", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("vfp: listen: %w", err)
	}
	v := &VFP{
		cfg: cfg, compiled: compiled, conn: conn, log: cfg.Logger,
		Mem:    smem.New(smem.Config{}),
		Hash:   hasheng.NewTable(hasheng.Config{}),
		closed: make(chan struct{}),
	}
	v.env.v = v
	if cfg.ForwardAddr != "" {
		dst, err := net.ResolveUDPAddr("udp", cfg.ForwardAddr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("vfp: resolve forward: %w", err)
		}
		v.out, err = net.DialUDP("udp", nil, dst)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("vfp: dial forward: %w", err)
		}
	}
	v.stopped.Add(1)
	go v.loop()
	return v, nil
}

// Addr reports the bound listen address.
func (v *VFP) Addr() *net.UDPAddr { return v.conn.LocalAddr().(*net.UDPAddr) }

// Snapshot returns current counters.
func (v *VFP) Snapshot() Stats {
	return Stats{
		Received:  atomic.LoadUint64(&v.stats.Received),
		Forwarded: atomic.LoadUint64(&v.stats.Forwarded),
		Dropped:   atomic.LoadUint64(&v.stats.Dropped),
		Consumed:  atomic.LoadUint64(&v.stats.Consumed),
		Errors:    atomic.LoadUint64(&v.stats.Errors),
	}
}

// Close stops the plane and releases its sockets.
func (v *VFP) Close() error {
	select {
	case <-v.closed:
		return nil
	default:
	}
	close(v.closed)
	err := v.conn.Close()
	if v.out != nil {
		v.out.Close()
	}
	v.stopped.Wait()
	return err
}

func (v *VFP) loop() {
	defer v.stopped.Done()
	buf := make([]byte, 65536)
	local := v.Addr()
	for {
		n, from, err := v.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-v.closed:
			default:
				v.log.Warn("vfp: read", "err", err)
			}
			return
		}
		v.handle(buf[:n], from, local)
	}
}

// handle reframes one datagram and runs the program over it.
func (v *VFP) handle(payload []byte, from, local *net.UDPAddr) {
	atomic.AddUint64(&v.stats.Received, 1)
	frame := packet.BuildUDP(packet.UDPSpec{
		SrcMAC: packet.MACFromUint64(0x0200_0000_0001),
		DstMAC: packet.MACFromUint64(0x0200_0000_0002),
		SrcIP:  ip4(from.IP), DstIP: ip4(local.IP),
		SrcPort: uint16(from.Port), DstPort: uint16(local.Port),
	}, payload)

	hl := len(frame)
	if hl > v.cfg.HeadBytes {
		hl = v.cfg.HeadBytes
	}
	v.mu.Lock()
	v.now += sim.Microsecond // coarse virtual clock: one tick per packet
	v.env.tail = frame[hl:]
	th := &v.th
	th.Reset(&v.env, v.now)
	th.LoadHead(frame[:hl])
	if v.cfg.Setup != nil {
		v.cfg.Setup(th, len(frame))
	} else {
		th.Regs[1] = uint64(len(frame))
	}
	verdict, err := microcode.RunCompiled(v.compiled, th, v.entry())
	if err == nil {
		copy(frame, th.LMem[:hl]) // unload the possibly-rewritten head
	}
	v.mu.Unlock()

	if err != nil {
		atomic.AddUint64(&v.stats.Errors, 1)
		v.log.Warn("vfp: program error", "err", err)
		return
	}
	switch verdict {
	case microcode.VerdictForward:
		atomic.AddUint64(&v.stats.Forwarded, 1)
		if v.out != nil {
			// Relay the (possibly rewritten) UDP payload downstream; the
			// synthetic L2/L3 headers stay on this host, as on any router
			// hop.
			off := packet.EthernetLen + packet.IPv4MinLen + packet.UDPLen
			if _, err := v.out.Write(frame[off:]); err != nil {
				v.log.Warn("vfp: forward", "err", err)
			}
		}
	case microcode.VerdictConsume:
		atomic.AddUint64(&v.stats.Consumed, 1)
	default:
		atomic.AddUint64(&v.stats.Dropped, 1)
	}
}

func (v *VFP) entry() string {
	if v.cfg.Entry != "" {
		return v.cfg.Entry
	}
	return v.cfg.Program.Instrs[0].Label
}

func ip4(ip net.IP) [4]byte {
	var out [4]byte
	if v4 := ip.To4(); v4 != nil {
		copy(out[:], v4)
	}
	return out
}

// vfpEnv adapts the VFP's software engines to microcode.Env. It runs under
// v.mu, matching the serialization the chip's engines provide in hardware.
type vfpEnv struct {
	v     *VFP
	tail  []byte
	reply [smem.MaxTxnBytes]byte // MemRead staging: a reply lives until the next Env call
}

func (e *vfpEnv) MemRead(now sim.Time, addr uint64, size int) ([]byte, sim.Time) {
	return e.v.Mem.ReadStaged(now, addr, size, &e.reply)
}
func (e *vfpEnv) MemWrite(now sim.Time, addr uint64, data []byte) sim.Time {
	return e.v.Mem.Write(now, addr, data)
}
func (e *vfpEnv) CounterInc(now sim.Time, addr uint64, pktLen uint32) sim.Time {
	return e.v.Mem.CounterInc(now, addr, pktLen)
}
func (e *vfpEnv) ReadTail(now sim.Time, off, size int) ([]byte, sim.Time) {
	return microcode.ClipTail(e.tail, off, size), now
}
func (e *vfpEnv) WriteTail(now sim.Time, off int, data []byte) sim.Time {
	if off >= 0 && off < len(e.tail) {
		copy(e.tail[off:], data)
	}
	return now
}
func (e *vfpEnv) HashLookup(now sim.Time, key uint64) (uint64, bool, sim.Time) {
	return e.v.Hash.Lookup(now, key)
}
func (e *vfpEnv) HashInsert(now sim.Time, key, val uint64) (bool, sim.Time) {
	return e.v.Hash.Insert(now, key, val)
}
func (e *vfpEnv) HashDelete(now sim.Time, key uint64) (bool, sim.Time) {
	return e.v.Hash.Delete(now, key)
}
