package hostagg

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"github.com/trioml/triogo/internal/obs"
)

// Server is the UDP shell around a Table: it owns the sockets and the
// goroutines — RecvWorkers receive loops and one sweep loop — and nothing
// else. Results are multicast by iterated unicast — host networks rarely have
// multicast set up.
type Server struct {
	tab   *Table
	conns []*net.UDPConn // len > 1 only with SO_REUSEPORT

	closed  chan struct{}
	stopped sync.WaitGroup
}

// NewServer builds the block table, binds the socket(s) and starts the
// receive loops and, with aging on, the sweep loop.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.RecvWorkers <= 0 {
		cfg.RecvWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.RecvWorkers > 64 {
		return nil, fmt.Errorf("hostagg: recv workers must be <= 64, got %d", cfg.RecvWorkers)
	}
	tab, err := NewTable(cfg)
	if err != nil {
		return nil, err
	}
	cfg = tab.cfg // defaults filled in
	conns, err := bindSockets(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range conns {
		enableGRO(c)
	}
	s := &Server{tab: tab, conns: conns, closed: make(chan struct{})}
	for i := 0; i < cfg.RecvWorkers; i++ {
		s.stopped.Add(1)
		go s.recvLoop(conns[i%len(conns)])
	}
	if cfg.Timeout > 0 {
		s.stopped.Add(1)
		go s.sweepLoop(conns[0])
	}
	return s, nil
}

// bindSockets opens the receive sockets: RecvWorkers SO_REUSEPORT sockets
// where the platform supports it, otherwise one shared socket.
func bindSockets(cfg ServerConfig) ([]*net.UDPConn, error) {
	addr, err := net.ResolveUDPAddr("udp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("hostagg: resolve %q: %w", cfg.ListenAddr, err)
	}
	if reusePortSupported && cfg.RecvWorkers > 1 {
		first, err := listenReusePort("udp", cfg.ListenAddr)
		if err == nil {
			conns := []*net.UDPConn{first}
			// ListenAddr may carry port 0; later sockets must join the
			// concrete port the first socket landed on.
			bound := first.LocalAddr().String()
			for i := 1; i < cfg.RecvWorkers; i++ {
				c, cerr := listenReusePort("udp", bound)
				if cerr != nil {
					for _, open := range conns {
						open.Close()
					}
					return nil, fmt.Errorf("hostagg: reuseport socket %d: %w", i, cerr)
				}
				conns = append(conns, c)
			}
			return conns, nil
		}
		cfg.Logger.Warn("hostagg: SO_REUSEPORT bind failed, falling back to shared socket", "err", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("hostagg: listen: %w", err)
	}
	return []*net.UDPConn{conn}, nil
}

// Addr reports the bound UDP address.
func (s *Server) Addr() *net.UDPAddr { return s.conns[0].LocalAddr().(*net.UDPAddr) }

// NumSockets reports how many receive sockets are bound; more than one
// means SO_REUSEPORT fan-out is active.
func (s *Server) NumSockets() int { return len(s.conns) }

// Stats, TenantStats, Pending and RegisterObs read the table.
func (s *Server) Stats() ServerStats          { return s.tab.Stats() }
func (s *Server) TenantStats() []TenantStats  { return s.tab.TenantStats() }
func (s *Server) Pending() int                { return s.tab.Pending() }
func (s *Server) RegisterObs(r *obs.Registry) { s.tab.RegisterObs(r) }

// Close stops the loops and releases the sockets.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	var err error
	for _, c := range s.conns {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.stopped.Wait()
	return err
}

// newBatch gives one loop on conn its outgoing batch, and the send it hands
// the table: each datagram is copied into the batch, and the loop flushes it
// once per receive buffer or sweep. A failed write is logged and otherwise
// ignored, as UDP would have ignored it further down the path; only a GSO
// refusal goes back to the batch, which then resends the run datagram by
// datagram.
func (s *Server) newBatch(conn *net.UDPConn) (*batch, func([]byte, *net.UDPAddr)) {
	write := runWriter(conn)
	out := newBatch(func(p []byte, seg int, to netip.AddrPort) error {
		err := write(p, seg, to)
		if err != nil && !(seg > 0 && gsoRefused(err)) {
			s.tab.cfg.Logger.Warn("hostagg: send", "to", to, "err", err)
			return nil
		}
		return err
	})
	send := func(p []byte, to *net.UDPAddr) {
		// An IPv4 socket cannot write to an IPv4-mapped address.
		ap := to.AddrPort()
		d, _ := out.next(len(p), netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())) // the writer above absorbs every error
		copy(d, p)
	}
	return out, send
}

// recvLoop reads conn one buffer at a time — with UDP_GRO, a whole run of
// datagrams — hands each datagram to the table at the buffer's arrival
// instant, and then flushes what the table sent.
func (s *Server) recvLoop(conn *net.UDPConn) {
	defer s.stopped.Done()
	out, send := s.newBatch(conn)
	buf := make([]byte, 65536)
	oob := make([]byte, 64)
	for {
		n, oobn, _, from, err := conn.ReadMsgUDP(buf, oob)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.tab.cfg.Logger.Warn("hostagg: read", "err", err)
			continue
		}
		now, seg := time.Now(), groSegmentSize(oob[:oobn])
		for p := buf[:n]; ; {
			var d []byte
			d, p = nextSegment(p, seg)
			s.tab.Handle(now, d, from, send)
			if len(p) == 0 {
				break
			}
		}
		out.flush()
	}
}

// sweepLoop ticks the table's aging sweep every ScanInterval.
func (s *Server) sweepLoop(conn *net.UDPConn) {
	defer s.stopped.Done()
	out, send := s.newBatch(conn)
	ticker := time.NewTicker(s.tab.cfg.ScanInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
			s.tab.Sweep(time.Now(), send)
			out.flush()
		}
	}
}
