package hostagg

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"time"

	"github.com/trioml/triogo/internal/obs"
)

// Server is the UDP shell around a Table: it owns one socket and the one
// goroutine that reads it, and nothing else. Results are multicast by
// iterated unicast — host networks rarely have multicast set up.
type Server struct {
	tab  *Table
	conn *net.UDPConn
	done chan struct{} // closed when serve returns
}

// NewServer builds the block table, binds the socket and starts the loop
// that serves it.
func NewServer(cfg ServerConfig) (*Server, error) {
	tab, err := NewTable(cfg)
	if err != nil {
		return nil, err
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("hostagg: resolve %q: %w", cfg.ListenAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("hostagg: listen: %w", err)
	}
	enableGRO(conn)
	s := &Server{tab: tab, conn: conn, done: make(chan struct{})}
	go s.serve()
	return s, nil
}

// Addr reports the bound UDP address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Stats, TenantStats, Pending and RegisterObs read the table.
func (s *Server) Stats() ServerStats          { return s.tab.Stats() }
func (s *Server) TenantStats() []TenantStats  { return s.tab.TenantStats() }
func (s *Server) Pending() int                { return s.tab.Pending() }
func (s *Server) RegisterObs(r *obs.Registry) { s.tab.RegisterObs(r) }

// Close stops the loop and releases the socket. Closing twice is a no-op.
func (s *Server) Close() error {
	err := s.conn.Close()
	<-s.done
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// newBatch gives the loop its outgoing batch, and the send it hands the
// table: each datagram is copied into the batch, and the loop flushes it
// once per receive buffer or sweep. A failed write is logged and otherwise
// ignored, as UDP would have ignored it further down the path; only a GSO
// refusal goes back to the batch, which then resends the run datagram by
// datagram.
func (s *Server) newBatch() (*batch, func([]byte, *net.UDPAddr)) {
	write := runWriter(s.conn)
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

// serve is the server: it reads the socket one buffer at a time — with
// UDP_GRO, a whole run of datagrams — hands each datagram to the table at
// the buffer's arrival instant and flushes what the table sent. With aging
// on it also sweeps the table once the clock passes the next sweep instant,
// like §5's timer threads sharing the packet threads' PPEs; the read
// deadline, set there once per sweep, wakes it when no traffic arrives.
func (s *Server) serve() {
	defer close(s.done)
	out, send := s.newBatch()
	buf := make([]byte, 65536)
	oob := make([]byte, 64)
	var sweepAt time.Time // zero: aging off, no deadline
	if s.tab.cfg.Timeout > 0 {
		sweepAt = time.Now().Add(s.tab.cfg.ScanInterval)
		s.conn.SetReadDeadline(sweepAt)
	}
	for {
		n, oobn, _, from, err := s.conn.ReadMsgUDP(buf, oob)
		now := time.Now()
		switch {
		case err == nil:
			seg := groSegmentSize(oob[:oobn])
			for p := buf[:n]; ; {
				var d []byte
				d, p = nextSegment(p, seg)
				s.tab.Handle(now, d, from, send)
				if len(p) == 0 {
					break
				}
			}
			out.flush()
		case errors.Is(err, net.ErrClosed):
			return
		case !errors.Is(err, os.ErrDeadlineExceeded):
			s.tab.cfg.Logger.Warn("hostagg: read", "err", err)
		}
		if !sweepAt.IsZero() && !now.Before(sweepAt) {
			s.tab.Sweep(now, send)
			out.flush()
			sweepAt = now.Add(s.tab.cfg.ScanInterval)
			s.conn.SetReadDeadline(sweepAt)
		}
	}
}
