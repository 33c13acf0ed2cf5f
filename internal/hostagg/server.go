package hostagg

import (
	"errors"
	"fmt"
	"net"
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

// sender is the table's way out through conn: a failed write is logged and
// otherwise ignored, as UDP would have ignored it further down the path.
func (s *Server) sender(conn *net.UDPConn) func([]byte, *net.UDPAddr) {
	return func(b []byte, to *net.UDPAddr) {
		if _, err := conn.WriteToUDP(b, to); err != nil {
			s.tab.cfg.Logger.Warn("hostagg: send", "to", to, "err", err)
		}
	}
}

func (s *Server) recvLoop(conn *net.UDPConn) {
	defer s.stopped.Done()
	send := s.sender(conn)
	buf := make([]byte, 65536)
	for {
		n, from, err := conn.ReadFromUDP(buf)
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
		s.tab.Handle(time.Now(), buf[:n], from, send)
	}
}

// sweepLoop ticks the table's aging sweep every ScanInterval.
func (s *Server) sweepLoop(conn *net.UDPConn) {
	defer s.stopped.Done()
	send := s.sender(conn)
	ticker := time.NewTicker(s.tab.cfg.ScanInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
			s.tab.Sweep(time.Now(), send)
		}
	}
}
