package vfp

import (
	"io"
	"log/slog"
	"net"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/microcode"
)

// portFilter drops datagrams whose first payload byte is 0xFF, counts drops
// in a Packet/Byte Counter, and forwards the rest. The UDP payload begins at
// byte 42 of the synthetic frame.
const portFilter = `
program payload_filter;

define DROP_CNT = 0x2000;

reg pkt_len = r1;

check:
begin
    if (lmem8[42] == 0xFF) { goto count; }
    exit(forward);
end

count:
begin
    counter_inc(DROP_CNT, pkt_len);
    exit(drop);
end
`

func startVFP(t *testing.T, forward string) *VFP {
	t.Helper()
	v, err := New(Config{
		ListenAddr:  "127.0.0.1:0",
		ForwardAddr: forward,
		Program:     microcode.MustAssemble(portFilter),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

func sink(t *testing.T) (*net.UDPConn, chan []byte) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	out := make(chan []byte, 64)
	go func() {
		buf := make([]byte, 65536)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				close(out)
				return
			}
			out <- append([]byte(nil), buf[:n]...)
		}
	}()
	return conn, out
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestVFPFiltersRealTraffic(t *testing.T) {
	sinkConn, got := sink(t)
	v := startVFP(t, sinkConn.LocalAddr().String())

	client, err := net.DialUDP("udp", nil, v.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	client.Write([]byte{0x01, 'o', 'k'})
	client.Write([]byte{0xFF, 'b', 'a', 'd'})
	client.Write([]byte{0x02, 'o', 'k', '2'})

	waitFor(t, func() bool { s := v.Snapshot(); return s.Forwarded == 2 && s.Dropped == 1 })

	// The two forwarded payloads arrive downstream intact and in order.
	first := <-got
	second := <-got
	if string(first) != "\x01ok" || string(second) != "\x02ok2" {
		t.Fatalf("downstream payloads = %q, %q", first, second)
	}

	// The drop counter in the VFP's software shared memory advanced: one
	// packet, its full synthetic frame length (42 + 4 payload bytes).
	pkts, bytes := v.Mem.Counter(0x2000)
	if pkts != 1 || bytes != 42+4 {
		t.Fatalf("drop counter = (%d,%d)", pkts, bytes)
	}
}

func TestVFPWithoutForwardAddr(t *testing.T) {
	v := startVFP(t, "")
	client, err := net.DialUDP("udp", nil, v.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Write([]byte{0x01})
	waitFor(t, func() bool { return v.Snapshot().Forwarded == 1 })
}

func TestVFPStatefulProgramAcrossPackets(t *testing.T) {
	// A program that admits a source only after it has been seen before
	// (hash-engine state persists across packets, as on the chip).
	prog := microcode.MustAssemble(`
greylist:
begin
    r2 = lmem32[26];      // synthetic IPv4 source address
    hash_lookup(r2);
    if (hit) { exit(forward); }
    goto remember;
end
remember:
begin
    hash_insert(r2, 1);
    exit(drop);
end
`)
	v, err := New(Config{ListenAddr: "127.0.0.1:0", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	client, err := net.DialUDP("udp", nil, v.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Write([]byte("first"))
	waitFor(t, func() bool { return v.Snapshot().Dropped == 1 })
	client.Write([]byte("second"))
	waitFor(t, func() bool { return v.Snapshot().Forwarded == 1 })
}

func TestVFPProgramErrorsCounted(t *testing.T) {
	// A runaway loop exhausts the instruction budget; the packet is
	// dropped and the error counted, the plane stays up.
	prog := microcode.MustAssemble(`
loop: begin
    goto loop;
end
`)
	v, err := New(Config{ListenAddr: "127.0.0.1:0", Program: prog,
		Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	client, _ := net.DialUDP("udp", nil, v.Addr())
	defer client.Close()
	client.Write([]byte("x"))
	waitFor(t, func() bool { return v.Snapshot().Errors == 1 })
	client.Write([]byte("y"))
	waitFor(t, func() bool { return v.Snapshot().Errors == 2 })
}

func TestVFPConfigValidation(t *testing.T) {
	if _, err := New(Config{ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("nil program accepted")
	}
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestVFPCloseIdempotentAndEntryOverride(t *testing.T) {
	prog := microcode.MustAssemble(`
alt: begin
    exit(consume);
end
main: begin
    exit(drop);
end
`)
	setupSeen := false
	v, err := New(Config{
		ListenAddr: "127.0.0.1:0", Program: prog, Entry: "alt",
		Setup: func(th *microcode.Thread, frameLen int) {
			setupSeen = true
			th.Regs[1] = uint64(frameLen)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := net.DialUDP("udp", nil, v.Addr())
	defer client.Close()
	client.Write([]byte("x"))
	waitFor(t, func() bool { return v.Snapshot().Consumed == 1 })
	if !setupSeen {
		t.Fatal("setup callback not invoked")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVFPBadAddresses(t *testing.T) {
	prog := microcode.MustAssemble(`s: begin exit(drop); end`)
	if _, err := New(Config{ListenAddr: "not-an-addr", Program: prog}); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if _, err := New(Config{ListenAddr: "127.0.0.1:0", ForwardAddr: "also-bad", Program: prog}); err == nil {
		t.Fatal("bad forward address accepted")
	}
}

// A negative tail offset computed by the program used to slice
// tail[-10:...] — a Go runtime panic on the receive goroutine that took the
// whole plane down. It must read nothing and the packet must go on.
func TestVFPNegativeTailOffset(t *testing.T) {
	prog := microcode.MustAssemble(`
program negtail;
s: begin
    r15 = 2;
    goto calc;
end
calc: begin
    r16 = r15 * 64 - 138;
    goto rd;
end
rd: begin
    tail_read(r16, 64, 320);
    goto wr;
end
wr: begin
    tail_write(r16, 64, 320);
    if (lmem64[320] == 0) { exit(forward); }
    exit(drop);
end
`)
	v, err := New(Config{ListenAddr: "127.0.0.1:0", Program: prog, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	payload := make([]byte, 400) // reframed: 192-byte head, 250-byte tail
	for i := range payload {
		payload[i] = 0xA5
	}
	// Drive the handler directly: nothing is in flight on the socket, so the
	// receive loop is parked and the verdict is observable without waiting.
	v.handle(payload, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4000}, v.Addr())
	if st := v.Snapshot(); st.Forwarded != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want the packet forwarded with nothing read into local memory", st)
	}
}
