package tcpnet

import (
	"net"
	"testing"

	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/ipcstest"
)

// TestCarveBoundary pins the large-message cutoff: a message of exactly
// arenaSize/4 bytes must get its own allocation, not a carve, so one big
// frame cannot burn a quarter of a fresh arena.
func TestCarveBoundary(t *testing.T) {
	a := &recvArena{buf: make([]byte, arenaSize)}
	backing := &a.buf[0]

	big := a.carve(arenaSize / 4)
	if len(big) != arenaSize/4 {
		t.Fatalf("carve(%d) returned %d bytes", arenaSize/4, len(big))
	}
	if &big[0] == backing {
		t.Error("message of exactly arenaSize/4 was carved from the arena; want own allocation")
	}
	if len(a.buf) != arenaSize {
		t.Errorf("arena consumed %d bytes by a boundary-size message", arenaSize-len(a.buf))
	}

	small := a.carve(arenaSize/4 - 1)
	if &small[0] != backing {
		t.Error("message one byte under the boundary was not carved from the arena")
	}
}

// TestCarveRefill drives an arena to exhaustion and checks the refill:
// the next carve must succeed with the full requested length and come
// from a fresh backing array.
func TestCarveRefill(t *testing.T) {
	var a recvArena
	const n = 1000
	first := a.carve(n) // nil-buf arena refills on first carve
	if len(first) != n {
		t.Fatalf("carve(%d) from empty arena returned %d bytes", n, len(first))
	}
	for len(a.buf) >= n {
		a.carve(n)
	}
	got := a.carve(n)
	if len(got) != n {
		t.Fatalf("carve(%d) after exhaustion returned %d bytes", n, len(got))
	}
	if len(a.buf) != arenaSize-n {
		t.Errorf("refilled arena has %d bytes left, want %d", len(a.buf), arenaSize-n)
	}
}

// TestCarveExclusiveOwnership checks the aliasing contract across a
// refill: slices carved before the arena ran dry must not share bytes
// with slices carved after, and appending to a carved slice must
// reallocate (capacity clamp) rather than scribble on its neighbor.
func TestCarveExclusiveOwnership(t *testing.T) {
	var a recvArena
	var msgs [][]byte
	const n = 4096
	for i := 0; i < 2*arenaSize/n; i++ { // spans at least one refill
		m := a.carve(n)
		for j := range m {
			m[j] = byte(i)
		}
		msgs = append(msgs, m)
	}
	for i, m := range msgs {
		if cap(m) != n {
			t.Fatalf("msg %d: cap = %d, want clamped to %d", i, cap(m), n)
		}
		for j, b := range m {
			if b != byte(i) {
				t.Fatalf("msg %d byte %d = %d: carved slices alias", i, j, b)
			}
		}
	}
	// Appending must not touch the next carve's bytes.
	grown := append(msgs[0], 0xFF)
	if &grown[0] == &msgs[0][0] {
		t.Error("append grew in place past the capacity clamp")
	}
	if msgs[1][0] != 1 {
		t.Error("append to msg 0 corrupted msg 1")
	}
}

// TestConformanceNoEpoll runs the full IPCS contract suite with every
// socket's kernel buffers shrunk to tinySockBuf, so a large frame reaches
// the reader in many partial reads and it parks between them: the carry
// and re-park path that roomy loopback buffers rarely reach under
// TestConformance. (The name dates from the NTCS_NO_EPOLL switch that
// once forced a second, blocking reader; one reader is left.)
func TestConformanceNoEpoll(t *testing.T) {
	ipcstest.Run(t, func(t *testing.T) ipcs.Network {
		return tinyBufNet{New("tcp-tinybuf")}
	})
}

// tinySockBuf is the socket buffer size tinyBufNet asks for. Smaller
// windows (4 KiB) slow loopback TCP to a crawl — delayed ACKs against a
// silly-window-avoiding sender — and the 1 MiB LargeMessage case then
// misses its 5 s bound on any receive path.
const tinySockBuf = 16 << 10

// tinyBufNet is a Net whose dialed and accepted conns get tinySockBuf
// socket buffers.
type tinyBufNet struct{ *Net }

func (n tinyBufNet) Listen(hint string) (ipcs.Listener, error) {
	l, err := n.Net.Listen(hint)
	if err != nil {
		return nil, err
	}
	return tinyBufListener{l}, nil
}

func (n tinyBufNet) Dial(addr string) (ipcs.Conn, error) {
	return shrinkBufs(n.Net.Dial(addr))
}

type tinyBufListener struct{ ipcs.Listener }

func (l tinyBufListener) Accept() (ipcs.Conn, error) {
	return shrinkBufs(l.Listener.Accept())
}

func shrinkBufs(c ipcs.Conn, err error) (ipcs.Conn, error) {
	if err != nil {
		return c, err
	}
	tcp := c.(*conn).c.(*net.TCPConn)
	if err = tcp.SetReadBuffer(tinySockBuf); err == nil {
		err = tcp.SetWriteBuffer(tinySockBuf)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
