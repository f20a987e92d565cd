package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/wire"
)

// maxFrame bounds accepted frame sizes (a full block batch fits well
// within it; anything larger is a protocol violation).
const maxFrame = 256 << 20

// readChunk is how far a frame's payload buffer may run ahead of the bytes
// that have arrived: the length prefix is untrusted until they do.
const readChunk = 1 << 20

const (
	dialTimeout = 5 * time.Second
	// writeTimeout bounds one frame's write. A peer that has not drained
	// its socket for this long is treated like a broken connection, so a
	// stalled receiver costs a sender one timeout, not its handler.
	writeTimeout = 5 * time.Second
)

// AddressBook resolves node ids to dialable addresses.
type AddressBook interface {
	Resolve(id wire.NodeID) (string, bool)
}

// StaticAddressBook is a fixed id -> address map.
type StaticAddressBook map[wire.NodeID]string

// Resolve implements AddressBook.
func (b StaticAddressBook) Resolve(id wire.NodeID) (string, bool) {
	addr, ok := b[id]
	return addr, ok
}

// TCPEndpoint implements Endpoint over real TCP connections with
// length-prefixed frames. Frame layout:
//
//	[4-byte big-endian length][4-byte big-endian sender id][wire message]
//
// Connections to a destination are created on first use and cached.
//
// Neither direction copies a received block. Send writes the frame header
// and message head (a built block is walked into it) from a pooled scratch
// buffer and decoded blocks' cached encodings (see package wire) as further
// elements of one vectored write. The reader gives each frame a buffer of
// its own and hands it over to the decoded message, whose byte fields and
// block encodings alias it; a forwarded block leaves as it arrived.
type TCPEndpoint struct {
	id      wire.NodeID
	book    AddressBook
	ln      net.Listener
	traffic *netmodel.Traffic
	start   time.Time
	// wobs, when set, must be backed by a concurrent registry: sends and
	// receives run on arbitrary connection goroutines.
	wobs *WireObs
	// writeTimeout is the constant of that name; a field so that a test can
	// see a stalled receiver time out without waiting five seconds.
	writeTimeout time.Duration

	handler atomic.Pointer[Handler] // read once per inbound frame

	mu    sync.Mutex
	conns map[wire.NodeID]*sendConn
	// all tracks every live connection — dialed and accepted — so Close
	// can unblock their reader goroutines.
	all    map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

type sendConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// ListenTCP starts an endpoint listening on addr (e.g. "127.0.0.1:0").
// traffic may be nil.
func ListenTCP(id wire.NodeID, addr string, book AddressBook, traffic *netmodel.Traffic) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &TCPEndpoint{
		id:           id,
		book:         book,
		ln:           ln,
		traffic:      traffic,
		start:        time.Now(),
		writeTimeout: writeTimeout,
		conns:        make(map[wire.NodeID]*sendConn),
		all:          make(map[net.Conn]struct{}),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// SetObs attaches a wire observer. It must be backed by a concurrent
// registry (obs.NewConcurrentRegistry); call before any traffic flows.
func (ep *TCPEndpoint) SetObs(w *WireObs) { ep.wobs = w }

// Addr returns the listening address (useful with ":0").
func (ep *TCPEndpoint) Addr() string { return ep.ln.Addr().String() }

// ID implements Endpoint.
func (ep *TCPEndpoint) ID() wire.NodeID { return ep.id }

// SetHandler implements Endpoint.
func (ep *TCPEndpoint) SetHandler(h Handler) { ep.handler.Store(&h) }

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: endpoint closed")

// frameBuf is Send's scratch: the bytes of the frame header and message
// head, and the vector handed to the connection — that head first, then the
// cached encoding of each decoded block the message carries. Pooled, so a
// send allocates nothing that grows with a decoded block.
type frameBuf struct {
	head []byte
	vec  net.Buffers
	// out is the view of vec that Buffers.WriteTo consumes (it advances the
	// slice it is called on). A field, so taking its address allocates
	// nothing.
	out net.Buffers
}

var frameBufs = sync.Pool{New: func() any { return &frameBuf{head: make([]byte, 0, 512)} }}

// release returns fb to the pool without the block encodings it pointed at.
// A head grown past 64 KB (by a built block, a Raft append, a view sample)
// is not worth pinning: that scratch is left to the collector.
func (fb *frameBuf) release() {
	if cap(fb.head) > 64<<10 {
		return
	}
	clear(fb.vec)
	fb.out = nil
	frameBufs.Put(fb)
}

// Send implements Endpoint.
func (ep *TCPEndpoint) Send(to wire.NodeID, msg wire.Message) error {
	sc, err := ep.connTo(to)
	if err != nil {
		return err
	}
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	// Element 0 is the head's place; the encoder appends the bodies after it.
	fb.head, fb.vec = wire.AppendMessage(fb.head[:8], append(fb.vec[:0], nil), msg)
	fb.vec[0] = fb.head
	size := 0
	for _, b := range fb.vec {
		size += len(b)
	}
	if size-4 > maxFrame {
		return fmt.Errorf("transport: send to %v: %v of %d bytes exceeds the frame limit", to, msg.Type(), size)
	}
	binary.BigEndian.PutUint32(fb.head[0:4], uint32(size-4))
	binary.BigEndian.PutUint32(fb.head[4:8], uint32(ep.id))
	fb.out = fb.vec

	sc.mu.Lock()
	// SetWriteDeadline fails only on a closed connection, and then so does
	// the write.
	_ = sc.conn.SetWriteDeadline(time.Now().Add(ep.writeTimeout))
	_, werr := fb.out.WriteTo(sc.conn) // one writev on a TCP connection
	sc.mu.Unlock()
	if werr != nil {
		// The connection went bad or the peer stopped reading. Part of the
		// frame may be on the wire, so the stream is out of step either
		// way: forget the connection and let the next send redial.
		ep.mu.Lock()
		if ep.conns[to] == sc {
			delete(ep.conns, to)
		}
		ep.mu.Unlock()
		_ = sc.conn.Close()
		if ep.wobs != nil {
			ep.wobs.SendError()
		}
		return fmt.Errorf("transport: send to %v: %w", to, werr)
	}
	if ep.traffic != nil {
		ep.traffic.Record(ep.id, to, msg.Type(), size, time.Since(ep.start))
	}
	if ep.wobs != nil {
		ep.wobs.Sent(time.Since(ep.start), ep.id, to, msg.Type(), size)
	}
	return nil
}

func (ep *TCPEndpoint) connTo(to wire.NodeID) (*sendConn, error) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, ErrClosed
	}
	if sc, ok := ep.conns[to]; ok {
		ep.mu.Unlock()
		return sc, nil
	}
	ep.mu.Unlock()

	addr, ok := ep.book.Resolve(to)
	if !ok {
		return nil, fmt.Errorf("transport: no address for %v", to)
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %v (%s): %w", to, addr, err)
	}

	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		_ = conn.Close()
		return nil, ErrClosed
	}
	if sc, ok := ep.conns[to]; ok { // lost the race; keep the existing one
		_ = conn.Close()
		return sc, nil
	}
	sc := &sendConn{conn: conn}
	ep.conns[to] = sc
	ep.all[conn] = struct{}{}
	// Outbound connections also carry inbound frames (full duplex).
	ep.wg.Add(1)
	go ep.readLoop(conn)
	return sc, nil
}

func (ep *TCPEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			_ = conn.Close()
			return
		}
		ep.all[conn] = struct{}{}
		ep.wg.Add(1)
		ep.mu.Unlock()
		go ep.readLoop(conn)
	}
}

func (ep *TCPEndpoint) readLoop(conn net.Conn) {
	defer ep.wg.Done()
	defer func() {
		_ = conn.Close()
		ep.mu.Lock()
		delete(ep.all, conn)
		ep.mu.Unlock()
	}()
	for {
		from, msg, size, err := readFrame(conn)
		if err != nil {
			// The stream cannot be resynchronised: drop the connection.
			var rej *frameError
			if errors.As(err, &rej) && ep.wobs != nil {
				ep.wobs.FrameRejected(rej.reason)
			}
			return
		}
		if h := ep.handler.Load(); h != nil && *h != nil {
			if ep.wobs != nil {
				ep.wobs.Received(time.Since(ep.start), from, ep.id, msg.Type(), size)
			}
			(*h)(from, msg)
		}
	}
}

// frameError is a frame the reader refused; reason labels the
// wire_frames_rejected_total counter. A stream that ends between frames is
// not one: readFrame returns the bare read error for it.
type frameError struct {
	reason string // "length", "truncated" or "decode"
	err    error
}

func (e *frameError) Error() string { return "transport: " + e.reason + " frame: " + e.err.Error() }
func (e *frameError) Unwrap() error { return e.err }

// readFrame reads one frame from r and decodes it. size is the frame's
// length on the wire, prefix included. The payload buffer is allocated here
// and never reused: the decoded message aliases it (wire.Unmarshal) and
// owns it from then on.
func readFrame(r io.Reader) (from wire.NodeID, msg wire.Message, size int, err error) {
	var hdr [4]byte
	if got, err := io.ReadFull(r, hdr[:]); err != nil {
		if got > 0 {
			err = &frameError{"truncated", err}
		}
		return 0, nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 4 || n > maxFrame {
		return 0, nil, 0, &frameError{"length", fmt.Errorf("prefix %d outside [4, %d]", n, maxFrame)}
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return 0, nil, 0, &frameError{"truncated", err}
	}
	if msg, err = wire.Unmarshal(payload[4:]); err != nil {
		return 0, nil, 0, &frameError{"decode", err}
	}
	return wire.NodeID(binary.BigEndian.Uint32(payload[:4])), msg, 4 + len(payload), nil
}

// readPayload reads exactly n bytes into a fresh buffer. Up to readChunk
// that is one allocation and one read. Beyond it the length prefix is not
// taken at its word: the bytes are collected a chunk at a time and joined
// once all of them have arrived, so a lying prefix costs at most readChunk
// more memory than the sender actually transmitted.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= readChunk {
		p := make([]byte, n)
		_, err := io.ReadFull(r, p)
		return p, err
	}
	var chunks [][]byte
	for got := 0; got < n; got += readChunk {
		c := make([]byte, min(n-got, readChunk))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
	}
	p := make([]byte, 0, n)
	for _, c := range chunks {
		p = append(p, c...)
	}
	return p, nil
}

// Close shuts the endpoint down and waits for its goroutines to exit.
func (ep *TCPEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	ep.conns = make(map[wire.NodeID]*sendConn)
	all := make([]net.Conn, 0, len(ep.all))
	for c := range ep.all {
		all = append(all, c)
	}
	ep.mu.Unlock()

	err := ep.ln.Close()
	for _, c := range all {
		_ = c.Close() // unblocks the reader goroutines
	}
	ep.wg.Wait()
	return err
}
