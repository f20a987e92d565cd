package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/wire"
)

// startPair brings up two TCP endpoints that know each other's addresses.
func startPair(t *testing.T, traffic *netmodel.Traffic) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	book := StaticAddressBook{}
	a, err := ListenTCP(0, "127.0.0.1:0", book, traffic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP(1, "127.0.0.1:0", book, traffic)
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	book[0] = a.Addr()
	book[1] = b.Addr()
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := startPair(t, nil)

	var mu sync.Mutex
	var got []wire.Message
	var from []wire.NodeID
	b.SetHandler(func(f wire.NodeID, m wire.Message) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, m)
		from = append(from, f)
	})

	for i := 0; i < 10; i++ {
		if err := a.Send(b.ID(), &wire.StateInfo{Height: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 10
	}, "10 messages")

	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		si, ok := m.(*wire.StateInfo)
		if !ok || si.Height != uint64(i) {
			t.Fatalf("message %d = %#v", i, m)
		}
		if from[i] != a.ID() {
			t.Fatalf("from = %v, want %v", from[i], a.ID())
		}
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := startPair(t, nil)
	var mu sync.Mutex
	gotA, gotB := 0, 0
	a.SetHandler(func(wire.NodeID, wire.Message) { mu.Lock(); gotA++; mu.Unlock() })
	b.SetHandler(func(wire.NodeID, wire.Message) { mu.Lock(); gotB++; mu.Unlock() })
	if err := a.Send(1, &wire.PullHello{Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(0, &wire.PullHello{Nonce: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return gotA == 1 && gotB == 1 }, "both directions")
}

func TestTCPCarriesBlocks(t *testing.T) {
	a, b := startPair(t, nil)
	var mu sync.Mutex
	var blk *wire.Data
	b.SetHandler(func(_ wire.NodeID, m wire.Message) {
		mu.Lock()
		defer mu.Unlock()
		if d, ok := m.(*wire.Data); ok {
			blk = d
		}
	})
	sent := &wire.Data{Block: testBlockTCP(3), Counter: 4}
	if err := a.Send(1, sent); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return blk != nil }, "block")
	mu.Lock()
	defer mu.Unlock()
	if blk.Counter != 4 || blk.Block.Num != 3 || blk.Block.Hash() != sent.Block.Hash() {
		t.Fatalf("got %+v", blk)
	}
}

// A built block leaves walked into the frame's head, and a state response
// that mixes decoded and built blocks as that head plus the decoded blocks'
// cached encodings and the built ones' own bodies. Either way a bare socket
// reads exactly wire.Marshal's bytes, and no built block keeps an encoding.
func TestTCPSendsBuiltAndDecodedBlocksAsMarshal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	frames := make(chan []byte, 2)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			var hdr [8]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			frame := append(hdr[:], make([]byte, binary.BigEndian.Uint32(hdr[:4])-4)...)
			if _, err := io.ReadFull(conn, frame[8:]); err != nil {
				return
			}
			frames <- frame
		}
	}()
	ep, err := ListenTCP(0, "127.0.0.1:0", StaticAddressBook{1: ln.Addr().String()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })

	dm, err := wire.Unmarshal(wire.Marshal(&wire.StateResponse{Batch: wire.NewBlockBatch(
		[]*ledger.Block{testBlockTCP(2), paperBlockTCP(4)})}))
	if err != nil {
		t.Fatal(err)
	}
	decoded := dm.(*wire.StateResponse).Blocks()
	built := []*ledger.Block{paperBlockTCP(1), testBlockTCP(3)}
	for _, m := range []wire.Message{
		&wire.Data{Block: built[0], Counter: 3},
		&wire.StateResponse{Batch: wire.NewBlockBatch([]*ledger.Block{built[0], decoded[0], built[1], decoded[1]})},
	} {
		if err := ep.Send(1, m); err != nil {
			t.Fatal(err)
		}
		select {
		case frame := <-frames:
			if want := frameOf(0, m); !bytes.Equal(frame, want) {
				t.Fatalf("%v: frame of %d bytes differs from the %d of wire.Marshal's", m.Type(), len(frame), len(want))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: no frame arrived", m.Type())
		}
	}
	for _, b := range built {
		if b.WireEncoding() != nil {
			t.Fatalf("built block %d kept an encoding after being sent", b.Num)
		}
	}
}

func TestTCPSendUnknownDestination(t *testing.T) {
	a, _ := startPair(t, nil)
	if err := a.Send(42, &wire.PullHello{}); err == nil {
		t.Fatal("send to unknown id succeeded")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, b := startPair(t, nil)
	_ = a.Close()
	if err := a.Send(b.ID(), &wire.PullHello{}); err == nil {
		t.Fatal("send after close succeeded")
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTCPTrafficAccounting(t *testing.T) {
	tr := netmodel.NewTraffic(time.Second)
	a, b := startPair(t, tr)
	var mu sync.Mutex
	got := 0
	b.SetHandler(func(wire.NodeID, wire.Message) { mu.Lock(); got++; mu.Unlock() })
	if err := a.Send(1, &wire.StateInfo{Height: 5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return got == 1 }, "delivery")
	if tr.CountOf(wire.TypeStateInfo) != 1 {
		t.Fatal("traffic not recorded")
	}
}

func testBlockTCP(num uint64) *ledger.Block {
	rw := ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte{1}}}}
	tx := &ledger.Transaction{
		ID:        ledger.ProposalDigest("c", "cc", rw, nil),
		Client:    "c",
		Chaincode: "cc",
		RWSet:     rw,
		Payload:   make([]byte, 128),
	}
	return &ledger.Block{Num: num, Txs: []*ledger.Transaction{tx}, DataHash: ledger.ComputeDataHash([]*ledger.Transaction{tx})}
}

// paperBlockTCP is a block of the paper's shape: 50 transactions of ~3.2 KB.
func paperBlockTCP(num uint64) *ledger.Block {
	txs := make([]*ledger.Transaction, 50)
	for i := range txs {
		payload := make([]byte, 3000)
		payload[0], payload[1] = byte(num), byte(i)
		rw := ledger.RWSet{
			Reads:  []ledger.KVRead{{Key: "asset", Version: ledger.Version{BlockNum: num, TxNum: uint32(i)}}},
			Writes: []ledger.KVWrite{{Key: "asset", Value: payload[:16]}},
		}
		txs[i] = &ledger.Transaction{
			ID:           ledger.ProposalDigest("client", "cc", rw, payload),
			Client:       "client",
			Chaincode:    "cc",
			RWSet:        rw,
			Endorsements: []ledger.Endorsement{{Org: "orgA", Name: "endorser0", Sig: make([]byte, 64)}},
			Payload:      payload,
		}
	}
	return &ledger.Block{Num: num, Txs: txs, DataHash: ledger.ComputeDataHash(txs), Sig: make([]byte, 64)}
}

// counter reads one counter of a registry, 0 if it was never bumped.
func counter(reg *obs.Registry, name string, labels ...string) float64 {
	v, _ := reg.Snapshot().Get(name, labels...)
	return v
}

// A peer that accepts and never reads must cost a sender one write timeout,
// not its goroutine: Send fails once the socket buffers are full and the
// deadline passes, the connection is dropped so that the next send redials,
// and sends to a healthy peer go through while the stalled one is blocked.
func TestTCPStalledReceiverDoesNotHangSend(t *testing.T) {
	stalled, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn // accepted, never read
	var heldMu sync.Mutex
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := stalled.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = stalled.Close()
		<-accepting
		for _, c := range held {
			_ = c.Close()
		}
	})

	a, b := startPair(t, nil)
	a.book.(StaticAddressBook)[2] = stalled.Addr().String()
	const timeout = 300 * time.Millisecond
	a.writeTimeout = timeout
	reg := obs.NewConcurrentRegistry()
	a.SetObs(NewWireObs(reg, nil))
	b.SetHandler(func(wire.NodeID, wire.Message) {})

	// One sender fills the stalled peer's socket buffers until a Send
	// fails; it reports when that Send started and ended.
	type span struct{ start, end time.Time }
	failed := make(chan span, 1)
	go func() {
		msg := &wire.Data{Block: paperBlockTCP(1)}
		for i := 0; i < 10000; i++ {
			start := time.Now()
			if err := a.Send(2, msg); err != nil {
				failed <- span{start, time.Now()}
				return
			}
		}
		close(failed) // never blocked: the test cannot tell anything
	}()
	// Another keeps sending to the healthy peer meanwhile.
	var healthy []span
	msg := &wire.Data{Block: paperBlockTCP(2)}
	var blocked span
	for done := false; !done; {
		start := time.Now()
		if err := a.Send(1, msg); err != nil {
			t.Fatalf("send to the healthy peer: %v", err)
		}
		healthy = append(healthy, span{start, time.Now()})
		select {
		case s, ok := <-failed:
			if !ok {
				t.Fatal("10000 blocks fit the socket buffers of a peer that never reads")
			}
			blocked, done = s, true
		default:
		}
	}
	if d := blocked.end.Sub(blocked.start); d < timeout || d > timeout+5*time.Second {
		t.Fatalf("the send that failed took %v, want about the %v write timeout", d, timeout)
	}
	during := 0
	for _, s := range healthy {
		if s.start.After(blocked.start) && s.end.Before(blocked.end) {
			during++
		}
	}
	if during == 0 {
		t.Fatalf("no send to the healthy peer completed during the %v another send spent blocked", blocked.end.Sub(blocked.start))
	}
	if got := counter(reg, "wire_send_errors_total"); got != 1 {
		t.Fatalf("wire_send_errors_total = %v, want 1", got)
	}
	// The failed connection is gone: the next send dials a fresh one, whose
	// empty buffers take the frame.
	if err := a.Send(2, &wire.StateInfo{Height: 1}); err != nil {
		t.Fatalf("send after the drop did not redial: %v", err)
	}
	waitFor(t, func() bool {
		heldMu.Lock()
		defer heldMu.Unlock()
		return len(held) == 2
	}, "the stalled peer to accept the redial")
}

// Every way the reader gives up on a connection is counted by reason.
func TestTCPRejectedFramesAreCounted(t *testing.T) {
	_, b := startPair(t, nil)
	reg := obs.NewConcurrentRegistry()
	b.SetObs(NewWireObs(reg, nil))
	delivered := make(chan wire.Message, 1)
	b.SetHandler(func(_ wire.NodeID, m wire.Message) { delivered <- m })

	good := frameOf(7, &wire.StateInfo{Height: 9})
	cases := []struct {
		reason string
		bytes  []byte
	}{
		{"length", []byte{0, 0, 0, 3, 1, 2, 3}},
		{"length", []byte{0xff, 0xff, 0xff, 0xff}},
		{"truncated", good[:len(good)-1]},
		{"truncated", good[:2]},
		{"decode", frameOf(7, &wire.StateInfo{Height: 9}, 0xEE)}, // trailing byte inside the frame
	}
	want := map[string]float64{}
	for _, c := range cases {
		conn, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// A good frame first: the connection works until the bad one.
		if _, err := conn.Write(append(append([]byte{}, good...), c.bytes...)); err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
		if m := <-delivered; m.(*wire.StateInfo).Height != 9 {
			t.Fatalf("good frame decoded as %#v", m)
		}
		want[c.reason]++
		waitFor(t, func() bool {
			return counter(reg, "wire_frames_rejected_total", "reason", c.reason) == want[c.reason]
		}, c.reason+" rejection to be counted")
	}
	// A connection closed between frames is not a rejection.
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write(good)
	_ = conn.Close()
	<-delivered
	_ = b.Close() // waits for the readers
	for reason, n := range want {
		if got := counter(reg, "wire_frames_rejected_total", "reason", reason); got != n {
			t.Errorf("wire_frames_rejected_total{reason=%q} = %v, want %v", reason, got, n)
		}
	}
}

// A block decodes lazily, but not loosely: a frame whose 37th of 50
// transactions spells a length with a padded varint is refused whole, as a
// decode rejection, before the handler sees the message.
func TestTCPRejectsNonCanonicalTransactionInBlock(t *testing.T) {
	_, b := startPair(t, nil)
	reg := obs.NewConcurrentRegistry()
	b.SetObs(NewWireObs(reg, nil))
	delivered := make(chan wire.Message, 2)
	b.SetHandler(func(_ wire.NodeID, m wire.Message) { delivered <- m })

	blk := paperBlockTCP(5)
	body := wire.Marshal(&wire.Data{Block: blk, Counter: 1})
	// Transactions are the message's last bytes, each encoded as SubmitTx
	// encodes one after its type byte.
	at := len(body)
	for _, tx := range blk.Txs[36:] {
		at -= len(wire.Marshal(&wire.SubmitTx{Tx: tx})) - 1
	}
	at += 32 // the transaction id; the client's length comes next
	if n := body[at]; n != byte(len(blk.Txs[36].Client)) {
		t.Fatalf("offset %d holds %d, not the client length", at, n)
	}
	bad := append(append(append([]byte{}, body[:at]...), body[at]|0x80, 0x00), body[at+1:]...)
	if _, err := wire.Unmarshal(bad); !errors.Is(err, wire.ErrNonCanonical) {
		t.Fatalf("Unmarshal of the padded block: %v, want ErrNonCanonical", err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(4+len(bad)))
	frame = binary.BigEndian.AppendUint32(frame, 7)
	frame = append(frame, bad...)

	good := frameOf(7, &wire.StateInfo{Height: 9})
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(append(append([]byte{}, good...), frame...), good...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	if m := <-delivered; m.(*wire.StateInfo).Height != 9 {
		t.Fatalf("good frame decoded as %#v", m)
	}
	waitFor(t, func() bool {
		return counter(reg, "wire_frames_rejected_total", "reason", "decode") == 1
	}, "the decode rejection to be counted")
	_ = b.Close() // waits for the readers
	select {
	case m := <-delivered:
		t.Fatalf("handler ran after the bad frame: %#v", m)
	default:
	}
}

// One locally built block, never encoded before, is sent by several
// goroutines to several endpoints while others size it: every publication of
// its cached size races with every read (run under -race), and every
// receiver must still get the same, correct bytes.
func TestTCPConcurrentSendsShareOneBlock(t *testing.T) {
	const dests, senders, sizers, rounds = 3, 6, 2, 5
	book := StaticAddressBook{}
	eps := make([]*TCPEndpoint, dests+1)
	for i := range eps {
		ep, err := ListenTCP(wire.NodeID(i), "127.0.0.1:0", book, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		eps[i] = ep
		book[wire.NodeID(i)] = ep.Addr()
	}
	want := wire.Marshal(&wire.Data{Block: paperBlockTCP(5), Counter: 2})
	got := make(chan []byte, senders*rounds)
	for _, ep := range eps[1:] {
		ep.SetHandler(func(_ wire.NodeID, m wire.Message) { got <- wire.Marshal(m) })
	}

	blk := paperBlockTCP(5) // equal to the one above, but its own, uncached tree
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				if err := eps[0].Send(wire.NodeID(1+(g+r)%dests), &wire.Data{Block: blk, Counter: 2}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	for g := 0; g < sizers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < 100*rounds; r++ {
				if n := wire.BlockEncodedSize(blk); n != len(want)-2 { // minus type byte and counter
					t.Errorf("BlockEncodedSize = %d, want %d", n, len(want)-2)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := 0; i < senders*rounds; i++ {
		select {
		case enc := <-got:
			if !bytes.Equal(enc, want) {
				t.Fatalf("delivery %d differs from the block's encoding", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d sends were delivered", i, senders*rounds)
		}
	}
}
