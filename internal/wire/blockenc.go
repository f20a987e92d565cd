package wire

import (
	"fmt"

	"fabricgossip/internal/ledger"
)

// encodeBlock walks a block's fields into s: the one definition of the
// canonical block encoding. Messages write a block with encSink.block,
// which sends a decoded block's cached encoding instead.
func encodeBlock(s *encSink, b *ledger.Block) {
	s.uvarint(b.Num)
	putDigest(s, b.PrevHash)
	putDigest(s, b.DataHash)
	putBytes(s, b.Sig)
	txs := b.Transactions()
	s.uvarint(uint64(len(txs)))
	for _, tx := range txs {
		encodeTx(s, tx)
	}
}

// blockLen is the length encodeBlock writes.
func blockLen(b *ledger.Block) int {
	txs := b.Transactions()
	n := uvarintLen(b.Num) + 2*digestLen + bytesLen(b.Sig) + uvarintLen(uint64(len(txs)))
	for _, tx := range txs {
		n += txLen(tx)
	}
	return n
}

func encodeTx(s *encSink, tx *ledger.Transaction) {
	putDigest(s, tx.ID)
	putString(s, tx.Client)
	putString(s, tx.Chaincode)
	s.uvarint(uint64(len(tx.RWSet.Reads)))
	for _, r := range tx.RWSet.Reads {
		putString(s, r.Key)
		s.uvarint(r.Version.BlockNum)
		s.uvarint(uint64(r.Version.TxNum))
	}
	s.uvarint(uint64(len(tx.RWSet.Writes)))
	for _, w := range tx.RWSet.Writes {
		putString(s, w.Key)
		putBytes(s, w.Value)
	}
	s.uvarint(uint64(len(tx.Endorsements)))
	for _, e := range tx.Endorsements {
		putString(s, e.Org)
		putString(s, e.Name)
		putBytes(s, e.Sig)
	}
	putBytes(s, tx.Payload)
}

// txLen is the length encodeTx writes.
func txLen(tx *ledger.Transaction) int {
	n := digestLen + stringLen(tx.Client) + stringLen(tx.Chaincode)
	n += uvarintLen(uint64(len(tx.RWSet.Reads)))
	for _, r := range tx.RWSet.Reads {
		n += stringLen(r.Key) + uvarintLen(r.Version.BlockNum) + uvarintLen(uint64(r.Version.TxNum))
	}
	n += uvarintLen(uint64(len(tx.RWSet.Writes)))
	for _, w := range tx.RWSet.Writes {
		n += stringLen(w.Key) + bytesLen(w.Value)
	}
	n += uvarintLen(uint64(len(tx.Endorsements)))
	for _, e := range tx.Endorsements {
		n += stringLen(e.Org) + stringLen(e.Name) + bytesLen(e.Sig)
	}
	return n + bytesLen(tx.Payload)
}

// Minimum encoded sizes, the divisors of decoder.count: a block is a number,
// two digests, a signature length and a transaction count; a transaction an
// id and six lengths or counts.
const (
	minBlockBytes = 1 + 2*digestLen + 1 + 1
	minTxBytes    = digestLen + 6
)

// decodeBlock reads one block and records the bytes it was read from as the
// block's cached encoding: decode is strict, so they are exactly what a walk
// of the decoded tree would write. The transactions are only scanned, which
// allocates nothing and rejects what decodeTx would; the block builds them
// from its encoding (buildTxs) when a reader first asks.
func decodeBlock(d *decoder) *ledger.Block {
	start := d.off
	b := &ledger.Block{}
	b.Num = d.uvarint("block num")
	b.PrevHash = d.digest("prev hash")
	b.DataHash = d.digest("data hash")
	b.Sig = d.bytesField("block sig")
	n := d.count(minTxBytes, "tx count")
	for i := 0; i < n && d.err == nil; i++ {
		scanTx(d)
	}
	if d.err == nil {
		b.SetWireEncoding(d.buf[start:d.off:d.off])
		if n > 0 {
			b.DeferTxs(n, buildTxs)
		}
	}
	return b
}

// buildTxs builds the transactions of enc, the encoding of a block
// decodeBlock accepted. The scan leaves nothing for this pass to reject, so
// an error here is a bug in one of the two.
func buildTxs(enc []byte) []*ledger.Transaction {
	d := &decoder{buf: enc}
	d.uvarint("block num")
	d.take(uint64(2*digestLen), "block hashes")
	d.skip("block sig")
	n := d.count(minTxBytes, "tx count")
	txs := make([]*ledger.Transaction, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		txs = append(txs, decodeTx(d))
	}
	if d.err != nil {
		panic(fmt.Sprintf("wire: building the transactions of a scanned block: %v", d.err))
	}
	return txs
}

func decodeTx(d *decoder) *ledger.Transaction {
	tx := &ledger.Transaction{}
	tx.ID = d.digest("tx id")
	tx.Client = d.str("client")
	tx.Chaincode = d.str("chaincode")
	for i, n := 0, d.count(3, "read count"); i < n && d.err == nil; i++ {
		r := ledger.KVRead{Key: d.str("read key")}
		r.Version.BlockNum = d.uvarint("read block")
		r.Version.TxNum = d.uint32("read tx")
		tx.RWSet.Reads = append(tx.RWSet.Reads, r)
	}
	for i, n := 0, d.count(2, "write count"); i < n && d.err == nil; i++ {
		w := ledger.KVWrite{Key: d.str("write key")}
		w.Value = d.bytesField("write value")
		tx.RWSet.Writes = append(tx.RWSet.Writes, w)
	}
	for i, n := 0, d.count(3, "endorsement count"); i < n && d.err == nil; i++ {
		e := ledger.Endorsement{Org: d.str("endorser org"), Name: d.str("endorser name")}
		e.Sig = d.bytesField("endorsement sig")
		tx.Endorsements = append(tx.Endorsements, e)
	}
	tx.Payload = d.bytesField("payload")
	return tx
}

// scanTx reads what decodeTx reads, field for field and check for check,
// and keeps none of it.
func scanTx(d *decoder) {
	d.take(uint64(digestLen), "tx id")
	d.skip("client")
	d.skip("chaincode")
	for i, n := 0, d.count(3, "read count"); i < n && d.err == nil; i++ {
		d.skip("read key")
		d.uvarint("read block")
		d.uint32("read tx")
	}
	for i, n := 0, d.count(2, "write count"); i < n && d.err == nil; i++ {
		d.skip("write key")
		d.skip("write value")
	}
	for i, n := 0, d.count(3, "endorsement count"); i < n && d.err == nil; i++ {
		d.skip("endorser org")
		d.skip("endorser name")
		d.skip("endorsement sig")
	}
	d.skip("payload")
}

// BlockEncodedSize returns the exact encoded length of b. The first call
// walks the block and caches the length on it (a decoded block has it from
// its encoding); blocks are immutable once emitted by the ordering service,
// and the same block is transmitted hundreds of times per experiment, so
// every later call is a field load.
func BlockEncodedSize(b *ledger.Block) int {
	if n := b.WireSize(); n != 0 {
		return n
	}
	n := blockLen(b)
	b.SetWireSize(n)
	return n
}
