// Package ledger implements the replicated ledger substrate of the
// execute-order-validate pipeline (paper §II): hash-chained blocks of
// endorsed transactions, a versioned key/value state database with MVCC
// read-set checks, and an append-only block store — held once per network
// as a Chain, with each peer's Ledger a height on it.
package ledger

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"fabricgossip/internal/crypto"
)

// Version identifies the (block, transaction) position that last wrote a
// key. Read sets carry versions; validation compares them against the
// committed state (paper §II-B).
type Version struct {
	BlockNum uint64
	TxNum    uint32
}

// String formats the version as "block.tx".
func (v Version) String() string { return fmt.Sprintf("%d.%d", v.BlockNum, v.TxNum) }

// KVRead records that a simulated chaincode read Key at Version.
type KVRead struct {
	Key     string
	Version Version
}

// KVWrite records a value produced by a simulated chaincode.
type KVWrite struct {
	Key   string
	Value []byte
}

// RWSet is the read/write set produced by simulating a chaincode.
type RWSet struct {
	Reads  []KVRead
	Writes []KVWrite
}

// Endorsement is an endorser's signature over a transaction's identity.
type Endorsement struct {
	Org  string
	Name string
	Sig  crypto.Signature
}

// Transaction is an endorsed transaction proposal as it appears in a block.
type Transaction struct {
	ID           crypto.Digest
	Client       string
	Chaincode    string
	RWSet        RWSet
	Endorsements []Endorsement
	// Payload is opaque application data. The experiments use it to pad
	// transactions to the paper's ≈3.2 KB so that block sizes — and hence
	// bandwidth — match the evaluated workload.
	Payload []byte
}

// ProposalDigest computes the canonical digest of the transaction's
// client-visible content. It is used both as the transaction ID and as the
// message endorsers sign.
func ProposalDigest(client, chaincode string, rw RWSet, payload []byte) crypto.Digest {
	buf := make([]byte, 0, 256)
	buf = appendString(buf, client)
	buf = appendString(buf, chaincode)
	buf = appendUvarint(buf, uint64(len(rw.Reads)))
	for _, r := range rw.Reads {
		buf = appendString(buf, r.Key)
		buf = appendUvarint(buf, r.Version.BlockNum)
		buf = appendUvarint(buf, uint64(r.Version.TxNum))
	}
	buf = appendUvarint(buf, uint64(len(rw.Writes)))
	for _, w := range rw.Writes {
		buf = appendString(buf, w.Key)
		buf = appendBytes(buf, w.Value)
	}
	return crypto.Hash(buf, payload)
}

// Block is one link of the chain. A block is immutable once it has been
// handed to the gossip or ordering layers, and must not be copied by value
// (it carries atomics).
type Block struct {
	Num      uint64
	PrevHash crypto.Digest
	DataHash crypto.Digest
	// Txs is what a block is built from. Readers call Transactions or
	// NumTxs instead: a block decoded from the wire leaves Txs nil.
	Txs []*Transaction
	// Sig is the ordering service's signature over HeaderBytes.
	Sig crypto.Signature

	// wireSize caches the length of the block's canonical wire encoding, and
	// wireEnc holds the encoding itself on a block decoded from one. Package
	// wire owns their meaning (it cannot be imported from here); the block
	// only carries them, so the cache lives and dies with the block. The
	// size is published atomically, because shards and connection
	// goroutines size one block concurrently, every writer computing the
	// same value from the same immutable block. The encoding is written
	// once, by the decoder, before the block is shared; a built block has
	// none, and the simulator fills only the size.
	wireSize atomic.Int64
	wireEnc  []byte

	// A decoded block keeps its numTxs transactions as bytes of its wire
	// encoding until a reader asks: buildTxs (package wire's decoder) then
	// builds them from the encoding, and txs publishes the result, set once
	// by compare-and-swap. buildTxs is nil on a block built from Txs.
	numTxs   int
	buildTxs func(enc []byte) []*Transaction
	txs      atomic.Pointer[[]*Transaction]
}

// DeferTxs records that the block's n transactions are in the wire encoding
// it was decoded from, to be built by build on the first Transactions call.
// A decoder calls it once, after SetWireEncoding and before the block is
// shared; build must return exactly n transactions.
func (b *Block) DeferTxs(n int, build func(enc []byte) []*Transaction) {
	b.numTxs = n
	b.buildTxs = build
}

// Transactions returns the block's transactions. A decoded block builds them
// on the first call; goroutines that race to be first each build them, and
// all get the one result kept. The slice is shared and must not be written.
func (b *Block) Transactions() []*Transaction {
	if b.buildTxs == nil {
		return b.Txs
	}
	if p := b.txs.Load(); p != nil {
		return *p
	}
	txs := b.buildTxs(b.WireEncoding())
	if !b.txs.CompareAndSwap(nil, &txs) {
		return *b.txs.Load()
	}
	return txs
}

// NumTxs returns the number of transactions in the block without building
// them.
func (b *Block) NumTxs() int {
	if b.buildTxs == nil {
		return len(b.Txs)
	}
	return b.numTxs
}

// WireSize returns the cached length of the block's wire encoding, 0 if
// nobody has sized or encoded the block yet (an encoding is never empty).
func (b *Block) WireSize() int { return int(b.wireSize.Load()) }

// SetWireSize records the length of the block's wire encoding.
func (b *Block) SetWireSize(n int) { b.wireSize.Store(int64(n)) }

// WireEncoding returns the wire encoding the block was decoded from, nil on
// a built block. The bytes are shared by every holder of the block and must
// not be written.
func (b *Block) WireEncoding() []byte { return b.wireEnc }

// SetWireEncoding records enc, the bytes the block was decoded from, as its
// wire encoding. A decoder calls it once, before the block is shared; the
// caller must not write to enc afterwards.
func (b *Block) SetWireEncoding(enc []byte) {
	b.wireEnc = enc
	b.wireSize.Store(int64(len(enc)))
}

// HeaderBytes returns the canonical encoding of the block header, the
// message that is hashed for chaining and signed by the orderer.
func (b *Block) HeaderBytes() []byte {
	buf := make([]byte, 0, 8+2*len(b.PrevHash))
	buf = appendUvarint(buf, b.Num)
	buf = append(buf, b.PrevHash[:]...)
	buf = append(buf, b.DataHash[:]...)
	return buf
}

// Hash returns the block's chain hash: SHA-256 over the header.
func (b *Block) Hash() crypto.Digest { return crypto.Hash(b.HeaderBytes()) }

// ComputeDataHash hashes the ordered list of transaction IDs, binding block
// content to the header.
func ComputeDataHash(txs []*Transaction) crypto.Digest {
	buf := make([]byte, 0, len(txs)*32)
	for _, tx := range txs {
		buf = append(buf, tx.ID[:]...)
	}
	return crypto.Hash(buf)
}

// VerifyLinkage checks that b correctly extends prev (nil prev means b must
// be the genesis block).
func (b *Block) VerifyLinkage(prev *Block) error {
	if prev == nil {
		if b.Num != 0 {
			return fmt.Errorf("ledger: block %d cannot start a chain", b.Num)
		}
		if !b.PrevHash.IsZero() {
			return fmt.Errorf("ledger: genesis block has non-zero previous hash")
		}
	} else {
		if b.Num != prev.Num+1 {
			return fmt.Errorf("ledger: block %d does not follow block %d", b.Num, prev.Num)
		}
		if b.PrevHash != prev.Hash() {
			return fmt.Errorf("ledger: block %d previous hash mismatch", b.Num)
		}
	}
	if got := ComputeDataHash(b.Transactions()); got != b.DataHash {
		return fmt.Errorf("ledger: block %d data hash mismatch", b.Num)
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = appendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}
