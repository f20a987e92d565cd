package ledger

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"fabricgossip/internal/crypto"
)

func mkTx(client, key string, readVer Version, value byte) *Transaction {
	rw := RWSet{
		Reads:  []KVRead{{Key: key, Version: readVer}},
		Writes: []KVWrite{{Key: key, Value: []byte{value}}},
	}
	return &Transaction{
		ID:        ProposalDigest(client, "cc", rw, nil),
		Client:    client,
		Chaincode: "cc",
		RWSet:     rw,
	}
}

func mkBlock(num uint64, prev *Block, txs ...*Transaction) *Block {
	b := &Block{Num: num, Txs: txs, DataHash: ComputeDataHash(txs)}
	if prev != nil {
		b.PrevHash = prev.Hash()
	}
	return b
}

func TestProposalDigestDistinguishesContent(t *testing.T) {
	base := ProposalDigest("c", "cc", RWSet{Reads: []KVRead{{Key: "k"}}}, nil)
	cases := map[string]crypto.Digest{
		"different client":    ProposalDigest("c2", "cc", RWSet{Reads: []KVRead{{Key: "k"}}}, nil),
		"different chaincode": ProposalDigest("c", "cc2", RWSet{Reads: []KVRead{{Key: "k"}}}, nil),
		"different key":       ProposalDigest("c", "cc", RWSet{Reads: []KVRead{{Key: "k2"}}}, nil),
		"different version":   ProposalDigest("c", "cc", RWSet{Reads: []KVRead{{Key: "k", Version: Version{1, 0}}}}, nil),
		"different payload":   ProposalDigest("c", "cc", RWSet{Reads: []KVRead{{Key: "k"}}}, []byte{1}),
		"extra write":         ProposalDigest("c", "cc", RWSet{Reads: []KVRead{{Key: "k"}}, Writes: []KVWrite{{Key: "k", Value: []byte{1}}}}, nil),
	}
	for name, d := range cases {
		if d == base {
			t.Errorf("%s produced identical digest", name)
		}
	}
	if ProposalDigest("c", "cc", RWSet{Reads: []KVRead{{Key: "k"}}}, nil) != base {
		t.Error("digest not deterministic")
	}
}

func TestBlockHashBindsHeaderFields(t *testing.T) {
	tx := mkTx("c", "k", Version{}, 1)
	b := mkBlock(0, nil, tx)
	h := b.Hash()
	b2 := &Block{Num: 1, PrevHash: b.PrevHash, DataHash: b.DataHash, Txs: b.Txs}
	if b2.Hash() == h {
		t.Error("hash ignores block number")
	}
	b3 := &Block{Num: b.Num, PrevHash: b.PrevHash, DataHash: crypto.Hash([]byte("x")), Txs: b.Txs}
	if b3.Hash() == h {
		t.Error("hash ignores data hash")
	}
}

func TestVerifyLinkage(t *testing.T) {
	g := mkBlock(0, nil, mkTx("c", "a", Version{}, 1))
	if err := g.VerifyLinkage(nil); err != nil {
		t.Fatalf("genesis linkage: %v", err)
	}
	b1 := mkBlock(1, g, mkTx("c", "b", Version{}, 2))
	if err := b1.VerifyLinkage(g); err != nil {
		t.Fatalf("b1 linkage: %v", err)
	}

	t.Run("wrong number", func(t *testing.T) {
		bad := mkBlock(2, g)
		if err := bad.VerifyLinkage(g); err == nil {
			t.Error("skipped block number accepted")
		}
	})
	t.Run("wrong prev hash", func(t *testing.T) {
		bad := mkBlock(1, g)
		bad.PrevHash = crypto.Hash([]byte("junk"))
		if err := bad.VerifyLinkage(g); err == nil {
			t.Error("bad previous hash accepted")
		}
	})
	t.Run("non-genesis first block", func(t *testing.T) {
		bad := mkBlock(5, nil)
		if err := bad.VerifyLinkage(nil); err == nil {
			t.Error("block 5 accepted as chain start")
		}
	})
	t.Run("genesis with prev hash", func(t *testing.T) {
		bad := mkBlock(0, nil)
		bad.PrevHash = crypto.Hash([]byte("junk"))
		if err := bad.VerifyLinkage(nil); err == nil {
			t.Error("genesis with non-zero prev hash accepted")
		}
	})
	t.Run("tampered data", func(t *testing.T) {
		bad := mkBlock(1, g, mkTx("c", "b", Version{}, 2))
		bad.Txs = append(bad.Txs, mkTx("c", "x", Version{}, 3)) // DataHash now stale
		if err := bad.VerifyLinkage(g); err == nil {
			t.Error("tampered transaction list accepted")
		}
	})
}

func TestVersionString(t *testing.T) {
	a := Version{BlockNum: 1, TxNum: 2}
	if a.String() != "1.2" {
		t.Errorf("String() = %q, want 1.2", a.String())
	}
}

// Property: ProposalDigest is injective-in-practice over payload bytes —
// any payload change changes the digest.
func TestPropertyDigestChangesWithPayload(t *testing.T) {
	f := func(p1, p2 []byte) bool {
		d1 := ProposalDigest("c", "cc", RWSet{}, p1)
		d2 := ProposalDigest("c", "cc", RWSet{}, p2)
		if string(p1) == string(p2) {
			return d1 == d2
		}
		return d1 != d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A block decoded from the wire leaves Txs nil until Transactions builds it,
// so code that reads a block reads it through Transactions or NumTxs. The
// field is read directly only where a block is being built and by the
// accessors themselves; this lists every such site in the module's non-test
// code (bench/ is a module of its own and reads only blocks it built).
func TestTxsFieldReadOnlyWhereAllowed(t *testing.T) {
	allowed := map[string]bool{
		"internal/ledger/block.go Transactions": true,
		"internal/ledger/block.go NumTxs":       true,
		"internal/harness/chain.go hashBlock":   true,
	}
	root := filepath.Join("..", "..")
	found := map[string]bool{}
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Txs" {
						found[filepath.ToSlash(rel)+" "+fn.Name.Name] = true
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for site := range found {
		if !allowed[site] {
			t.Errorf("%s reads Block.Txs: read Transactions() or NumTxs() instead", site)
		}
	}
	for site := range allowed {
		if !found[site] {
			t.Errorf("%s no longer reads Block.Txs: drop it from the allowed sites", site)
		}
	}
}
