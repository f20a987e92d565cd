package crypto

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSignAndVerify(t *testing.T) {
	s, err := NewSigner(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello gossip")
	sig := s.Sign(msg)
	if err := Verify(s.Public(), msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	s, _ := NewSigner(rand.New(rand.NewSource(1)))
	sig := s.Sign([]byte("original"))
	if err := Verify(s.Public(), []byte("tampered"), sig); err == nil {
		t.Fatal("tampered message verified")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	s1, _ := NewSigner(rand.New(rand.NewSource(1)))
	s2, _ := NewSigner(rand.New(rand.NewSource(2)))
	msg := []byte("msg")
	if err := Verify(s2.Public(), msg, s1.Sign(msg)); err == nil {
		t.Fatal("signature verified under wrong key")
	}
}

func TestVerifyRejectsBadKeyLength(t *testing.T) {
	if err := Verify(PublicKey([]byte{1, 2, 3}), []byte("m"), Signature{}); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestDeterministicKeyGeneration(t *testing.T) {
	a, _ := NewSigner(rand.New(rand.NewSource(7)))
	b, _ := NewSigner(rand.New(rand.NewSource(7)))
	if string(a.Public()) != string(b.Public()) {
		t.Fatal("same seed produced different keys")
	}
	c, _ := NewSigner(rand.New(rand.NewSource(8)))
	if string(a.Public()) == string(c.Public()) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestHashProperties(t *testing.T) {
	h1 := Hash([]byte("a"), []byte("b"))
	h3 := Hash([]byte("x"))
	if h1 == h3 {
		t.Fatal("distinct inputs hashed equal")
	}
	if h1.IsZero() {
		t.Fatal("hash of data should not be zero")
	}
	var zero Digest
	if !zero.IsZero() {
		t.Fatal("zero digest should report IsZero")
	}
	if len(h1.String()) != 16 {
		t.Fatalf("String() length %d, want 16 hex chars", len(h1.String()))
	}
}

// Property: signatures over arbitrary byte strings always verify under the
// signing key.
func TestPropertySignVerifyRoundTrip(t *testing.T) {
	s, _ := NewSigner(rand.New(rand.NewSource(3)))
	f := func(msg []byte) bool {
		return Verify(s.Public(), msg, s.Sign(msg)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
