// Package crypto provides the signing and hashing primitives used across
// the blockchain substrate: Ed25519 identities and SHA-256 digests.
//
// The paper's deployment uses Fabric's X.509/ECDSA MSP; Ed25519 plays the
// same structural role (certified identities, signed endorsements and
// blocks, verifiable hash chain) with stdlib-only dependencies.
package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
)

// Digest is a SHA-256 hash value.
type Digest [sha256.Size]byte

// String returns the first 8 bytes of the digest in hex, enough for logs.
func (d Digest) String() string { return hex.EncodeToString(d[:8]) }

// IsZero reports whether the digest is all zeroes (used for the genesis
// block's previous-hash field).
func (d Digest) IsZero() bool { return d == Digest{} }

// Hash returns the SHA-256 digest of the concatenation of the given chunks.
func Hash(chunks ...[]byte) Digest {
	h := sha256.New()
	for _, c := range chunks {
		_, _ = h.Write(c)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// Signature is an Ed25519 signature.
type Signature []byte

// PublicKey identifies a signer.
type PublicKey = ed25519.PublicKey

// Signer holds a private key and signs messages.
type Signer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewSigner generates a key pair deterministically from the given RNG,
// which keeps simulated networks reproducible. Pass a crypto-quality reader
// in production settings.
func NewSigner(rng *rand.Rand) (*Signer, error) {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &Signer{priv: priv, pub: priv.Public().(ed25519.PublicKey)}, nil
}

// Public returns the signer's public key.
func (s *Signer) Public() PublicKey { return s.pub }

// Sign signs msg.
func (s *Signer) Sign(msg []byte) Signature {
	return Signature(ed25519.Sign(s.priv, msg))
}

// ErrBadSignature is returned when signature verification fails.
var ErrBadSignature = errors.New("crypto: signature verification failed")

// Verify checks sig over msg under pub.
func Verify(pub PublicKey, msg []byte, sig Signature) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("crypto: bad public key length %d: %w", len(pub), ErrBadSignature)
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}
