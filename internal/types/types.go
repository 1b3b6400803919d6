// Package types defines the fundamental datatypes of the simulated
// Ethereum-like ledger: addresses, hashes, amounts, transactions, blocks,
// receipts and event logs.
//
// The types mirror what a go-ethereum archive node exposes: the measurement
// pipeline in internal/core consumes only these, never simulator internals.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
)

// Address is a 20-byte account or contract identifier.
type Address [20]byte

// Hash is a 32-byte digest identifying transactions, blocks and log topics.
type Hash [32]byte

// ZeroAddress is the all-zero address, used as a burn/none sentinel.
var ZeroAddress Address

// ZeroHash is the all-zero hash.
var ZeroHash Hash

// BytesToAddress returns an Address from b, left-truncating or
// zero-left-padding as needed.
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > len(a) {
		b = b[len(b)-len(a):]
	}
	copy(a[len(a)-len(b):], b)
	return a
}

// HexToAddress parses a 0x-prefixed or bare hex string into an Address.
// Invalid input yields the zero address.
func HexToAddress(s string) Address {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return Address{}
	}
	return BytesToAddress(b)
}

// String renders the address as 0x-prefixed hex.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// Short renders the first 4 bytes of the address, for compact logs.
func (a Address) Short() string { return "0x" + hex.EncodeToString(a[:4]) }

// IsZero reports whether the address is the zero address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// Hash returns the digest of the address bytes, usable as a log topic.
func (a Address) Hash() Hash {
	var h Hash
	copy(h[12:], a[:])
	return h
}

// AddressFromHash recovers an address stored in a topic by Address.Hash.
func AddressFromHash(h Hash) Address {
	var a Address
	copy(a[:], h[12:])
	return a
}

// String renders the hash as 0x-prefixed hex.
func (h Hash) String() string { return "0x" + hex.EncodeToString(h[:]) }

// Short renders the first 4 bytes of the hash.
func (h Hash) Short() string { return "0x" + hex.EncodeToString(h[:4]) }

// IsZero reports whether the hash is the zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// HashData digests arbitrary byte chunks into a Hash. It stands in for
// Keccak-256; collision behaviour is irrelevant to the measurements.
//
// The chunks are concatenated into a stack buffer and digested in one
// sha256.Sum256 call, so short inputs allocate nothing; the digest equals
// streaming the chunks through one hasher.
func HashData(chunks ...[]byte) Hash {
	var stack [256]byte
	buf := stack[:0]
	for _, c := range chunks {
		buf = append(buf, c...)
	}
	return sha256.Sum256(buf)
}

// DeriveAddress deterministically derives an address from a namespace and
// an index, so tests and examples can name accounts reproducibly.
func DeriveAddress(namespace string, index uint64) Address {
	var ib [8]byte
	binary.BigEndian.PutUint64(ib[:], index)
	h := HashData([]byte(namespace), ib[:])
	return BytesToAddress(h[12:])
}

// Amount is a quantity of ether or tokens measured in gwei-scale base units
// (1 ETH = 1e9 Amount). int64 keeps arithmetic fast and overflow-safe for
// the magnitudes the simulation uses (max ≈ 9.2e9 ETH).
type Amount int64

// Gwei is one gwei (1e-9 ETH).
const Gwei Amount = 1

// Ether is one ether expressed in Amount base units.
const Ether Amount = 1_000_000_000

// Milliether is one thousandth of an ether.
const Milliether Amount = Ether / 1000

// FromEther converts a float ETH quantity into an Amount. Fractions below
// one gwei are truncated.
func FromEther(eth float64) Amount { return Amount(eth * float64(Ether)) }

// Ether returns the amount as a float count of ETH.
func (a Amount) Ether() float64 { return float64(a) / float64(Ether) }

// GweiFloat returns the amount as a float count of gwei.
func (a Amount) GweiFloat() float64 { return float64(a) }

// String renders the amount with an ETH suffix.
func (a Amount) String() string { return fmt.Sprintf("%.9f ETH", a.Ether()) }

// Abs returns the absolute value of the amount.
func (a Amount) Abs() Amount {
	if a < 0 {
		return -a
	}
	return a
}

// MulDiv computes a*num/den using 128-bit intermediate precision, which the
// AMM and liquidation math need to avoid int64 overflow.
func (a Amount) MulDiv(num, den Amount) Amount {
	if den == 0 {
		return 0
	}
	return Amount(mulDiv128(int64(a), int64(num), int64(den)))
}

func mulDiv128(a, b, den int64) int64 {
	neg := false
	if a < 0 {
		a, neg = -a, !neg
	}
	if b < 0 {
		b, neg = -b, !neg
	}
	if den < 0 {
		den, neg = -den, !neg
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(den) {
		// Quotient would overflow 64 bits; saturate. The simulation never
		// reaches these magnitudes, but saturation beats a panic.
		if neg {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	q, _ := bits.Div64(hi, lo, uint64(den))
	if q > math.MaxInt64 {
		// The 64-bit quotient fits a uint64 but not an int64 (the
		// hi >= den guard only catches quotients ≥ 2^64); saturate here
		// too instead of wrapping negative.
		if neg {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	if neg {
		return -int64(q)
	}
	return int64(q)
}

// MarshalText renders the address as 0x-hex (used by JSON encoders, so
// persisted datasets are human-readable).
func (a Address) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText parses a 0x-hex address.
func (a *Address) UnmarshalText(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("types: bad address %q: %w", b, err)
	}
	*a = BytesToAddress(raw)
	return nil
}

// MarshalText renders the hash as 0x-hex.
func (h Hash) MarshalText() ([]byte, error) { return []byte(h.String()), nil }

// UnmarshalText parses a 0x-hex hash.
func (h *Hash) UnmarshalText(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(h) {
		return fmt.Errorf("types: bad hash %q", b)
	}
	copy(h[:], raw)
	return nil
}
