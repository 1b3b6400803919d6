package types

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"
)

// refHash digests chunks the way the hashes were first defined: one
// streaming SHA-256 over the chunks in order. The single-call digests
// must reproduce it byte for byte, since every archived receipt and
// every golden report depends on these hashes.
func refHash(chunks ...[]byte) Hash {
	d := sha256.New()
	for _, c := range chunks {
		d.Write(c)
	}
	var h Hash
	d.Sum(h[:0])
	return h
}

func refPayloadDigest(p *Payload) []byte {
	if p == nil {
		return nil
	}
	u64 := func(b []byte, v uint64) []byte {
		var t [8]byte
		binary.BigEndian.PutUint64(t[:], v)
		return append(b, t[:]...)
	}
	var b []byte
	b = append(b, byte(p.Kind))
	b = append(b, p.Token[:]...)
	b = append(b, p.Recipient[:]...)
	b = u64(b, uint64(p.Amount))
	b = u64(b, uint64(p.AmountIn))
	b = u64(b, uint64(p.MinOut))
	for _, h := range p.Hops {
		b = append(b, h.Venue[:4]...)
		b = append(b, h.TokenIn[:4]...)
		b = append(b, h.TokenOut[:4]...)
	}
	b = append(b, p.Protocol[:4]...)
	b = u64(b, p.LoanID)
	b = u64(b, uint64(p.Repay))
	b = append(b, p.FlashToken[:4]...)
	b = u64(b, uint64(p.FlashAmount))
	b = append(b, p.OracleToken[:4]...)
	b = u64(b, uint64(p.OraclePrice))
	for _, e := range p.Payouts {
		b = append(b, e.To[:4]...)
		b = u64(b, uint64(e.Amount))
	}
	b = append(b, p.Venue[:4]...)
	b = append(b, p.TokenA[:4]...)
	b = append(b, p.TokenB[:4]...)
	b = u64(b, uint64(p.AmountA))
	b = u64(b, uint64(p.AmountB))
	return append(b, refPayloadDigest(p.Inner)...)
}

func refTxHash(tx *Transaction) Hash {
	var buf [97]byte
	binary.BigEndian.PutUint64(buf[0:], tx.Nonce)
	copy(buf[8:], tx.From[:])
	copy(buf[28:], tx.To[:])
	binary.BigEndian.PutUint64(buf[48:], uint64(tx.Value))
	binary.BigEndian.PutUint64(buf[56:], tx.GasLimit)
	binary.BigEndian.PutUint64(buf[64:], uint64(tx.GasPrice))
	binary.BigEndian.PutUint64(buf[72:], uint64(tx.FeeCap))
	binary.BigEndian.PutUint64(buf[80:], uint64(tx.TipCap))
	binary.BigEndian.PutUint64(buf[88:], uint64(tx.CoinbaseTip))
	buf[96] = byte(tx.Payload.Kind)
	return refHash(buf[:], refPayloadDigest(&tx.Payload))
}

func refSeal(b *Block) Hash {
	var buf [8 + 32 + 8 + 20 + 8]byte
	binary.BigEndian.PutUint64(buf[0:], b.Header.Number)
	copy(buf[8:], b.Header.ParentHash[:])
	binary.BigEndian.PutUint64(buf[40:], uint64(b.Header.Time.Unix()))
	copy(buf[48:], b.Header.Miner[:])
	binary.BigEndian.PutUint64(buf[68:], uint64(b.Header.BaseFee))
	chunks := [][]byte{buf[:]}
	for _, tx := range b.Txs {
		h := refTxHash(tx)
		chunks = append(chunks, h[:])
	}
	return refHash(chunks...)
}

func twoHopSwap(nonce uint64) *Transaction {
	return &Transaction{
		Nonce: nonce, From: DeriveAddress("trader", nonce), To: DeriveAddress("router", 0),
		GasLimit: 150_000, FeeCap: 90 * Gwei, TipCap: 2 * Gwei,
		Payload: Payload{Kind: TxSwap, AmountIn: 5 * Ether, MinOut: 4 * Ether, Hops: []SwapHop{
			{Venue: DeriveAddress("pool", 1), TokenIn: DeriveAddress("tok", 1), TokenOut: DeriveAddress("tok", 2)},
			{Venue: DeriveAddress("pool", 2), TokenIn: DeriveAddress("tok", 2), TokenOut: DeriveAddress("tok", 3)},
		}},
	}
}

// testBlock builds a block of n distinct two-hop swaps with cached
// hashes.
func testBlock(n int) *Block {
	b := &Block{Header: Header{Number: 12_000_000, ParentHash: Hash{7}, Time: time.Unix(1_600_000_000, 0),
		Miner: DeriveAddress("miner", 3), BaseFee: 40 * Gwei}}
	for i := 0; i < n; i++ {
		tx := twoHopSwap(uint64(i))
		tx.Hash()
		b.Txs = append(b.Txs, tx)
	}
	return b
}

func TestHashesMatchStreamingDigest(t *testing.T) {
	flash := twoHopSwap(9)
	inner := flash.Payload
	flash.Payload = Payload{Kind: TxFlashLoan, FlashToken: DeriveAddress("tok", 1), FlashAmount: 100 * Ether,
		Payouts: []PayoutEntry{{To: DeriveAddress("x", 1), Amount: 3}, {To: DeriveAddress("x", 2), Amount: 4}},
		Inner:   &inner}
	long := twoHopSwap(10)
	for i := 0; i < 60; i++ { // a payload digest well past the stack buffer
		long.Payload.Hops = append(long.Payload.Hops, SwapHop{Venue: DeriveAddress("pool", uint64(i))})
	}
	for name, tx := range map[string]*Transaction{
		"zero": {}, "two-hop swap": twoHopSwap(1), "flash loan with inner swap": flash, "long route": long,
	} {
		if got, want := tx.Hash(), refTxHash(tx); got != want {
			t.Errorf("%s: tx hash %x, streaming digest %x", name, got, want)
		}
	}
	for _, n := range []int{0, 3, sealStackTxs, sealStackTxs + 1, 300} {
		b := testBlock(n)
		b.Seal()
		if got, want := b.Hash(), refSeal(b); got != want {
			t.Errorf("%d-tx block: seal %x, streaming digest %x", n, got, want)
		}
	}
	big := make([]byte, 1000)
	for i := range big {
		big[i] = byte(i)
	}
	for _, chunks := range [][][]byte{nil, {[]byte("a")}, {[]byte("ab"), nil, []byte("c")}, {big[:200], big[200:]}} {
		if got, want := HashData(chunks...), refHash(chunks...); got != want {
			t.Errorf("HashData over %d chunks: %x, streaming digest %x", len(chunks), got, want)
		}
	}
}

// TestHashAllocs pins the allocation cost of hashing: hashing an
// unhashed two-hop swap allocates nothing, and sealing allocates at most
// one buffer, and only for a block too large for the stack.
func TestHashAllocs(t *testing.T) {
	tx := twoHopSwap(1)
	if n := testing.AllocsPerRun(100, func() {
		tx.ResetHash()
		tx.Hash()
	}); n != 0 {
		t.Errorf("tx.Hash of an unhashed two-hop swap: %.1f allocs, want 0", n)
	}
	for _, size := range []int{20, sealStackTxs, 300} {
		b := testBlock(size)
		n := testing.AllocsPerRun(100, b.Seal)
		if n > 1 {
			t.Errorf("Seal of a %d-tx block: %.1f allocs, want ≤ 1", size, n)
		}
		if size <= sealStackTxs && n != 0 {
			t.Errorf("Seal of a %d-tx block: %.1f allocs, want 0 (fits the stack buffer)", size, n)
		}
	}
}
