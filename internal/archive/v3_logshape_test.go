package archive

import (
	"strings"
	"testing"

	"mevscope/internal/events"
	"mevscope/internal/types"
)

func addrN(b byte) types.Address {
	var a types.Address
	for i := range a {
		a[i] = b
	}
	return a
}

// TestLogShapeRoundTrip: every structured event shape — and the raw
// fallback — must survive writeLog/readLog byte for byte. The writer
// only emits a structured shape after proving the round trip at encode
// time, so a decode mismatch here means the two codec halves disagree.
func TestLogShapeRoundTrip(t *testing.T) {
	logs := []types.Log{
		events.Transfer{Token: addrN(1), From: addrN(2), To: addrN(3), Amount: 41_000_007}.Log(),
		events.Swap{Pool: addrN(4), Sender: addrN(5), Recipient: addrN(6),
			TokenIn: addrN(1), TokenOut: addrN(7), AmountIn: 123, AmountOut: 456_789}.Log(),
		events.Sync{Pool: addrN(4), ReserveA: 1, ReserveB: 2}.Log(),
		events.Liquidation{Protocol: addrN(8), Liquidator: addrN(9), Borrower: addrN(10),
			DebtToken: addrN(1), CollateralToken: addrN(7), DebtRepaid: 77, CollateralOut: 88}.Log(),
		events.Liquidation{Protocol: addrN(8), Liquidator: addrN(9), Borrower: addrN(10),
			DebtToken: addrN(1), CollateralToken: addrN(7), DebtRepaid: 5, CollateralOut: 6,
			Compound: true}.Log(),
		events.FlashLoan{Protocol: addrN(8), Initiator: addrN(9), Token: addrN(1),
			Amount: 1 << 40, Fee: 9}.Log(),
		events.OracleUpdate{Oracle: addrN(11), Token: addrN(1), Price: 314159}.Log(),
		// Free-form log no event shape round-trips: the raw fallback.
		{Address: addrN(12), Topics: []types.Hash{types.EventSignature("Custom")}, Data: []byte("opaque")},
		// Topic-less, data-less log.
		{Address: addrN(13)},
	}
	w := newColWriter()
	for _, lg := range logs {
		w.writeLog(lg)
	}
	r := &colReader{addrs: w.addrList, hashes: w.hashList, body: w.body, rows: len(logs)}
	for i, want := range logs {
		got := r.readLog()
		if r.err != nil {
			t.Fatalf("log %d: decode failed: %v", i, r.err)
		}
		if !logEqual(got, want) {
			t.Errorf("log %d did not round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if r.off != len(r.body) {
		t.Errorf("decoder consumed %d of %d body bytes", r.off, len(r.body))
	}
	// The size pass must agree with the decode on every row, or the
	// logs column's slabs stop being exact.
	sr := &colReader{addrs: w.addrList, hashes: w.hashList, body: w.body, rows: len(logs)}
	for i, want := range logs {
		topics, data := sr.skipLog()
		if sr.err != nil {
			t.Fatalf("log %d: size pass failed: %v", i, sr.err)
		}
		if topics != len(want.Topics) || data != len(want.Data) {
			t.Errorf("log %d: size pass says %d topics and %d data bytes, decode gives %d and %d",
				i, topics, data, len(want.Topics), len(want.Data))
		}
	}
	if sr.off != r.off {
		t.Errorf("size pass consumed %d body bytes, decode %d", sr.off, r.off)
	}
}

// TestLogShapeUnknownTagRefused: a tag byte no shipped writer emits is
// corruption (or a future format read by an old binary) and must fail
// the decode, not fall through to a guessed shape.
func TestLogShapeUnknownTagRefused(t *testing.T) {
	r := &colReader{body: []byte{0x7F}, rows: 1}
	r.readLog()
	if r.err == nil || !strings.Contains(r.err.Error(), "unknown log shape") {
		t.Fatalf("unknown-tag decode error = %v; want unknown log shape refusal", r.err)
	}
}
