package events

import (
	"testing"
	"testing/quick"

	"mevscope/internal/types"
)

func a(i uint64) types.Address { return types.DeriveAddress("evt", i) }

func TestTransferRoundtrip(t *testing.T) {
	e := Transfer{Token: a(1), From: a(2), To: a(3), Amount: 12345}
	got, ok := DecodeTransfer(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestSwapRoundtrip(t *testing.T) {
	e := Swap{Pool: a(1), Sender: a(2), Recipient: a(2), TokenIn: a(4), TokenOut: a(5), AmountIn: 100, AmountOut: 97}
	got, ok := DecodeSwap(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestSyncRoundtrip(t *testing.T) {
	e := Sync{Pool: a(1), ReserveA: 11, ReserveB: 22}
	got, ok := DecodeSync(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestLiquidationRoundtrip(t *testing.T) {
	for _, compound := range []bool{false, true} {
		e := Liquidation{
			Protocol: a(1), Liquidator: a(2), Borrower: a(3),
			DebtToken: a(4), CollateralToken: a(5),
			DebtRepaid: 1000, CollateralOut: 1100, Compound: compound,
		}
		got, ok := DecodeLiquidation(e.Log())
		if !ok || got != e {
			t.Errorf("compound=%v roundtrip: got %+v ok=%v", compound, got, ok)
		}
	}
}

func TestFlashLoanRoundtrip(t *testing.T) {
	e := FlashLoan{Protocol: a(1), Initiator: a(2), Token: a(3), Amount: 500, Fee: 2}
	got, ok := DecodeFlashLoan(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestOracleUpdateRoundtrip(t *testing.T) {
	e := OracleUpdate{Oracle: a(1), Token: a(2), Price: types.Ether / 2}
	got, ok := DecodeOracleUpdate(e.Log())
	if !ok || got != e {
		t.Errorf("roundtrip: got %+v ok=%v", got, ok)
	}
}

func TestCrossDecodeRejects(t *testing.T) {
	logs := []types.Log{
		Transfer{Token: a(1), From: a(2), To: a(3), Amount: 1}.Log(),
		Swap{Pool: a(1), Sender: a(2), Recipient: a(2), TokenIn: a(3), TokenOut: a(4), AmountIn: 1, AmountOut: 1}.Log(),
		Sync{Pool: a(1)}.Log(),
		Liquidation{Protocol: a(1), Liquidator: a(2), Borrower: a(3)}.Log(),
		FlashLoan{Protocol: a(1), Initiator: a(2), Token: a(3)}.Log(),
		OracleUpdate{Oracle: a(1), Token: a(2)}.Log(),
	}
	for i, l := range logs {
		n := 0
		if _, ok := DecodeTransfer(l); ok {
			n++
		}
		if _, ok := DecodeSwap(l); ok {
			n++
		}
		if _, ok := DecodeSync(l); ok {
			n++
		}
		if _, ok := DecodeLiquidation(l); ok {
			n++
		}
		if _, ok := DecodeFlashLoan(l); ok {
			n++
		}
		if _, ok := DecodeOracleUpdate(l); ok {
			n++
		}
		if n != 1 {
			t.Errorf("log %d decoded by %d decoders, want exactly 1", i, n)
		}
	}
}

func TestDecodeRejectsTruncatedData(t *testing.T) {
	l := Swap{Pool: a(1), Sender: a(2), Recipient: a(2), TokenIn: a(3), TokenOut: a(4), AmountIn: 1, AmountOut: 1}.Log()
	l.Data = l.Data[:10]
	if _, ok := DecodeSwap(l); ok {
		t.Error("truncated swap should not decode")
	}
	l2 := Liquidation{Protocol: a(1), Liquidator: a(2), Borrower: a(3)}.Log()
	l2.Data = nil
	if _, ok := DecodeLiquidation(l2); ok {
		t.Error("truncated liquidation should not decode")
	}
}

// Property: Swap encode/decode is the identity over arbitrary field values.
func TestSwapRoundtripProperty(t *testing.T) {
	f := func(p, s, ti, to uint64, in, out int64) bool {
		e := Swap{
			Pool: a(p), Sender: a(s), Recipient: a(s),
			TokenIn: a(ti), TokenOut: a(to),
			AmountIn: types.Amount(in & 0x7fffffffffffffff), AmountOut: types.Amount(out & 0x7fffffffffffffff),
		}
		got, ok := DecodeSwap(e.Log())
		return ok && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendLogCarvesSharedBuffers: AppendLog into buffers shared with
// other logs yields exactly Log's log, each log's slices capped at their
// own length so an append through one cannot overwrite the next, and
// Log itself still costs one topics and one data allocation.
func TestAppendLogCarvesSharedBuffers(t *testing.T) {
	type appender interface {
		Log() types.Log
		AppendLog([]types.Hash, []byte) (types.Log, []types.Hash, []byte)
	}
	evs := []appender{
		Transfer{Token: a(1), From: a(2), To: a(3), Amount: 12345},
		Swap{Pool: a(1), Sender: a(2), Recipient: a(3), TokenIn: a(4), TokenOut: a(5), AmountIn: 100, AmountOut: 97},
		Sync{Pool: a(1), ReserveA: 11, ReserveB: 22},
		Liquidation{Protocol: a(1), Liquidator: a(2), Borrower: a(3), DebtToken: a(4), CollateralToken: a(5),
			DebtRepaid: 7, CollateralOut: 8, Compound: true},
		FlashLoan{Protocol: a(1), Initiator: a(2), Token: a(3), Amount: 1 << 40, Fee: 9},
		OracleUpdate{Oracle: a(1), Token: a(2), Price: 314159},
	}
	topics := []types.Hash{{0xAA}}
	data := []byte{0xBB}
	var carved []types.Log
	for _, e := range evs {
		var lg types.Log
		lg, topics, data = e.AppendLog(topics, data)
		carved = append(carved, lg)
	}
	for i, e := range evs {
		want, got := e.Log(), carved[i]
		if got.Address != want.Address || len(got.Topics) != len(want.Topics) || string(got.Data) != string(want.Data) {
			t.Fatalf("event %d: appended %+v, Log %+v", i, got, want)
		}
		for k := range want.Topics {
			if got.Topics[k] != want.Topics[k] {
				t.Fatalf("event %d topic %d differs", i, k)
			}
		}
		if cap(got.Topics) != len(got.Topics) || cap(got.Data) != len(got.Data) {
			t.Errorf("event %d: carved slices not capacity-capped (topics %d/%d, data %d/%d)",
				i, len(got.Topics), cap(got.Topics), len(got.Data), cap(got.Data))
		}
		if n := testing.AllocsPerRun(50, func() { e.Log() }); n != 2 {
			t.Errorf("event %d: Log costs %.1f allocs, want 2", i, n)
		}
	}
	if topics[0] != (types.Hash{0xAA}) || data[0] != 0xBB {
		t.Error("AppendLog overwrote what the buffers held before it")
	}
}
