// Package events defines the typed event-log vocabulary of the simulated
// protocols and the encode/decode helpers for each event.
//
// The layout imitates Solidity event logs: topic 0 is the event signature,
// indexed parameters occupy the remaining topics, and value parameters are
// packed into Data. Detection code decodes logs with these helpers exactly
// the way mev-inspect-style tools decode archive-node logs; nothing else
// about the simulation is visible to it.
package events

import (
	"encoding/binary"

	"mevscope/internal/types"
)

// Event signatures (topic 0 values).
var (
	SigTransfer = types.EventSignature("Transfer(address,address,uint256)")
	// SigSwap covers all AMM venues (the paper's detectors treat swap
	// events from every exchange uniformly).
	SigSwap = types.EventSignature("Swap(address,address,address,address,uint256,uint256)")
	SigSync = types.EventSignature("Sync(uint112,uint112)")
	// SigLiquidationCall is Aave's liquidation event.
	SigLiquidationCall = types.EventSignature("LiquidationCall(address,address,address,uint256,uint256)")
	// SigLiquidateBorrow is Compound's liquidation event.
	SigLiquidateBorrow = types.EventSignature("LiquidateBorrow(address,address,uint256,address,uint256)")
	SigFlashLoan       = types.EventSignature("FlashLoan(address,address,uint256,uint256)")
	SigOracleUpdate    = types.EventSignature("AnswerUpdated(int256,uint256,uint256)")
)

func amt(b []byte, off int) types.Amount {
	if off+8 > len(b) {
		return 0
	}
	return types.Amount(binary.BigEndian.Uint64(b[off : off+8]))
}

func appendAmt(b []byte, a types.Amount) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(a))
}

// carve returns the log whose topics and data are what was appended to
// the buffers past t0 and d0, capacity-capped so that appending to one
// log's slices can never overwrite a neighbour's in a shared buffer.
func carve(addr types.Address, topics []types.Hash, t0 int, data []byte, d0 int) types.Log {
	return types.Log{
		Address: addr,
		Topics:  topics[t0:len(topics):len(topics)],
		Data:    data[d0:len(data):len(data)],
	}
}

// Every event encodes through an AppendLog method: it appends the
// event's topics and data to caller-owned buffers and returns the log
// carved from them plus the grown buffers, so a decoder that rebuilds
// many logs can lay them all out in shared slabs. Log is AppendLog into
// buffers of exactly the event's size.

// Transfer is an ERC-20 transfer event emitted by the token contract.
type Transfer struct {
	Token    types.Address // emitting contract
	From, To types.Address
	Amount   types.Amount
}

// Log encodes the event.
func (e Transfer) Log() types.Log {
	lg, _, _ := e.AppendLog(make([]types.Hash, 0, 3), make([]byte, 0, 8))
	return lg
}

// AppendLog encodes the event into the given buffers.
func (e Transfer) AppendLog(topics []types.Hash, data []byte) (types.Log, []types.Hash, []byte) {
	t0, d0 := len(topics), len(data)
	topics = append(topics, SigTransfer, e.From.Hash(), e.To.Hash())
	data = appendAmt(data, e.Amount)
	return carve(e.Token, topics, t0, data, d0), topics, data
}

// DecodeTransfer parses a Transfer event; ok is false for other logs.
func DecodeTransfer(l types.Log) (Transfer, bool) {
	if len(l.Topics) != 3 || l.Topics[0] != SigTransfer {
		return Transfer{}, false
	}
	return Transfer{
		Token:  l.Address,
		From:   types.AddressFromHash(l.Topics[1]),
		To:     types.AddressFromHash(l.Topics[2]),
		Amount: amt(l.Data, 0),
	}, true
}

// Swap is a DEX trade event emitted by the pool contract.
type Swap struct {
	Pool      types.Address // emitting pool contract
	Sender    types.Address // account that initiated the swap
	Recipient types.Address
	TokenIn   types.Address
	TokenOut  types.Address
	AmountIn  types.Amount
	AmountOut types.Amount
}

// Log encodes the event.
func (e Swap) Log() types.Log {
	lg, _, _ := e.AppendLog(make([]types.Hash, 0, 3), make([]byte, 0, 20+20+8+8))
	return lg
}

// AppendLog encodes the event into the given buffers.
func (e Swap) AppendLog(topics []types.Hash, data []byte) (types.Log, []types.Hash, []byte) {
	t0, d0 := len(topics), len(data)
	topics = append(topics, SigSwap, e.Sender.Hash(), e.Recipient.Hash())
	data = append(data, e.TokenIn[:]...)
	data = append(data, e.TokenOut[:]...)
	data = appendAmt(data, e.AmountIn)
	data = appendAmt(data, e.AmountOut)
	return carve(e.Pool, topics, t0, data, d0), topics, data
}

// DecodeSwap parses a Swap event; ok is false for other logs.
func DecodeSwap(l types.Log) (Swap, bool) {
	if len(l.Topics) != 3 || l.Topics[0] != SigSwap || len(l.Data) < 56 {
		return Swap{}, false
	}
	return Swap{
		Pool:      l.Address,
		Sender:    types.AddressFromHash(l.Topics[1]),
		Recipient: types.AddressFromHash(l.Topics[2]),
		TokenIn:   types.BytesToAddress(l.Data[0:20]),
		TokenOut:  types.BytesToAddress(l.Data[20:40]),
		AmountIn:  amt(l.Data, 40),
		AmountOut: amt(l.Data, 48),
	}, true
}

// Sync reports pool reserves after a swap or liquidity change.
type Sync struct {
	Pool               types.Address
	ReserveA, ReserveB types.Amount
}

// Log encodes the event.
func (e Sync) Log() types.Log {
	lg, _, _ := e.AppendLog(make([]types.Hash, 0, 1), make([]byte, 0, 16))
	return lg
}

// AppendLog encodes the event into the given buffers.
func (e Sync) AppendLog(topics []types.Hash, data []byte) (types.Log, []types.Hash, []byte) {
	t0, d0 := len(topics), len(data)
	topics = append(topics, SigSync)
	data = appendAmt(data, e.ReserveA)
	data = appendAmt(data, e.ReserveB)
	return carve(e.Pool, topics, t0, data, d0), topics, data
}

// DecodeSync parses a Sync event; ok is false for other logs.
func DecodeSync(l types.Log) (Sync, bool) {
	if len(l.Topics) != 1 || l.Topics[0] != SigSync || len(l.Data) < 16 {
		return Sync{}, false
	}
	return Sync{Pool: l.Address, ReserveA: amt(l.Data, 0), ReserveB: amt(l.Data, 8)}, true
}

// Liquidation is a lending-protocol liquidation event. Aave emits it as
// LiquidationCall, Compound as LiquidateBorrow; Compound reports its own
// signature via the Compound flag.
type Liquidation struct {
	Protocol        types.Address // emitting lending pool
	Liquidator      types.Address
	Borrower        types.Address
	DebtToken       types.Address
	CollateralToken types.Address
	DebtRepaid      types.Amount
	CollateralOut   types.Amount
	Compound        bool
}

// Log encodes the event with the protocol-appropriate signature.
func (e Liquidation) Log() types.Log {
	lg, _, _ := e.AppendLog(make([]types.Hash, 0, 3), make([]byte, 0, 20+20+8+8))
	return lg
}

// AppendLog encodes the event into the given buffers.
func (e Liquidation) AppendLog(topics []types.Hash, data []byte) (types.Log, []types.Hash, []byte) {
	sig := SigLiquidationCall
	if e.Compound {
		sig = SigLiquidateBorrow
	}
	t0, d0 := len(topics), len(data)
	topics = append(topics, sig, e.Liquidator.Hash(), e.Borrower.Hash())
	data = append(data, e.DebtToken[:]...)
	data = append(data, e.CollateralToken[:]...)
	data = appendAmt(data, e.DebtRepaid)
	data = appendAmt(data, e.CollateralOut)
	return carve(e.Protocol, topics, t0, data, d0), topics, data
}

// DecodeLiquidation parses either liquidation event; ok is false otherwise.
func DecodeLiquidation(l types.Log) (Liquidation, bool) {
	if len(l.Topics) != 3 || len(l.Data) < 56 {
		return Liquidation{}, false
	}
	var compound bool
	switch l.Topics[0] {
	case SigLiquidationCall:
	case SigLiquidateBorrow:
		compound = true
	default:
		return Liquidation{}, false
	}
	return Liquidation{
		Protocol:        l.Address,
		Liquidator:      types.AddressFromHash(l.Topics[1]),
		Borrower:        types.AddressFromHash(l.Topics[2]),
		DebtToken:       types.BytesToAddress(l.Data[0:20]),
		CollateralToken: types.BytesToAddress(l.Data[20:40]),
		DebtRepaid:      amt(l.Data, 40),
		CollateralOut:   amt(l.Data, 48),
		Compound:        compound,
	}, true
}

// FlashLoan is emitted by a lending protocol when a flash loan completes
// successfully (the detection technique of Wang et al.).
type FlashLoan struct {
	Protocol  types.Address
	Initiator types.Address
	Token     types.Address
	Amount    types.Amount
	Fee       types.Amount
}

// Log encodes the event.
func (e FlashLoan) Log() types.Log {
	lg, _, _ := e.AppendLog(make([]types.Hash, 0, 2), make([]byte, 0, 20+8+8))
	return lg
}

// AppendLog encodes the event into the given buffers.
func (e FlashLoan) AppendLog(topics []types.Hash, data []byte) (types.Log, []types.Hash, []byte) {
	t0, d0 := len(topics), len(data)
	topics = append(topics, SigFlashLoan, e.Initiator.Hash())
	data = append(data, e.Token[:]...)
	data = appendAmt(data, e.Amount)
	data = appendAmt(data, e.Fee)
	return carve(e.Protocol, topics, t0, data, d0), topics, data
}

// DecodeFlashLoan parses a FlashLoan event; ok is false for other logs.
func DecodeFlashLoan(l types.Log) (FlashLoan, bool) {
	if len(l.Topics) != 2 || l.Topics[0] != SigFlashLoan || len(l.Data) < 36 {
		return FlashLoan{}, false
	}
	return FlashLoan{
		Protocol:  l.Address,
		Initiator: types.AddressFromHash(l.Topics[1]),
		Token:     types.BytesToAddress(l.Data[0:20]),
		Amount:    amt(l.Data, 20),
		Fee:       amt(l.Data, 28),
	}, true
}

// OracleUpdate is a price-feed answer update.
type OracleUpdate struct {
	Oracle types.Address
	Token  types.Address
	// Price is ETH per whole token in Amount base units.
	Price types.Amount
}

// Log encodes the event.
func (e OracleUpdate) Log() types.Log {
	lg, _, _ := e.AppendLog(make([]types.Hash, 0, 1), make([]byte, 0, 20+8))
	return lg
}

// AppendLog encodes the event into the given buffers.
func (e OracleUpdate) AppendLog(topics []types.Hash, data []byte) (types.Log, []types.Hash, []byte) {
	t0, d0 := len(topics), len(data)
	topics = append(topics, SigOracleUpdate)
	data = append(data, e.Token[:]...)
	data = appendAmt(data, e.Price)
	return carve(e.Oracle, topics, t0, data, d0), topics, data
}

// DecodeOracleUpdate parses an oracle update; ok is false for other logs.
func DecodeOracleUpdate(l types.Log) (OracleUpdate, bool) {
	if len(l.Topics) != 1 || l.Topics[0] != SigOracleUpdate || len(l.Data) < 28 {
		return OracleUpdate{}, false
	}
	return OracleUpdate{
		Oracle: l.Address,
		Token:  types.BytesToAddress(l.Data[0:20]),
		Price:  amt(l.Data, 20),
	}, true
}
