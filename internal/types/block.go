package types

import (
	"crypto/sha256"
	"encoding/binary"
	"time"
)

// Header carries the consensus fields of a block that the measurement
// pipeline needs: height, timestamp, producer and base fee.
type Header struct {
	Number     uint64
	ParentHash Hash
	Time       time.Time
	Miner      Address
	// BaseFee is zero before the London fork.
	BaseFee  Amount
	GasLimit uint64
	GasUsed  uint64
}

// Block is a sealed set of transactions with their execution receipts.
// Receipts travel with the block because the simulation plays the role of
// an archive node: every historical outcome is queryable.
type Block struct {
	Header   Header
	Txs      []*Transaction
	Receipts []*Receipt

	hash Hash
}

// Seal computes and caches the block hash. Call after the block contents
// are final. The header fields and every transaction hash are laid out
// in a stack buffer (a heap one only for blocks of more than
// sealStackTxs transactions) and hashed in one call.
func (b *Block) Seal() {
	const head = 8 + 32 + 8 + 20 + 8
	var stack [head + 32*sealStackTxs]byte
	buf := stack[:head]
	if need := head + 32*len(b.Txs); need > len(stack) {
		buf = make([]byte, head, need)
	}
	binary.BigEndian.PutUint64(buf[0:], b.Header.Number)
	copy(buf[8:], b.Header.ParentHash[:])
	binary.BigEndian.PutUint64(buf[40:], uint64(b.Header.Time.Unix()))
	copy(buf[48:], b.Header.Miner[:])
	binary.BigEndian.PutUint64(buf[68:], uint64(b.Header.BaseFee))
	for _, tx := range b.Txs {
		h := tx.Hash()
		buf = append(buf, h[:]...)
	}
	b.hash = sha256.Sum256(buf)
}

// sealStackTxs is how many transaction hashes Seal lays out on the
// stack before it falls back to one heap buffer.
const sealStackTxs = 128

// Hash returns the sealed block hash; zero until Seal is called.
func (b *Block) Hash() Hash { return b.hash }

// TxIndex returns the position of the transaction with hash h, or -1.
func (b *Block) TxIndex(h Hash) int {
	for i, tx := range b.Txs {
		if tx.Hash() == h {
			return i
		}
	}
	return -1
}

// ReceiptStatus is the execution outcome of a transaction.
type ReceiptStatus uint8

// Receipt statuses.
const (
	StatusFailed  ReceiptStatus = 0
	StatusSuccess ReceiptStatus = 1
)

// Receipt records the on-chain outcome of executing one transaction.
type Receipt struct {
	TxHash  Hash
	TxIndex int
	Status  ReceiptStatus
	GasUsed uint64
	// EffectiveGasPrice is the realized per-gas price (post-London: base
	// fee + effective tip).
	EffectiveGasPrice Amount
	// CoinbaseTransfer is ETH moved directly to the block producer during
	// execution — how Flashbots searchers pay miners. Zero for ordinary
	// transactions.
	CoinbaseTransfer Amount
	Logs             []Log
}

// Fee returns the total transaction fee paid (gas used times effective
// price).
func (r *Receipt) Fee() Amount {
	return Amount(r.GasUsed) * r.EffectiveGasPrice
}

// Log is an EVM-style event record: an emitting contract address, indexed
// topics and opaque data. Protocol packages provide typed encode/decode
// helpers; detectors consume logs exactly as mev-inspect-style tooling
// consumes archive-node logs.
type Log struct {
	Address Address
	Topics  []Hash
	Data    []byte
}

// EventSignature builds topic-0 for a named event, standing in for the
// Keccak hash of the Solidity event signature.
func EventSignature(name string) Hash { return HashData([]byte("event:" + name)) }
