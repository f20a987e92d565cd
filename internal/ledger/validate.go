package ledger

import (
	"runtime"
	"sync"
)

// ValidationCode classifies the outcome of validating one transaction
// within a block.
type ValidationCode uint8

// Validation outcomes. Values start at 1 so the zero value is invalid.
const (
	// CodeValid marks a transaction whose endorsements satisfy the policy
	// and whose read set matches the committed state.
	CodeValid ValidationCode = iota + 1
	// CodeMVCCConflict marks a validation-time conflict (paper §II-C):
	// the transaction read a version that is no longer current.
	CodeMVCCConflict
	// CodeEndorsementFailure marks a transaction whose endorsements do not
	// satisfy the endorsement policy.
	CodeEndorsementFailure
)

// String returns a short name for the code.
func (c ValidationCode) String() string {
	switch c {
	case CodeValid:
		return "VALID"
	case CodeMVCCConflict:
		return "MVCC_CONFLICT"
	case CodeEndorsementFailure:
		return "ENDORSEMENT_FAILURE"
	default:
		return "INVALID_CODE"
	}
}

// PolicyChecker validates a transaction's endorsements. Implementations
// live in the endorse package; the ledger only needs the verdict.
type PolicyChecker func(tx *Transaction) error

// ValidateBlock runs Fabric's validation phase for one block against the
// current state database: the policy pass (checkPolicy), then the MVCC pass
// (checkMVCC). As in Fabric, a transaction also conflicts with earlier valid
// transactions of the same block that wrote any key it read.
//
// It returns one code per transaction. It does not mutate the state
// database; callers apply the write sets of valid transactions afterwards
// (see Ledger.Commit).
func ValidateBlock(state *StateDB, b *Block, policy PolicyChecker) []ValidationCode {
	txs := b.Transactions()
	codes := make([]ValidationCode, len(txs))
	checkPolicy(codes, txs, policy)
	checkMVCC(codes, state, b)
	return codes
}

// checkPolicy is the policy pass: it sets codes[i] to CodeEndorsementFailure
// for every transaction whose endorsements fail policy and leaves the other
// codes alone. A verdict is a pure function of the transaction and the
// policy, so, as Fabric's committer does, the pass runs on GOMAXPROCS
// workers, each taking a stride of txs; a nil policy or a single transaction
// costs no goroutine.
func checkPolicy(codes []ValidationCode, txs []*Transaction, policy PolicyChecker) {
	if policy == nil {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), len(txs))
	if workers <= 1 {
		checkStride(codes, txs, policy, 0, 1)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkStride(codes, txs, policy, w, workers)
		}()
	}
	checkStride(codes, txs, policy, 0, workers)
	wg.Wait()
}

func checkStride(codes []ValidationCode, txs []*Transaction, policy PolicyChecker, first, stride int) {
	for i := first; i < len(txs); i += stride {
		if policy(txs[i]) != nil {
			codes[i] = CodeEndorsementFailure
		}
	}
}

// checkMVCC is the MVCC pass, sequential in block order: every code the
// policy pass left zero becomes CodeValid or CodeMVCCConflict.
func checkMVCC(codes []ValidationCode, state *StateDB, b *Block) {
	// Keys written by earlier VALID transactions in this block.
	wroteInBlock := make(map[string]bool)
	for i, tx := range b.Transactions() {
		if codes[i] == CodeEndorsementFailure {
			continue
		}
		conflict := false
		for _, r := range tx.RWSet.Reads {
			if wroteInBlock[r.Key] || state.VersionOf(r.Key) != r.Version {
				conflict = true
				break
			}
		}
		if conflict {
			codes[i] = CodeMVCCConflict
			continue
		}
		codes[i] = CodeValid
		for _, w := range tx.RWSet.Writes {
			wroteInBlock[w.Key] = true
		}
	}
}
