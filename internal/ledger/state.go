package ledger

import (
	"sort"
	"sync"
	"sync/atomic"
)

// VersionedValue is a state-database entry: the latest committed value of a
// key together with the version that wrote it.
type VersionedValue struct {
	Value   []byte
	Version Version
}

// StateDB is the versioned key/value store materializing the result of all
// valid transactions (paper §II-B). It is safe for concurrent use.
//
// A StateDB is a view of one version history: every committed version of a
// key, appended in commit order. The head view (NewStateDB, and the one a
// Chain validates against) reads the newest version of a key; a Ledger's
// view reads the newest version committed below that ledger's height, so an
// endorser simulates at its own peer's height however far the chain is
// ahead. A version is appended before any ledger's height can pass it, so a
// view reads the same value whichever goroutine extends the chain.
type StateDB struct {
	h *history
	// below bounds the view to versions with BlockNum < *below; nil is the
	// head view.
	below *atomic.Uint64
}

// history holds every version a chain committed, per key in commit order
// (so ascending by BlockNum). It grows by one entry per committed write.
type history struct {
	mu   sync.RWMutex
	vers map[string][]VersionedValue
}

// NewStateDB returns an empty state database, viewed at its head.
func NewStateDB() *StateDB {
	return &StateDB{h: &history{vers: make(map[string][]VersionedValue)}}
}

// Get returns the committed value and version for key. Missing keys return
// ok=false; their implicit version is the zero Version, which is how read
// sets of never-written keys validate.
func (s *StateDB) Get(key string) (VersionedValue, bool) {
	s.h.mu.RLock()
	defer s.h.mu.RUnlock()
	return s.visible(s.h.vers[key])
}

// visible picks the newest of a key's versions the view sees: the last one
// at the head or when the bound is past it, else the one before the first
// at or above the bound, found by binary search. Callers hold the history's
// lock.
func (s *StateDB) visible(vs []VersionedValue) (VersionedValue, bool) {
	n := len(vs)
	if n > 0 && s.below != nil {
		if h := s.below.Load(); vs[n-1].Version.BlockNum >= h {
			n = sort.Search(n, func(i int) bool { return vs[i].Version.BlockNum >= h })
		}
	}
	if n == 0 {
		return VersionedValue{}, false
	}
	return vs[n-1], true
}

// VersionOf returns the committed version of key (zero Version if unset).
func (s *StateDB) VersionOf(key string) Version {
	vv, _ := s.Get(key)
	return vv.Version
}

// ApplyBlockWrites commits the write sets of the valid transactions of
// block num. txNums[i] gives the in-block position of writeSets[i]. Blocks
// are applied in commit order, whichever view the call goes through.
func (s *StateDB) ApplyBlockWrites(num uint64, txNums []uint32, writeSets []RWSet) {
	if len(txNums) != len(writeSets) {
		panic("ledger: ApplyBlockWrites length mismatch")
	}
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	for i, rw := range writeSets {
		v := Version{BlockNum: num, TxNum: txNums[i]}
		for _, w := range rw.Writes {
			val := make([]byte, len(w.Value))
			copy(val, w.Value)
			s.h.vers[w.Key] = append(s.h.vers[w.Key], VersionedValue{Value: val, Version: v})
		}
	}
}
