package bloom

import "fmt"

// CountingFilter is a counting Bloom filter: each position holds a small
// counter instead of a single bit, so keys can be removed. Section 7 of
// the paper discusses deletable Bloom filter variants as the alternative
// to letting deletes degrade the false positive probability; BF-Tree
// leaves can be configured to use counting filters for update-heavy
// workloads (see the deletes ablation).
//
// Counters are 4 bits wide, the classic choice: the probability of any
// counter exceeding 15 under optimal hashing is below 1e-15 per key.
// Counters saturate at 15 rather than overflowing; a saturated counter is
// never decremented, which preserves the no-false-negative guarantee at
// the cost of a marginally higher false positive rate after heavy churn.
type CountingFilter struct {
	counters []uint8 // two 4-bit counters per byte
	slots    uint64
	hashes   int
	count    uint64
}

// NewCounting creates a counting filter sized for the given key count and
// false positive probability. It uses the same Equation 1 geometry as the
// plain filter but spends 4 bits per position.
func NewCounting(keys uint64, fpp float64) (*CountingFilter, error) {
	p, err := ParamsForKeys(keys, fpp, 0)
	if err != nil {
		return nil, err
	}
	return NewCountingWithParams(p), nil
}

// NewCountingWithParams creates a counting filter with explicit geometry;
// p.Bits is interpreted as the number of counter slots.
func NewCountingWithParams(p Params) *CountingFilter {
	slots := p.Bits
	if slots == 0 {
		slots = 64
	}
	h := p.Hashes
	if h < 1 {
		h = 1
	}
	return &CountingFilter{
		counters: make([]uint8, (slots+1)/2),
		slots:    slots,
		hashes:   h,
	}
}

const countingSaturation = 15

func (c *CountingFilter) get(idx uint64) uint8 {
	b := c.counters[idx/2]
	if idx%2 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

func (c *CountingFilter) set(idx uint64, v uint8) {
	b := c.counters[idx/2]
	if idx%2 == 0 {
		b = (b &^ 0x0f) | (v & 0x0f)
	} else {
		b = (b &^ 0xf0) | (v << 4)
	}
	c.counters[idx/2] = b
}

// Add inserts a key, incrementing its k counters (saturating at 15).
func (c *CountingFilter) Add(key []byte) {
	h1, h2 := baseHashes(key)
	for i := 0; i < c.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % c.slots
		if v := c.get(idx); v < countingSaturation {
			c.set(idx, v+1)
		}
	}
	c.count++
}

// AddUint64 inserts a uint64 key in big-endian encoding.
func (c *CountingFilter) AddUint64(key uint64) {
	c.Add(beUint64(key))
}

// Remove deletes a key, decrementing its k counters. Removing a key that
// was never added corrupts the filter (it may introduce false negatives
// for other keys), exactly as in the literature; callers must only remove
// keys they previously added. Saturated counters are left untouched.
func (c *CountingFilter) Remove(key []byte) error {
	h1, h2 := baseHashes(key)
	// First verify membership so that removing an absent key is an error
	// instead of silent corruption.
	for i := 0; i < c.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % c.slots
		if c.get(idx) == 0 {
			return fmt.Errorf("%w: removing absent key", ErrInvalidParams)
		}
	}
	for i := 0; i < c.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % c.slots
		if v := c.get(idx); v > 0 && v < countingSaturation {
			c.set(idx, v-1)
		}
	}
	if c.count > 0 {
		c.count--
	}
	return nil
}

// RemoveUint64 deletes a uint64 key in big-endian encoding.
func (c *CountingFilter) RemoveUint64(key uint64) error {
	return c.Remove(beUint64(key))
}

// Contains reports whether the key may be in the set.
func (c *CountingFilter) Contains(key []byte) bool {
	h1, h2 := baseHashes(key)
	for i := 0; i < c.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % c.slots
		if c.get(idx) == 0 {
			return false
		}
	}
	return true
}

// ContainsUint64 tests a uint64 key in big-endian encoding.
func (c *CountingFilter) ContainsUint64(key uint64) bool {
	return c.Contains(beUint64(key))
}

// Count returns the net number of keys (adds minus removes).
func (c *CountingFilter) Count() uint64 { return c.count }

// Raw exposes the underlying counter array (aliased, not copied), for
// embedders that pack many filters into one page.
func (c *CountingFilter) Raw() []uint8 { return c.counters }

// CountingFromRaw reconstructs a counting filter around an existing
// counter array, the inverse of Raw. The slice is aliased.
func CountingFromRaw(counters []uint8, slots uint64, hashes int, count uint64) *CountingFilter {
	return &CountingFilter{counters: counters, slots: slots, hashes: hashes, count: count}
}

// SizeBytes returns the memory footprint of the counter array.
func (c *CountingFilter) SizeBytes() uint64 { return uint64(len(c.counters)) }

func beUint64(key uint64) []byte {
	return []byte{
		byte(key >> 56), byte(key >> 48), byte(key >> 40), byte(key >> 32),
		byte(key >> 24), byte(key >> 16), byte(key >> 8), byte(key),
	}
}
