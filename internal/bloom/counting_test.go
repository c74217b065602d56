package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountingAddRemove(t *testing.T) {
	c, err := NewCounting(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		c.AddUint64(i)
	}
	for i := uint64(0); i < 1000; i++ {
		if !c.ContainsUint64(i) {
			t.Fatalf("false negative for %d", i)
		}
	}
	// Remove the even keys; odd keys must still be present.
	for i := uint64(0); i < 1000; i += 2 {
		if err := c.RemoveUint64(i); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	for i := uint64(1); i < 1000; i += 2 {
		if !c.ContainsUint64(i) {
			t.Fatalf("remove of evens introduced false negative for odd key %d", i)
		}
	}
	if c.Count() != 500 {
		t.Errorf("count = %d, want 500", c.Count())
	}
}

func TestCountingRemoveAbsent(t *testing.T) {
	c, err := NewCounting(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	c.AddUint64(1)
	if err := c.RemoveUint64(99999); err == nil {
		t.Error("removing an absent key should be an error")
	}
	if !c.ContainsUint64(1) {
		t.Error("failed remove must not corrupt the filter")
	}
}

func TestCountingFPP(t *testing.T) {
	const n = 5000
	c, err := NewCounting(n, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		c.AddUint64(i)
	}
	falsePos := 0
	const probes = 50000
	for i := uint64(0); i < probes; i++ {
		if c.ContainsUint64(n + 1000 + i) {
			falsePos++
		}
	}
	if measured := float64(falsePos) / probes; measured > 0.02 {
		t.Errorf("measured fpp %g exceeds 2x design 0.01", measured)
	}
}

func TestCountingSaturation(t *testing.T) {
	// Force saturation by hammering one key; it must remain present even
	// after an equal number of removes (saturated counters stick).
	c := NewCountingWithParams(Params{Bits: 128, Hashes: 3})
	for i := 0; i < 100; i++ {
		c.AddUint64(7)
	}
	for i := 0; i < 100; i++ {
		if err := c.RemoveUint64(7); err != nil {
			t.Fatal(err)
		}
	}
	if !c.ContainsUint64(7) {
		t.Error("saturated counters must never be decremented to zero")
	}
}

func TestCountingErrors(t *testing.T) {
	if _, err := NewCounting(0, 0.01); err == nil {
		t.Error("zero keys should be rejected")
	}
	c := NewCountingWithParams(Params{})
	if c.slots == 0 {
		t.Error("zero params should default to a usable filter")
	}
}

// Property: counting filter add→remove→absent keys never produce false
// negatives for keys that remain.
func TestQuickCountingNoFalseNegativeAfterChurn(t *testing.T) {
	c, err := NewCounting(4096, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(7))
	prop := func(key uint64) bool {
		c.AddUint64(key)
		kept[key] = true
		// Randomly remove an earlier key.
		if len(kept) > 1 && rng.Intn(2) == 0 {
			for k := range kept {
				if k != key {
					if err := c.RemoveUint64(k); err != nil {
						return false
					}
					delete(kept, k)
					break
				}
			}
		}
		for k := range kept {
			if !c.ContainsUint64(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFilterAdd(b *testing.B) {
	f, _ := New(uint64(b.N)+1, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddUint64(uint64(i))
	}
}

func BenchmarkFilterContains(b *testing.B) {
	f, _ := New(100000, 0.01)
	for i := uint64(0); i < 100000; i++ {
		f.AddUint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ContainsUint64(uint64(i))
	}
}
