package main

import (
	"fmt"
	"sync"

	"bftree/internal/workload"
)

// The relation's primary key is the tuple ordinal 0..N-1 and the data
// file never changes during a run, so every answer can be checked
// exactly. Deletes remove index associations only; a key the run has
// deleted (or is deleting) may or may not be found afterwards, any key
// it has not must always be.

// deletedSet holds every key a delete op has been issued for. A key is
// added before its delete is sent, so a probe racing the delete is
// checked leniently.
type deletedSet struct {
	mu   sync.Mutex
	keys map[uint64]struct{}
}

func newDeletedSet() *deletedSet { return &deletedSet{keys: map[uint64]struct{}{}} }

func (d *deletedSet) add(k uint64) {
	d.mu.Lock()
	d.keys[k] = struct{}{}
	d.mu.Unlock()
}

func (d *deletedSet) has(k uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.keys[k]
	return ok
}

// pkOf reads a synthetic tuple's primary key.
func pkOf(t []byte) (uint64, error) {
	if len(t) != workload.SyntheticSchema.TupleSize {
		return 0, fmt.Errorf("tuple of %d bytes, want %d", len(t), workload.SyntheticSchema.TupleSize)
	}
	return workload.SyntheticSchema.Get(t, 0), nil
}

// checkPoint: every tuple carries key, and key is found unless deleted.
func checkPoint(key uint64, tuples [][]byte, del *deletedSet) error {
	for _, t := range tuples {
		pk, err := pkOf(t)
		if err != nil {
			return err
		}
		if pk != key {
			return fmt.Errorf("search %d returned key %d", key, pk)
		}
	}
	if len(tuples) == 0 && !del.has(key) {
		return fmt.Errorf("search %d: live key not found", key)
	}
	return nil
}

// checkMulti: every tuple carries a requested key and every live
// requested key is answered.
func checkMulti(keys []uint64, tuples [][]byte, del *deletedSet) error {
	want := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		want[k] = false
	}
	for _, t := range tuples {
		pk, err := pkOf(t)
		if err != nil {
			return err
		}
		if _, ok := want[pk]; !ok {
			return fmt.Errorf("multi-search returned unrequested key %d", pk)
		}
		want[pk] = true
	}
	for k, found := range want {
		if !found && !del.has(k) {
			return fmt.Errorf("multi-search: live key %d not answered", k)
		}
	}
	return nil
}

// checkScan: the tuples lie in [lo, hi] in ascending key order, as
// index.Index promises for RangeScan, and none is lost. An unlimited
// scan returns every live key of [lo, hi]. A LIMIT-k scan returns the
// first min(k, matches) keys of the range: no live key below its last
// one is missing, and it stops short of k only when no live key of the
// range is left. A deleted key may count as a match or not.
func checkScan(lo, hi uint64, limit int, tuples [][]byte, del *deletedSet) error {
	seen := make(map[uint64]bool, len(tuples))
	var prev uint64
	for i, t := range tuples {
		pk, err := pkOf(t)
		if err != nil {
			return err
		}
		if pk < lo || pk > hi {
			return fmt.Errorf("scan [%d,%d] returned key %d out of range", lo, hi, pk)
		}
		if i > 0 && pk <= prev {
			return fmt.Errorf("scan [%d,%d] returned key %d after key %d", lo, hi, pk, prev)
		}
		seen[pk] = true
		prev = pk
	}
	last := hi
	if limit > 0 {
		if len(tuples) > limit {
			return fmt.Errorf("scan [%d,%d] limit %d returned %d tuples", lo, hi, limit, len(tuples))
		}
		if len(tuples) == limit {
			last = prev
		}
	}
	for k := lo; k <= last; k++ {
		if !seen[k] && !del.has(k) {
			return fmt.Errorf("scan [%d,%d] limit %d returned %d tuples without live key %d", lo, hi, limit, len(tuples), k)
		}
	}
	return nil
}
