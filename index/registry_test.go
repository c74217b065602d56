package index_test

import (
	"errors"
	"testing"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

func TestRegistryHasAllFourBackends(t *testing.T) {
	want := []string{"bftree", "bptree", "fdtree", "hash"}
	got := index.Backends()
	for _, name := range want {
		if _, ok := index.Lookup(name); !ok {
			t.Errorf("backend %q not registered (have %v)", name, got)
		}
	}
	if len(got) < len(want) {
		t.Errorf("Backends() = %v, want at least %v", got, want)
	}
}

func TestNewUnknownBackend(t *testing.T) {
	file, _ := goldenRelation(t, 30)
	store := pagestore.New(device.New(device.Memory, 4096))
	if _, err := index.New("btree2000", store, file, 0, index.Options{}); !errors.Is(err, index.ErrUnknownBackend) {
		t.Errorf("err = %v, want ErrUnknownBackend", err)
	}
	if _, err := index.Open("btree2000", store, file, nil); !errors.Is(err, index.ErrUnknownBackend) {
		t.Errorf("Open err = %v, want ErrUnknownBackend", err)
	}
}

func TestNewByFieldUnknownField(t *testing.T) {
	file, _ := goldenRelation(t, 30)
	store := pagestore.New(device.New(device.Memory, 4096))
	_, err := index.NewByField("bptree", store, file, "no_such_field", index.Options{})
	if !errors.Is(err, index.ErrUnknownField) {
		t.Errorf("errors.Is(err, ErrUnknownField) = false for %v", err)
	}
	// The field-index factory guards its range the same way.
	if _, err := index.New("bptree", store, file, 99, index.Options{}); !errors.Is(err, index.ErrUnknownField) {
		t.Errorf("out-of-range field index: err = %v, want ErrUnknownField", err)
	}
	// A declared field builds.
	ix, err := index.NewByField("bptree", store, file, "seq", index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
}

// TestNewRejectsUnorderedField pins the BF-Tree's ordering contract at
// the factory: TPCH receiptdate is only implicitly clustered (the
// relation is ordered on shipdate), so leaves packed over it would
// overlap and probes would miss tuples. The build must refuse.
func TestNewRejectsUnorderedField(t *testing.T) {
	tp, err := workload.GenerateTPCH(pagestore.New(device.New(device.Memory, 4096)), 20000, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	store := pagestore.New(device.New(device.Memory, 4096))
	recv := workload.TPCHSchema.FieldIndex("receiptdate")
	if _, err := index.New("bftree", store, tp.File, recv, index.Options{}); !errors.Is(err, index.ErrKeyRange) {
		t.Errorf("bftree over receiptdate: err = %v, want ErrKeyRange", err)
	}
	// The ordered field of the same relation builds.
	ix, err := index.NewByField("bftree", store, tp.File, "shipdate", index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
}
