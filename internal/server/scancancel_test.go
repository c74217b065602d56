package server_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/server"
)

// slowScanIndex mounts a bftree whose streamed scans pull one tuple per
// millisecond, so a full scan outlives its client by seconds unless the
// server notices the client left. started closes at the first pull.
type slowScanIndex struct {
	index.Index
	started chan struct{}
	once    sync.Once
}

func (s *slowScanIndex) Scan(lo, hi uint64) (index.Iterator, error) {
	it, err := s.Index.(index.Scanner).Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	return &slowIter{Iterator: it, s: s}, nil
}

func (s *slowScanIndex) Maintain() error { return s.Index.(index.Maintainer).Maintain() }
func (s *slowScanIndex) MaintenanceStats() index.MaintenanceStats {
	return s.Index.(index.Maintainer).MaintenanceStats()
}

type slowIter struct {
	index.Iterator
	s *slowScanIndex
}

func (it *slowIter) Next() bool {
	it.s.once.Do(func() { close(it.s.started) })
	time.Sleep(time.Millisecond)
	return it.Iterator.Next()
}

// TestAbandonedScanReleasesRegistration opens a /scan whose stream
// would take over 6s, retires pages while it runs, and then drops the
// client. The open cursor's reader registration pins the retired pages
// in limbo; the server must notice the cancelled request at its next
// pull and close the cursor, so limbo drains long before the scan
// would have finished. With one chunk covering the whole range, the
// handler writes nothing until the end, so a server that only noticed
// a failed chunk write would pin limbo for the full scan.
func TestAbandonedScanReleasesRegistration(t *testing.T) {
	const n = 6000 // 2000 keys, step 5, three tuples each
	file, _ := servedRelation(t, n)
	bf, err := index.New("bftree", pagestore.New(device.New(device.Memory, 4096)), file, 0, index.Options{
		BFTree: core.Options{FPP: 0.01, Maintenance: core.MaintenancePolicy{
			Mode:         core.MaintenanceManual,
			FPPThreshold: 0.02,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	ix := &slowScanIndex{Index: bf, started: make(chan struct{})}
	ts := httptest.NewServer(server.New(ix, server.Options{ScanChunk: n}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/scan",
		bytes.NewReader([]byte(`{"lo":0,"hi":100000}`)))
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	select {
	case <-ix.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the scan never started")
	}

	// Retire pages under the open cursor: deletes drift the filters past
	// the threshold, and Maintain compacts, retiring the old leaves.
	del := bf.(index.Deleter)
	for i := 0; i < n/2; i += 3 {
		if err := del.Delete(uint64(i/3)*5, index.Ref{Page: file.PageOf(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Maintain(); err != nil {
		t.Fatal(err)
	}
	if ix.MaintenanceStats().LimboPages == 0 {
		t.Fatal("maintenance retired no pages; the test needs limbo pinned by the scan")
	}

	cancel()
	<-clientDone
	deadline := time.Now().Add(2 * time.Second)
	for ix.MaintenanceStats().LimboPages > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pages still in limbo 2s after the client left; the abandoned scan kept its registration",
				ix.MaintenanceStats().LimboPages)
		}
		if err := ix.Maintain(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
