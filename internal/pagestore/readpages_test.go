package pagestore

import (
	"sync"
	"testing"

	"bftree/internal/device"
)

// writeVersions stamps byte 0 of every page with its id plus version.
func writeVersions(t *testing.T, s *Store, pages int, version byte) {
	t.Helper()
	payload := make([]byte, s.PageSize())
	for id := 0; id < pages; id++ {
		payload[0], payload[1] = byte(id), version
		if err := s.WritePage(device.PageID(id), payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadPagesCacheHitsCostNoIO checks that a vector's cache hits are
// served without device reads — only its misses reach the device, and
// they are admitted so the next vector hits — and that the returned
// buffers are caller-owned copies in id order.
func TestReadPagesCacheHitsCostNoIO(t *testing.T) {
	s := newMemStore(16, WithCache(16))
	writeVersions(t, s, 16, 1)
	s.DropCache()
	dev := s.Device()
	dev.ResetStats()

	first := []device.PageID{2, 3, 9}
	if _, err := s.ReadPages(first); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Reads(); got != 3 {
		t.Fatalf("cold vector: %d device reads, want 3", got)
	}

	mixed := []device.PageID{9, 4, 2, 5, 3}
	bufs, err := s.ReadPages(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Reads(); got != 3+2 {
		t.Errorf("mixed vector: %d device reads in total, want 5 (hits 9,2,3 free)", got)
	}
	if hits, misses := s.CacheStats(); hits != 3 || misses != 5 {
		t.Errorf("cache stats hits=%d misses=%d, want 3 and 5", hits, misses)
	}
	for i, id := range mixed {
		if bufs[i][0] != byte(id) || bufs[i][1] != 1 {
			t.Errorf("slot %d: got page %d v%d, want page %d v1", i, bufs[i][0], bufs[i][1], id)
		}
	}

	bufs[0][1] = 99 // caller-owned: must not reach the cache
	again, err := s.ReadPages(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Reads(); got != 5 {
		t.Errorf("warm vector read the device: %d reads, want 5", got)
	}
	if again[0][1] != 1 {
		t.Error("mutating a returned buffer changed the cached page")
	}
}

// TestReadPagesUncachedAndErrors checks the uncached path against
// ReadPage and that an out-of-range id fails the call.
func TestReadPagesUncachedAndErrors(t *testing.T) {
	s := newMemStore(8)
	writeVersions(t, s, 8, 3)
	ids := []device.PageID{7, 0, 1}
	bufs, err := s.ReadPages(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := s.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(bufs[i]) != string(want) {
			t.Errorf("page %d: ReadPages image differs from ReadPage", id)
		}
	}
	if _, err := s.ReadPages([]device.PageID{1, 8}); err == nil {
		t.Error("out-of-range id accepted")
	}
}

// TestReadPagesConcurrentWriter races vectored readers of a small,
// constantly evicting cache against a writer: after the writer stops,
// every page must read back at its final version through both read
// paths — the generation guard kept every vector from admitting an
// image a write overtook. Run under -race.
func TestReadPagesConcurrentWriter(t *testing.T) {
	const pages, rounds = 64, 40
	dev := device.New(device.Memory, 128)
	dev.Allocate(pages)
	s := New(dev, WithCache(pages/4))
	ids := make([]device.PageID, pages)
	for i := range ids {
		ids[i] = device.PageID(i)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := (i*7 + r*13) % (pages - device.MaxInFlight)
				if _, err := s.ReadPages(ids[lo : lo+device.MaxInFlight]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for v := byte(1); v <= rounds; v++ {
		writeVersions(t, s, pages, v)
	}
	close(stop)
	wg.Wait()

	bufs, err := s.ReadPages(ids)
	if err != nil {
		t.Fatal(err)
	}
	for id, buf := range bufs {
		if buf[1] != rounds {
			t.Fatalf("page %d reads version %d after all writes finished, want %d", id, buf[1], rounds)
		}
	}
	for id := range ids {
		buf, err := s.ReadPage(device.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if buf[1] != rounds {
			t.Fatalf("page %d: ReadPage sees version %d, want %d", id, buf[1], rounds)
		}
	}
}
