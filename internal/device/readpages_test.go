package device

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// readPagesIDs is an access list mixing sequential runs, random jumps,
// a backwards step and a repeat, longer than one MaxInFlight chunk.
func readPagesIDs() []PageID {
	ids := []PageID{3, 4, 5, 40, 41, 7, 6, 6, 90, 91, 92, 93, 0}
	for i := PageID(50); len(ids) < MaxInFlight+9; i += 2 {
		ids = append(ids, i, i+1)
	}
	return ids
}

func filledHDD(t *testing.T, pages int) *Device {
	t.Helper()
	d := New(HDD, 256)
	d.Allocate(pages)
	payload := make([]byte, 256)
	for id := 0; id < pages; id++ {
		payload[0], payload[255] = byte(id), byte(id*7)
		if err := d.WritePage(PageID(id), payload); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	return d
}

// TestReadPagesMatchesSerialLoop pins the accounting contract: a vector
// is charged exactly as the same ReadPage calls in slice order — read
// counts, the random/sequential split, bytes and the virtual clock —
// and returns the same page images.
func TestReadPagesMatchesSerialLoop(t *testing.T) {
	ids := readPagesIDs()
	serial, vectored := filledHDD(t, 128), filledHDD(t, 128)

	want := make([][]byte, len(ids))
	for i, id := range ids {
		want[i] = make([]byte, 256)
		if _, err := serial.ReadPage(id, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]byte, len(ids))
	for i := range got {
		got[i] = make([]byte, 256)
	}
	if err := vectored.ReadPages(ids, got); err != nil {
		t.Fatal(err)
	}

	if s, v := serial.Stats(), vectored.Stats(); s != v {
		t.Errorf("vectored stats %+v, serial loop %+v", v, s)
	}
	if serial.Stats().SeqReads == 0 || serial.Stats().RandomReads == 0 {
		t.Fatalf("access list exercises only one access class: %+v", serial.Stats())
	}
	for i := range ids {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("page %d (slot %d): vectored image differs from ReadPage's", ids[i], i)
		}
	}
}

// TestReadPagesRejects checks that a bad vector — an id past the
// device, a short buffer, or mismatched lengths — fails whole and
// charges nothing.
func TestReadPagesRejects(t *testing.T) {
	d := New(HDD, 256)
	d.Allocate(4)
	bufs := func(n, size int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, size)
		}
		return out
	}
	if err := d.ReadPages([]PageID{0, 1, 4}, bufs(3, 256)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range id: err %v, want ErrOutOfRange", err)
	}
	short := bufs(3, 256)
	short[2] = make([]byte, 255)
	if err := d.ReadPages([]PageID{0, 1, 2}, short); err == nil {
		t.Error("short buffer accepted")
	}
	if err := d.ReadPages([]PageID{0, 1}, bufs(1, 256)); err == nil {
		t.Error("fewer buffers than ids accepted")
	}
	if s := d.Stats(); s != (Stats{}) {
		t.Errorf("rejected vectors charged the device: %+v", s)
	}
	if err := d.ReadPages(nil, nil); err != nil {
		t.Errorf("empty vector: %v", err)
	}
}

// TestReadPagesOverlapsRealLatency checks the timing model: one chunk
// of MaxInFlight pages waits one latency period, not one per page, and
// a longer vector waits once per chunk.
func TestReadPagesOverlapsRealLatency(t *testing.T) {
	const lat = 2 * time.Millisecond
	d := New(HDD, 256)
	d.Allocate(3 * MaxInFlight)
	d.SetRealLatency(lat)
	ids := make([]PageID, MaxInFlight)
	bufs := make([][]byte, MaxInFlight)
	for i := range ids {
		ids[i], bufs[i] = PageID(2*i), make([]byte, 256)
	}

	start := time.Now()
	if err := d.ReadPages(ids, bufs); err != nil {
		t.Fatal(err)
	}
	// The serial loop would sleep MaxInFlight×lat = 64ms; allow the one
	// overlapped wait generous scheduler slack, but far below serial.
	serial := time.Duration(MaxInFlight) * lat
	if got := time.Since(start); got >= serial/2 {
		t.Errorf("one chunk of %d pages took %v; serial reads sleep %v", MaxInFlight, got, serial)
	}

	// 2×MaxInFlight+1 pages are three chunks: at least three waits.
	long := make([]PageID, 2*MaxInFlight+1)
	longBufs := make([][]byte, len(long))
	for i := range long {
		long[i], longBufs[i] = PageID(i), make([]byte, 256)
	}
	start = time.Now()
	if err := d.ReadPages(long, longBufs); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 3*lat {
		t.Errorf("%d pages took %v; three chunks must wait at least %v", len(long), got, 3*lat)
	}
}
