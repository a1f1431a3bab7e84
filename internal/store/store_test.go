package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func appendN(t *testing.T, s *Store, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		rec := Record{
			Seq:     uint64(i),
			Time:    time.Now().UnixNano(),
			Tenant:  "default",
			Session: fmt.Sprintf("s%d", i),
			Payload: json.RawMessage(fmt.Sprintf(`{"session":"s%d","ops":%d}`, i, i*10)),
		}
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

func collect(t *testing.T, s *Store) []Record {
	t.Helper()
	var out []Record
	if err := s.Scan(func(r Record) bool { out = append(out, r); return true }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

// TestStoreRoundTrip appends, closes, reopens, and asserts every record
// comes back in order with its payload intact.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	appendN(t, s, 1, 25)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	recs := collect(t, s)
	if len(recs) != 25 {
		t.Fatalf("recovered %d records, want 25", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Errorf("rec[%d].Seq = %d, want %d", i, rec.Seq, i+1)
		}
		var body struct {
			Session string `json:"session"`
			Ops     int    `json:"ops"`
		}
		if err := json.Unmarshal(rec.Payload, &body); err != nil {
			t.Fatalf("rec[%d] payload: %v", i, err)
		}
		if body.Session != rec.Session || body.Ops != (i+1)*10 {
			t.Errorf("rec[%d] payload %+v, want session %s ops %d", i, body, rec.Session, (i+1)*10)
		}
	}
	st := s.Stats()
	if st.Recovered != 25 || st.LastSeq != 25 || st.TailTruncated {
		t.Errorf("stats after clean recovery: %+v", st)
	}
	// Appends continue above the recovered seq.
	appendN(t, s, 26, 1)
	if got := s.LastSeq(); got != 26 {
		t.Errorf("LastSeq after post-recovery append = %d, want 26", got)
	}
}

// TestStoreTruncatedTailRecovery is the crash-recovery contract: a
// segment cut mid-record (inside the frame header, inside the payload,
// and with a corrupted CRC) recovers every record before the tear,
// drops the torn tail, and keeps accepting appends.
func TestStoreTruncatedTailRecovery(t *testing.T) {
	for _, cut := range []struct {
		name   string
		mangle func(t *testing.T, path string)
	}{
		{"mid-header", func(t *testing.T, path string) { truncateBy(t, path, 5) }},
		{"mid-payload", func(t *testing.T, path string) { truncateBy(t, path, frameHeaderSize+3) }},
		{"bad-crc", func(t *testing.T, path string) { flipLastByte(t, path) }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			appendN(t, s, 1, 10)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := segmentNames(dir)
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments %v, err %v", segs, err)
			}
			cut.mangle(t, filepath.Join(dir, segs[0]))

			s = mustOpen(t, dir, Options{})
			defer s.Close()
			recs := collect(t, s)
			if len(recs) != 9 {
				t.Fatalf("recovered %d records, want 9 (the torn 10th dropped)", len(recs))
			}
			for i, rec := range recs {
				if rec.Seq != uint64(i+1) {
					t.Errorf("rec[%d].Seq = %d, want %d", i, rec.Seq, i+1)
				}
			}
			st := s.Stats()
			if !st.TailTruncated {
				t.Error("TailTruncated not reported")
			}
			// The store stays writable and the next seq slots in above the
			// surviving records.
			appendN(t, s, 10, 2)
			if got := len(collect(t, s)); got != 11 {
				t.Errorf("%d records after post-recovery appends, want 11", got)
			}
		})
	}
}

// truncateBy cuts n bytes off the end of path.
func truncateBy(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// flipLastByte corrupts the final payload byte so its CRC fails.
func flipLastByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTornMagicRecovery covers a crash between segment creation and
// the first append: a file without a full magic line resets to empty.
func TestStoreTornMagicRecovery(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 1), []byte("VELO"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if recs := collect(t, s); len(recs) != 0 {
		t.Fatalf("recovered %d records from a torn-magic segment, want 0", len(recs))
	}
	appendN(t, s, 1, 3)
	if recs := collect(t, s); len(recs) != 3 {
		t.Errorf("%d records after appends, want 3", len(recs))
	}
}

// TestStoreRotationAndRetention drives the store across many small
// segments and asserts the size bound drops the oldest ones whole.
func TestStoreRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// ~90-byte payloads against a 1 KiB segment bound: a handful of
	// records per segment, many segments, retention at 4 KiB total.
	s := mustOpen(t, dir, Options{SegmentBytes: 1 << 10, MaxBytes: 4 << 10})
	appendN(t, s, 1, 200)
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("only %d segments after 200 appends at a 1KiB bound", st.Segments)
	}
	if st.Bytes > (4<<10)+(1<<10) {
		t.Errorf("store holds %d bytes, retention bound is 4KiB (+1 live segment)", st.Bytes)
	}
	if st.DroppedSegments == 0 {
		t.Error("no segments dropped by retention")
	}
	recs := collect(t, s)
	if len(recs) == 0 || len(recs) == 200 {
		t.Fatalf("retained %d records, want a strict subset of 200", len(recs))
	}
	// Retention drops oldest-first: what survives is a contiguous suffix.
	first := recs[0].Seq
	for i, rec := range recs {
		if rec.Seq != first+uint64(i) {
			t.Fatalf("retained records not contiguous: rec[%d].Seq = %d, first = %d", i, rec.Seq, first)
		}
	}
	if recs[len(recs)-1].Seq != 200 {
		t.Errorf("newest retained seq = %d, want 200", recs[len(recs)-1].Seq)
	}
	s.Close()

	// Reopen: the survivors are exactly what recovery sees.
	s = mustOpen(t, dir, Options{SegmentBytes: 1 << 10, MaxBytes: 4 << 10})
	defer s.Close()
	again := collect(t, s)
	if len(again) != len(recs) || again[0].Seq != recs[0].Seq {
		t.Errorf("reopen sees %d records from %d, want %d from %d",
			len(again), again[0].Seq, len(recs), recs[0].Seq)
	}
}

// TestStoreAgeRetention seals a segment whose records are older than
// MaxAge and asserts the next rotation drops it.
func TestStoreAgeRetention(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 1 << 10, MaxAge: time.Minute})
	old := time.Now().Add(-time.Hour).UnixNano()
	for i := 1; i <= 20; i++ {
		if err := s.Append(Record{Seq: uint64(i), Time: old, Payload: json.RawMessage(`{"pad":"` + strings.Repeat("x", 80) + `"}`)}); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh records force rotations; the stale sealed segments must go.
	appendN(t, s, 21, 40)
	defer s.Close()
	for _, rec := range collect(t, s) {
		if rec.Seq <= 10 && time.Since(time.Unix(0, rec.Time)) > time.Hour/2 {
			// Only the live segment may still hold stale records.
			st := s.Stats()
			if st.Segments > 1 {
				t.Fatalf("stale record seq=%d still retained across %d segments", rec.Seq, st.Segments)
			}
		}
	}
	if s.Stats().DroppedSegments == 0 {
		t.Error("no segments dropped by age retention")
	}
}

// TestStoreTailWindow checks Tail's newest-n semantics across segments.
func TestStoreTailWindow(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 1 << 10})
	defer s.Close()
	appendN(t, s, 1, 50)
	tail, err := s.Tail(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 8 {
		t.Fatalf("Tail(8) returned %d records", len(tail))
	}
	for i, rec := range tail {
		if want := uint64(43 + i); rec.Seq != want {
			t.Errorf("tail[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
	}
	if all, _ := s.Tail(500); len(all) != 50 {
		t.Errorf("Tail(500) returned %d, want all 50", len(all))
	}
}

// TestStoreMonotonicSeq rejects replayed or reordered sequence numbers.
func TestStoreMonotonicSeq(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	appendN(t, s, 1, 3)
	if err := s.Append(Record{Seq: 3}); err == nil {
		t.Error("duplicate seq accepted")
	}
	if err := s.Append(Record{Seq: 2}); err == nil {
		t.Error("regressing seq accepted")
	}
	if err := s.Append(Record{Seq: 4}); err != nil {
		t.Errorf("next seq rejected: %v", err)
	}
}

// TestStoreSyncLag pins the SyncEvery accounting: with batched fsyncs the
// lag is visible until Sync drains it.
func TestStoreSyncLag(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{SyncEvery: 10})
	defer s.Close()
	appendN(t, s, 1, 4)
	if st := s.Stats(); st.Lag != 4 {
		t.Errorf("lag = %d after 4 unsynced appends, want 4", st.Lag)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Lag != 0 || st.Fsyncs == 0 {
		t.Errorf("after Sync: %+v, want lag 0 and fsyncs counted", st)
	}
	appendN(t, s, 5, 10)
	if st := s.Stats(); st.Lag >= 10 {
		t.Errorf("lag = %d, SyncEvery=10 must have synced at least once", st.Lag)
	}
}

func TestParseSessionNum(t *testing.T) {
	for id, want := range map[string]uint64{"s17": 17, "s1": 1, "": 0, "x9": 0, "s": 0, "s-3": 0} {
		if got := ParseSessionNum(id); got != want {
			t.Errorf("ParseSessionNum(%q) = %d, want %d", id, got, want)
		}
	}
}

// FuzzStoreRecovery appends records, closes the store, then cuts the live
// segment at a fuzzed offset and flips a fuzzed byte of what is left —
// a crash mid-write, then a bit rot. Reopening must not fail; it must
// recover exactly the records whose frames lie whole and untouched in
// front of the damage, seqs 1…k in order; it must report TailTruncated
// exactly when it changed the file; and the store must take the next
// append and read it back after another reopen.
func FuzzStoreRecovery(f *testing.F) {
	f.Add(uint8(10), uint32(1<<31), uint32(0), uint8(0)) // untouched
	f.Add(uint8(10), uint32(1<<31), uint32(5), uint8(1)) // inside the magic
	f.Add(uint8(10), uint32(40), uint32(0), uint8(0))    // cut inside the first frame
	f.Add(uint8(3), uint32(1<<31), uint32(14), uint8(0xFF))
	f.Add(uint8(1), uint32(3), uint32(2), uint8(0x10))
	f.Fuzz(func(t *testing.T, n uint8, cut, flipAt uint32, mask uint8) {
		n = n%16 + 1
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{SyncEvery: 1 << 10})
		appendN(t, s, 1, int(n))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := segmentNames(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, err %v", segs, err)
		}
		path := filepath.Join(dir, segs[0])
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// ends[i] is where record i+1's frame ends.
		var ends []int
		for off := len(Magic); off < len(whole); {
			off += frameHeaderSize + int(binary.LittleEndian.Uint32(whole[off:]))
			ends = append(ends, off)
		}
		data := bytes.Clone(whole[:int(cut%uint32(len(whole)+1))])
		damage := len(data) // the first byte recovery must not keep
		if len(data) > 0 && mask != 0 {
			at := int(flipAt % uint32(len(data)))
			data[at] ^= mask
			damage = at
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		k := 0
		for k < len(ends) && ends[k] <= damage && damage >= len(Magic) {
			k++
		}

		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopening after a cut at %d and a flip at %d: %v", len(data), damage, err)
		}
		recs := collect(t, s)
		if len(recs) != k {
			t.Fatalf("recovered %d records, want the %d in front of the damage at byte %d", len(recs), k, damage)
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) || rec.Session != fmt.Sprintf("s%d", i+1) {
				t.Fatalf("record %d is seq %d, session %q", i, rec.Seq, rec.Session)
			}
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if changed := !bytes.Equal(after, data); s.Stats().TailTruncated != changed {
			t.Fatalf("TailTruncated = %v, but the file changed: %v", s.Stats().TailTruncated, changed)
		}
		appendN(t, s, k+1, 1)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir, Options{})
		defer s.Close()
		if recs := collect(t, s); len(recs) != k+1 || recs[k].Seq != uint64(k+1) || s.Stats().TailTruncated {
			t.Fatalf("after the next append and a reopen: %d records, TailTruncated %v", len(recs), s.Stats().TailTruncated)
		}
	})
}
