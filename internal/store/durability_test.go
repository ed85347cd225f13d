package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// These tests pin the append-path durability contract the replication
// tier depends on: an append that returns an error leaves no trace —
// not in the file, not in the sequence, not on any stream — and a
// CRC-valid record that cannot be parsed stops recovery instead of
// being silently dropped. See docs/persistence.md.

// TestAppendRejectsOversizedRecord: a record scanWAL would refuse on
// restart must be refused at append time, not acknowledged and then
// thrown away (with everything after it) by the next recovery.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	huge := bytes.Repeat([]byte("x"), maxWALRecord) // JSON framing pushes it past the bound
	if _, _, err := st.AppendEvolve(huge); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append error = %v, want ErrRecordTooLarge", err)
	}
	if st.LastSeq() != 0 {
		t.Errorf("lastSeq after rejected append = %d, want 0", st.LastSeq())
	}
	// The refused record consumed nothing: the next append takes seq 1
	// and a reopen replays exactly one record.
	if seq, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err != nil || seq != 1 {
		t.Fatalf("append after rejection = %d, %v", seq, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.RecoveryStats(); got.Replayed != 1 || got.TornBytes != 0 {
		t.Errorf("reopen stats = %+v", got)
	}
}

// TestScanWALRejectsUnparseablePayload: a frame whose CRC matches but
// whose payload is not a WAL record cannot be a torn write — the CRC
// covers the whole payload. It is mid-history corruption or version
// skew, and recovery must refuse rather than truncate acked records.
func TestScanWALRejectsUnparseablePayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName(1))
	f, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodeRecord(walRecord{Seq: 1, Type: RecordEvolve, Data: []byte(`"x"`)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(good); err != nil {
		t.Fatal(err)
	}
	// A CRC-valid frame around a payload that is not JSON.
	payload := []byte("{definitely not a wal record")
	var header [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := f.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := scanWAL(path); err == nil || !strings.Contains(err.Error(), "unparseable") {
		t.Fatalf("scan error = %v, want unparseable-payload refusal", err)
	}
}

// setFsyncHook swaps the store's fsync for a fault-injection stand-in.
func setFsyncHook(st *Store, hook func() error) {
	st.mu.Lock()
	st.fsyncHook = hook
	st.mu.Unlock()
}

// TestAppendFsyncFailureRollsBack: under FsyncAlways a failed fsync
// must leave the WAL exactly as it was — same size, same sequence —
// so the record a client was told failed can never replay on restart
// or ship to a replica.
func TestAppendFsyncFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(dir, seedSchema(t), Options{Fsync: FsyncAlways, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	if seq, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err != nil || seq != 1 {
		t.Fatalf("first append = %d, %v", seq, err)
	}

	// Fail the append's fsync once; the rollback's own fsync succeeds.
	calls := 0
	setFsyncHook(st, func() error {
		calls++
		if calls == 1 {
			return errors.New("injected fsync failure")
		}
		return nil
	})
	poison := []byte("EXCLUDE Org Dpt.POISON_id AT 01/2005\n")
	if _, _, err := st.AppendEvolve(poison); err == nil || strings.Contains(err.Error(), "disabled") {
		t.Fatalf("append under fsync failure = %v, want plain fsync error", err)
	}
	if st.LastSeq() != 1 {
		t.Errorf("lastSeq after failed append = %d, want 1", st.LastSeq())
	}

	// The store stays usable and reuses the rolled-back sequence.
	if seq, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Smith_id AT 01/2005\n")); err != nil || seq != 2 {
		t.Fatalf("append after recovery = %d, %v", seq, err)
	}

	// Crash-style reopen (no Close): the failed record must not exist.
	st2, _, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.RecoveryStats(); got.Replayed != 2 || got.TornBytes != 0 {
		t.Errorf("reopen stats = %+v", got)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("POISON")) {
		t.Error("failed append left bytes in the WAL")
	}
}

// TestAppendFsyncPersistentFailureLatches: when even the rollback
// cannot be made durable, the store must refuse all further appends
// rather than limp along with an ambiguous tail.
func TestAppendFsyncPersistentFailureLatches(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(dir, seedSchema(t), Options{Fsync: FsyncAlways, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	setFsyncHook(st, func() error { return errors.New("disk on fire") })
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err == nil ||
		!strings.Contains(err.Error(), "disabled") {
		t.Fatalf("append under persistent fsync failure = %v, want store-disabled latch", err)
	}
	setFsyncHook(st, nil) // the latch, not the hook, must refuse
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Smith_id AT 01/2005\n")); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Fatalf("append on latched store = %v, want closed", err)
	}
}

// TestStreamReaderDelivers: a stream reader hands out the exact bytes
// of the committed WAL, blocks-then-wakes on a concurrent append, and
// reports idleness for the heartbeat path.
func TestStreamReaderDelivers(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendFactBatch([]FactRecord{{Coords: []string{"Dpt.Bill_id"}, Time: "2004", Values: []float64{70}}}); err != nil {
		t.Fatal(err)
	}

	sr := st.StreamFrom(1)
	defer sr.Close()
	ctx := context.Background()
	frames, last, err := sr.Next(ctx, 1<<20, time.Second)
	if err != nil || last != 2 {
		t.Fatalf("Next = last %d, %v", last, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frames, raw[len(walMagic):]) {
		t.Error("streamed frames differ from the WAL bytes")
	}

	// Caught up: idle elapses with the committed frontier reported.
	if _, last, err := sr.Next(ctx, 1<<20, 20*time.Millisecond); !errors.Is(err, ErrStreamIdle) || last != 2 {
		t.Fatalf("idle Next = last %d, %v", last, err)
	}

	// A concurrent append wakes the blocked reader.
	go func() {
		time.Sleep(50 * time.Millisecond)
		st.AppendEvolve([]byte("EXCLUDE Org Dpt.Smith_id AT 01/2005\n"))
	}()
	frames, last, err = sr.Next(ctx, 1<<20, 5*time.Second)
	if err != nil || last != 3 || len(frames) == 0 {
		t.Fatalf("Next after wake = last %d, %d bytes, %v", last, len(frames), err)
	}

	// Context cancellation unblocks a caught-up reader.
	cctx, cancel := context.WithCancel(ctx)
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	if _, _, err := sr.Next(cctx, 1<<20, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Next = %v", err)
	}
}

// TestStreamReaderRotationAndCompaction: sequences are contiguous
// across WAL rotation, a reader survives compaction deleting the file
// under its open descriptor, and a position that now lives only in a
// snapshot reports ErrCompacted.
func TestStreamReaderRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var clone = sch
	clone, ap = applyEvolve(t, clone, ap, "EXCLUDE Org Dpt.Brian_id AT 01/2004\n")
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendFactBatch([]FactRecord{{Coords: []string{"Dpt.Bill_id"}, Time: "2004", Values: []float64{70}}}); err != nil {
		t.Fatal(err)
	}

	// Reader drains the first file and keeps its descriptor.
	sr := st.StreamFrom(1)
	defer sr.Close()
	ctx := context.Background()
	if _, last, err := sr.Next(ctx, 1<<20, time.Second); err != nil || last != 2 {
		t.Fatalf("pre-rotation Next = last %d, %v", last, err)
	}

	// Snapshot rotates to a fresh WAL and compacts the old one away.
	if _, err := st.Snapshot(clone, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatalf("compaction left %s: %v", walName(1), err)
	}
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Smith_id AT 01/2005\n")); err != nil {
		t.Fatal(err)
	}

	// The open reader follows into the new file: seq 3 arrives.
	if _, last, err := sr.Next(ctx, 1<<20, time.Second); err != nil || last != 3 {
		t.Fatalf("post-rotation Next = last %d, %v", last, err)
	}

	// A fresh reader at a compacted position must re-bootstrap.
	old := st.StreamFrom(1)
	defer old.Close()
	if _, _, err := old.Next(ctx, 1<<20, time.Second); !errors.Is(err, ErrCompacted) {
		t.Fatalf("compacted Next = %v, want ErrCompacted", err)
	}
	// A fresh reader at the live position streams fine.
	live := st.StreamFrom(3)
	defer live.Close()
	if _, last, err := live.Next(ctx, 1<<20, time.Second); err != nil || last != 3 {
		t.Fatalf("live Next = last %d, %v", last, err)
	}
}

// TestHeartbeatFrameRoundTrip: heartbeats use the stream's normal
// framing so a follower parses them with the same reader.
func TestHeartbeatFrameRoundTrip(t *testing.T) {
	hb, err := HeartbeatFrame(42)
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := readFrame(bytes.NewReader(hb))
	if err != nil || rec.Seq != 42 || rec.Type != RecordHeartbeat {
		t.Fatalf("heartbeat round trip = %+v, %v", rec, err)
	}
}

// TestWaitForSeqBounded: waiting for a sequence respects its context
// instead of blocking forever.
func TestWaitForSeqBounded(t *testing.T) {
	r := NewReplica("http://unused", ReplicaOptions{Logger: quietLog()})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.WaitForSeq(ctx, 5); err == nil || !strings.Contains(err.Error(), "not yet replicated") {
		t.Fatalf("WaitForSeq = %v, want bounded failure", err)
	}
	if err := r.WaitForSeq(context.Background(), 0); err != nil {
		t.Fatalf("WaitForSeq(0) = %v", err)
	}
}
