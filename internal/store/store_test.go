package store

import (
	"bytes"
	"encoding/binary"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/schemaio"
)

// quietLog keeps recovery and compaction logs out of test output.
func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// seedSchema builds the full ICDE 2003 case study fixture.
func seedSchema(t testing.TB) *core.Schema {
	t.Helper()
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// schemaBytes renders a schema through schemaio for byte comparison.
func schemaBytes(t *testing.T, s *core.Schema) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := schemaio.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// applyEvolve mirrors the serving path: parse, clone, rebind, apply.
func applyEvolve(t *testing.T, sch *core.Schema, ap *evolution.Applier, script string) (*core.Schema, *evolution.Applier) {
	t.Helper()
	ops, err := evolution.ParseScript(strings.NewReader(script), len(sch.Measures()))
	if err != nil {
		t.Fatalf("parse %q: %v", script, err)
	}
	clone := sch.Clone()
	ap2 := ap.Rebind(clone)
	if err := ap2.Apply(ops...); err != nil {
		t.Fatalf("apply %q: %v", script, err)
	}
	return clone, ap2
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{
		{"always", FsyncAlways},
		{"Interval", FsyncInterval},
		{" off ", FsyncOff},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy must fail")
	}
	if FsyncInterval.String() != "interval" {
		t.Errorf("String = %q", FsyncInterval.String())
	}
}

func TestParseFactBatch(t *testing.T) {
	batch, err := ParseFactBatch([]byte(`[{"coords":["Dpt.Bill_id"],"time":"2004","values":[70]}]`))
	if err != nil || len(batch) != 1 || batch[0].Values[0] != 70 {
		t.Fatalf("batch = %+v, %v", batch, err)
	}
	if _, err := ParseFactBatch([]byte(`[]`)); err == nil {
		t.Error("empty batch must fail")
	}
	if _, err := ParseFactBatch([]byte(`{"not":"array"}`)); err == nil {
		t.Error("non-array must fail")
	}
}

// TestOpenFreshAppendReopen is the basic durability loop: append an
// evolution and a fact batch, reopen, and observe the recovered schema
// carrying both.
func TestOpenFreshAppendReopen(t *testing.T) {
	dir := t.TempDir()
	st, sch, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RecoveryStats(); got.Replayed != 0 || got.SnapshotSeq != 0 {
		t.Errorf("fresh stats = %+v", got)
	}
	baseModes := len(sch.Modes())

	seq, due, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n"))
	if err != nil || seq != 1 || due {
		t.Fatalf("append evolve = %d, %v, %v", seq, due, err)
	}
	seq, _, err = st.AppendFactBatch([]FactRecord{
		{Coords: []string{"Dpt.Bill_id"}, Time: "2004", Values: []float64{70}},
		{Coords: []string{"Dpt.Paul_id"}, Time: "2004", Values: []float64{30}},
	})
	if err != nil || seq != 2 {
		t.Fatalf("append facts = %d, %v", seq, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, sch2, ap2, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.RecoveryStats(); got.Replayed != 2 || got.TornBytes != 0 {
		t.Errorf("reopen stats = %+v", got)
	}
	if st2.LastSeq() != 2 {
		t.Errorf("lastSeq = %d", st2.LastSeq())
	}
	// The exclusion creates a fourth structure version; the batch adds
	// two facts.
	if got := len(sch2.Modes()); got != baseModes+1 {
		t.Errorf("modes after replay = %d, want %d", got, baseModes+1)
	}
	if got := sch2.Facts().Len(); got != 12 {
		t.Errorf("facts after replay = %d, want 12", got)
	}
	if len(ap2.Log()) == 0 {
		t.Error("replayed applier has no evolution log")
	}
	// The reopened store accepts further appends with continuous seqs.
	if seq, _, err := st2.AppendEvolve([]byte("EXCLUDE Org Dpt.Smith_id AT 01/2005\n")); err != nil || seq != 3 {
		t.Errorf("append after reopen = %d, %v", seq, err)
	}
}

// TestSnapshotRotateCompact verifies the snapshot lifecycle: rotation
// to a fresh WAL, deletion of superseded files, and recovery from the
// snapshot alone (nil seed).
func TestSnapshotRotateCompact(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	sch, ap = applyEvolve(t, sch, ap, "EXCLUDE Org Dpt.Brian_id AT 01/2004\n")
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err != nil {
		t.Fatal(err)
	}
	seq, err := st.Snapshot(sch, ap.Log(), "test")
	if err != nil || seq != 1 {
		t.Fatalf("snapshot = %d, %v", seq, err)
	}
	if st.SnapshotSeq() != 1 {
		t.Errorf("snapSeq = %d", st.SnapshotSeq())
	}

	// Exactly one snapshot and one (fresh) WAL file remain.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(snaps) != 1 || len(wals) != 1 {
		t.Fatalf("files after snapshot = %v %v", snaps, wals)
	}
	if wals[0] != filepath.Join(dir, walName(2)) {
		t.Errorf("rotated wal = %s", wals[0])
	}

	// One more record after the rotation.
	sch, ap = applyEvolve(t, sch, ap, "EXCLUDE Org Dpt.Smith_id AT 01/2005\n")
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Smith_id AT 01/2005\n")); err != nil {
		t.Fatal(err)
	}
	want := schemaBytes(t, sch)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover with no seed: the snapshot is the only base.
	st2, sch2, ap2, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.RecoveryStats(); got.SnapshotSeq != 1 || got.Replayed != 1 {
		t.Errorf("stats = %+v", got)
	}
	if got := schemaBytes(t, sch2); !bytes.Equal(got, want) {
		t.Errorf("recovered schema differs from live schema:\n%s\nvs\n%s", got, want)
	}
	if len(ap2.Log()) != len(ap.Log()) {
		t.Errorf("evolution log = %d entries, want %d", len(ap2.Log()), len(ap.Log()))
	}
}

func TestSnapshotDue(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(dir, seedSchema(t), Options{SnapshotEvery: 2, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, due, _ := st.AppendEvolve([]byte("# one\n")); due {
		t.Error("due after 1 of 2")
	}
	if _, due, _ := st.AppendEvolve([]byte("# two\n")); !due {
		t.Error("not due after 2 of 2")
	}
}

func TestOpenNoSeedNoSnapshot(t *testing.T) {
	if _, _, _, err := Open(t.TempDir(), nil, Options{Logger: quietLog()}); err == nil {
		t.Fatal("empty dir with nil seed must fail")
	}
}

func TestAppendAfterClose(t *testing.T) {
	st, _, _, err := Open(t.TempDir(), seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendEvolve([]byte("x")); err == nil {
		t.Error("append after close must fail")
	}
	if err := st.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

// TestFsyncIntervalSyncsBeforeClose: under FsyncInterval an append does
// not sync, the background flusher does, well before Close would. The
// hook sees that sync; a flusher that never syncs leaves it unseen (and
// the store dirty) however long the wait, and fails here, where a
// recovery check alone would pass because Close syncs.
func TestFsyncIntervalSyncsBeforeClose(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(dir, seedSchema(t), Options{Fsync: FsyncInterval, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan struct{}, 1)
	setFsyncHook(st, func() error {
		select {
		case synced <- struct{}{}:
		default:
		}
		return st.wal.Sync()
	})
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-synced:
	case <-time.After(50 * fsyncInterval):
		t.Fatalf("no background fsync within %v of an append", 50*fsyncInterval)
	}
	st.mu.Lock()
	dirty := st.dirty
	st.mu.Unlock()
	if dirty {
		t.Error("the store is still dirty after the background fsync")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.RecoveryStats().Replayed != 1 {
		t.Errorf("replayed = %d", st2.RecoveryStats().Replayed)
	}
}

func TestScanWALRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0000000000000001.log")
	if err := os.WriteFile(path, []byte("NOTAWAL!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scanWAL(path); err == nil {
		t.Fatal("bad magic must fail")
	}
}

func TestScanWALRejectsSeqJump(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName(1))
	f, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 3} { // gap: 2 is missing
		buf, err := encodeRecord(walRecord{Seq: seq, Type: RecordEvolve, Data: []byte(`"x"`)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if _, err := scanWAL(path); err == nil || !strings.Contains(err.Error(), "sequence jumped") {
		t.Fatalf("seq jump error = %v", err)
	}
}

// TestScanWALStopsAtCorruptRecord flips one payload byte and expects
// the scan to keep everything before it and report the rest as torn.
func TestScanWALStopsAtCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName(1))
	f, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	off := int64(len(walMagic))
	for seq := uint64(1); seq <= 3; seq++ {
		buf, err := encodeRecord(walRecord{Seq: seq, Type: RecordEvolve, Data: []byte(`"x"`)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, off)
		off += int64(len(buf))
	}
	f.Close()

	// Corrupt one payload byte of record 3.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[2]+recordHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	scan, err := scanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.records) != 2 || scan.goodSize != offsets[2] || scan.tornBytes == 0 {
		t.Errorf("scan = %d records, goodSize %d (want %d), torn %d",
			len(scan.records), scan.goodSize, offsets[2], scan.tornBytes)
	}
}

// TestOpenRejectsMidHistoryCorruption: a torn record is only tolerable
// in the newest WAL file; anywhere else the history has a hole and
// recovery must refuse rather than silently skip records.
func TestOpenRejectsMidHistoryCorruption(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, walName(1))
	f, err := createWAL(old)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := encodeRecord(walRecord{Seq: 1, Type: RecordEvolve, Data: []byte(`"EXCLUDE Org Dpt.Brian_id AT 01/2004\n"`)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage-tail"); err != nil { // torn, but not the last file
		t.Fatal(err)
	}
	f.Close()
	f2, err := createWAL(filepath.Join(dir, walName(2)))
	if err != nil {
		t.Fatal(err)
	}
	f2.Close()

	if _, _, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()}); err == nil ||
		!strings.Contains(err.Error(), "mid-history") {
		t.Fatalf("mid-history corruption error = %v", err)
	}
}

// TestOpenSkipsUnreadableSnapshot: a corrupt newest snapshot falls
// back to the older good one instead of failing recovery.
func TestOpenSkipsUnreadableSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	sch, ap = applyEvolve(t, sch, ap, "EXCLUDE Org Dpt.Brian_id AT 01/2004\n")
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	want := schemaBytes(t, sch)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A newer snapshot that is garbage.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(99)), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, sch2, _, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.RecoveryStats().SnapshotSeq != 1 {
		t.Errorf("snapshotSeq = %d, want fallback to 1", st2.RecoveryStats().SnapshotSeq)
	}
	if got := schemaBytes(t, sch2); !bytes.Equal(got, want) {
		t.Error("fallback snapshot recovered a different schema")
	}
}

// TestRecordRoundTrip checks the frame layout directly: length prefix,
// CRC, payload.
func TestRecordRoundTrip(t *testing.T) {
	buf, err := encodeRecord(walRecord{Seq: 7, Type: RecordFacts, Data: []byte(`[]`)})
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf[0:4]); int(got) != len(buf)-recordHeaderSize {
		t.Errorf("length prefix = %d, frame = %d", got, len(buf))
	}
	path := filepath.Join(t.TempDir(), walName(1))
	f, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	f.Close()
	scan, err := scanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.records) != 1 || scan.records[0].Seq != 7 || scan.records[0].Type != RecordFacts {
		t.Errorf("scan = %+v", scan.records)
	}
	if scan.tornBytes != 0 {
		t.Errorf("tornBytes = %d", scan.tornBytes)
	}
}

// TestRecoveryReplaysEmptyEvolveRecord: POST /evolve refuses a script
// without operators, but a data directory written before that refusal
// existed may hold one as a record, and it must still recover.
func TestRecoveryReplaysEmptyEvolveRecord(t *testing.T) {
	dir := t.TempDir()
	if _, err := ParseMutation(RecordEvolve, []byte("# nothing\n"), 1); err == nil {
		t.Fatal("ParseMutation accepted a script without operators")
	}
	st, _, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	for _, script := range []string{"# nothing\n", "EXCLUDE Org Dpt.Brian_id AT 01/2004\n"} {
		if _, _, err := st.AppendEvolve([]byte(script)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, sch, ap, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatalf("recovery refused a log holding an empty evolve record: %v", err)
	}
	defer st.Close()
	if st.LastSeq() != 2 || st.RecoveryStats().Replayed != 2 || len(ap.Log()) != 1 {
		t.Errorf("lastSeq %d, replayed %d, %d logged operators; want 2, 2, 1",
			st.LastSeq(), st.RecoveryStats().Replayed, len(ap.Log()))
	}
	want, _ := applyEvolve(t, seedSchema(t), evolution.NewApplier(nil), "EXCLUDE Org Dpt.Brian_id AT 01/2004\n")
	if !bytes.Equal(schemaBytes(t, sch), schemaBytes(t, want)) {
		t.Error("recovered schema differs from the one the non-empty script alone produces")
	}
}
