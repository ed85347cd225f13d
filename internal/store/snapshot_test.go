package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/temporal"
	"mvolap/internal/workload"
)

// sectionSpan locates one section of a container by byte offset: kind
// at start, payload at payload, length and CRC at trailer, next
// section at next.
type sectionSpan struct {
	kind                          byte
	start, payload, trailer, next int
}

// sectionSpans walks a well-formed container's framing from its end
// marker back to its magic, and returns the sections in file order.
func sectionSpans(t testing.TB, data []byte) []sectionSpan {
	t.Helper()
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		t.Fatalf("not a container: % x", data[:min(len(data), 8)])
	}
	var out []sectionSpan
	for next := len(data); next > len(snapshotMagic); {
		trailer := next - sectionTrailerSize
		start := trailer - int(binary.LittleEndian.Uint64(data[trailer:])) - 1
		if start < len(snapshotMagic) {
			t.Fatalf("section ending at %d starts at %d, before the magic ends", next, start)
		}
		out = append([]sectionSpan{{kind: data[start], start: start, payload: start + 1, trailer: trailer, next: next}}, out...)
		next = start
	}
	if len(out) == 0 || out[len(out)-1].kind != secEnd || out[0].start != len(snapshotMagic) {
		t.Fatalf("container does not frame from its magic to its end marker: %+v of %d bytes", out, len(data))
	}
	return out
}

// appendSection appends one section to out, framed as encodeSnapshot
// frames it: kind, payload, length, CRC.
func appendSection(out []byte, kind byte, payload []byte) []byte {
	start := len(out)
	out = append(append(out, kind), payload...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
}

// containerBytes encodes a snapshot into memory.
func containerBytes(t testing.TB, sch *core.Schema, log []evolution.LogEntry, seq uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeSnapshot(bufio.NewWriter(&buf), sch, log, seq); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// soleSnapshot returns the one snapshot file in dir and its bytes.
func soleSnapshot(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if len(snaps) != 1 || !strings.HasSuffix(snaps[0], snapshotExt) {
		t.Fatalf("snapshot files = %v", snaps)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	return snaps[0], data
}

// withKind4Section rewrites a container the way an earlier build wrote
// it from a warm cache: an intact kind-4 section between the facts and
// the end marker, and the end marker's count raised to match.
func withKind4Section(t testing.TB, data []byte) []byte {
	t.Helper()
	secs := sectionSpans(t, data)
	end := secs[len(secs)-1]
	out := appendSection(append([]byte(nil), data[:end.start]...), 4, []byte("MVMT02 tcm"))
	return appendSection(out, secEnd, binary.LittleEndian.AppendUint32(nil, uint32(len(secs))))
}

// evolvedSchema is the case study after one exclusion (five temporal
// modes), every mode built, with its applier.
func evolvedSchema(t testing.TB) (*core.Schema, *evolution.Applier) {
	t.Helper()
	sch := seedSchema(t)
	ap := evolution.NewApplier(sch)
	ops, err := evolution.ParseScript(strings.NewReader("EXCLUDE Org Dpt.Brian_id AT 01/2004\n"), len(sch.Measures()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	return sch, ap
}

// evolvedContainer is a snapshot of the evolved schema, for the
// corruption tests.
func evolvedContainer(t testing.TB) []byte {
	t.Helper()
	sch, ap := evolvedSchema(t)
	return containerBytes(t, sch, ap.Log(), 3)
}

// TestSnapshotLoadsIndentedStructure: the structure section is written
// compact, and a container whose structure section is indented, as
// every snapshot written before it was, loads to the same warehouse:
// the same answers in every mode, and a container re-encoded from it
// identical to the compact one byte for byte.
func TestSnapshotLoadsIndentedStructure(t *testing.T) {
	sch, ap := evolvedSchema(t)
	data := containerBytes(t, sch, ap.Log(), 3)
	indented := []byte(snapshotMagic)
	for _, sec := range sectionSpans(t, data) {
		payload := data[sec.payload:sec.trailer]
		if sec.kind == secStructure {
			if n := bytes.Count(payload, []byte("\n")); n != 1 || !json.Valid(payload) {
				t.Fatalf("structure section holds %d newlines, want a compact document and its trailing newline", n)
			}
			var buf bytes.Buffer
			if err := json.Indent(&buf, payload, "", "  "); err != nil {
				t.Fatal(err)
			}
			payload = buf.Bytes()
		}
		indented = appendSection(indented, sec.kind, payload)
	}
	if len(indented) <= len(data) {
		t.Fatalf("indented container has %d bytes, the compact one %d", len(indented), len(data))
	}
	back, backAp, seq, err := loadSnapshot(indented, "indented")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Errorf("indented container loads at seq %d, want 3", seq)
	}
	if !reflect.DeepEqual(modeAnswers(t, back), modeAnswers(t, sch)) {
		t.Error("the indented container answers differently from the warehouse it froze")
	}
	if !bytes.Equal(containerBytes(t, back, backAp.Log(), seq), data) {
		t.Error("the warehouse loaded from the indented container re-encodes to other bytes")
	}
}

// TestSnapshotRefusesKind4Section: a container holding the kind-4
// section an earlier build wrote its cached modes under is refused
// like any misplaced kind, even with every CRC intact. No older facts
// section is readable either, so skipping it could admit no file.
func TestSnapshotRefusesKind4Section(t *testing.T) {
	data := evolvedContainer(t)
	if _, _, _, err := loadSnapshot(data, "plain"); err != nil {
		t.Fatalf("intact container: %v", err)
	}
	_, _, _, err := loadSnapshot(withKind4Section(t, data), "kind4")
	if err == nil || !strings.Contains(err.Error(), "kind 4") {
		t.Errorf("container with a kind-4 section: %v, want a refusal naming kind 4", err)
	}
}

// TestSnapshotTruncationUnreadable cuts a container at every section
// boundary, one byte either side of each, and at 64 random offsets: a
// short file never decodes — not even to a warehouse with fewer facts.
func TestSnapshotTruncationUnreadable(t *testing.T) {
	data := evolvedContainer(t)
	if _, _, _, err := loadSnapshot(data, "whole"); err != nil {
		t.Fatalf("intact container: %v", err)
	}
	cuts := map[int]bool{0: true, len(snapshotMagic): true}
	for _, sec := range sectionSpans(t, data) {
		for _, at := range []int{sec.start, sec.payload, sec.trailer, sec.trailer + 8, sec.next} {
			for d := -1; d <= 1; d++ {
				cuts[at+d] = true
			}
		}
	}
	rnd := rand.New(rand.NewSource(19))
	for i := 0; i < 64; i++ {
		cuts[rnd.Intn(len(data))] = true
	}
	for cut := range cuts {
		if cut < 0 || cut >= len(data) {
			continue
		}
		if _, _, _, err := loadSnapshot(data[:cut], "cut"); err == nil {
			t.Errorf("container truncated to %d of %d bytes decoded", cut, len(data))
		}
	}
	if _, _, _, err := loadSnapshot(append(data[:len(data):len(data)], 0), "long"); err == nil {
		t.Error("container with a trailing byte decoded")
	}
}

// TestSnapshotFlippedByteUnreadable flips single bytes across the
// magic, the meta, structure and facts sections and the end marker —
// kinds, payloads, lengths and CRCs alike: each leaves the snapshot
// unreadable.
func TestSnapshotFlippedByteUnreadable(t *testing.T) {
	data := evolvedContainer(t)
	flip := func(at int) {
		t.Helper()
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x01
		if _, _, _, err := loadSnapshot(bad, "flipped"); err == nil {
			t.Errorf("container with byte %d of %d flipped decoded", at, len(data))
		}
	}
	for at := 0; at < len(snapshotMagic); at++ {
		flip(at)
	}
	for _, sec := range sectionSpans(t, data) {
		// The kind, every length and CRC byte, and a stride through
		// the payload.
		flip(sec.start)
		for at := sec.payload; at < sec.trailer; at += 1 + (sec.trailer-sec.payload)/97 {
			flip(at)
		}
		for at := sec.trailer; at < sec.next; at++ {
			flip(at)
		}
	}
}

// TestSnapshotTombstonedTableRoundTrips snapshots a warehouse whose fact
// table holds a tombstone (a retraction): the recovered lineage answers
// like the live one, and both keep taking the same deltas — another
// insert, another retraction — to the same answers, which are a cold
// rebuild's.
func TestSnapshotTombstonedTableRoundTrips(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap := buildWarmWarehouse(t, dir)
	retract := []RetractRecord{{Coords: []string{"Dpt.Smith_id"}, Time: "2001"}}
	live, liveAp := applyBatch(t, sch, ap, 2, RecordRetract, retract)
	if _, _, err := st.AppendRetractBatch(retract); err != nil {
		t.Fatal(err)
	}
	if n, was := live.Facts().Len(), sch.Facts().Len(); n != was-1 {
		t.Fatalf("fact table holds %d facts, was %d: the fixture must tombstone one", n, was)
	}
	if _, err := st.Snapshot(live, liveAp.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	// Store abandoned: simulated SIGKILL right after the snapshot.

	st2, back, backAp, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !reflect.DeepEqual(modeAnswers(t, back), modeAnswers(t, live)) {
		t.Fatal("recovered answers differ from the tombstoned live tables'")
	}
	insert := []FactRecord{
		{Coords: []string{"Dpt.Smith_id"}, Time: "2001", Values: []float64{41}},
		{Coords: []string{"Dpt.Bill_id"}, Time: "2004", Values: []float64{70}},
	}
	retract = []RetractRecord{{Coords: []string{"Dpt.Brian_id"}, Time: "2002"}}
	live, liveAp = applyBatch(t, live, liveAp, 3, RecordFacts, insert)
	live, _ = applyBatch(t, live, liveAp, 4, RecordRetract, retract)
	back, backAp = applyBatch(t, back, backAp, 3, RecordFacts, insert)
	back, _ = applyBatch(t, back, backAp, 4, RecordRetract, retract)
	got := modeAnswers(t, back)
	if !reflect.DeepEqual(got, modeAnswers(t, live)) {
		t.Error("recovered lineage folded the same deltas to different answers than the live one")
	}
	if !reflect.DeepEqual(got, modeAnswers(t, back.Clone())) {
		t.Error("recovered lineage differs from a cold rebuild")
	}
}

// TestSnapshotFactsSurviveVerbatim: source facts come back in insertion
// order with every bit — a NaN payload, negative zero, the Now instant,
// a coordinate whose values were replaced in place. (No case-study
// member reaches back to Origin; core's TestFactsRoundTripEdges
// covers it.)
func TestSnapshotFactsSurviveVerbatim(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	sch = sch.Clone()
	first := sch.Facts().Facts()[0]
	for _, f := range []struct {
		coords core.Coords
		at     temporal.Instant
		v      float64
	}{
		{core.Coords{"Dpt.Bill_id"}, temporal.Now, math.Float64frombits(0x7ff8_0000_dead_beef)},
		{core.Coords{"Dpt.Smith_id"}, temporal.YM(2001, 7), math.Copysign(0, -1)},
		{first.Coords, first.Time, -1}, // replaces the very first tuple in place
	} {
		if err := sch.InsertFact(f.coords, f.at, f.v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	_, back, _, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	want, got := sch.Facts().Facts(), back.Facts().Facts()
	if len(got) != len(want) || got[0].Values[0] != -1 {
		t.Fatalf("recovered %d facts (first = %v), want %d (first = -1)", len(got), got[0].Values, len(want))
	}
	for i := range want {
		if !got[i].Coords.Equal(want[i].Coords) || got[i].Time != want[i].Time ||
			math.Float64bits(got[i].Values[0]) != math.Float64bits(want[i].Values[0]) {
			t.Errorf("fact %d = %v@%d %x, want %v@%d %x", i, got[i].Coords, got[i].Time, math.Float64bits(got[i].Values[0]),
				want[i].Coords, want[i].Time, math.Float64bits(want[i].Values[0]))
		}
	}
}

// TestOpenIndexNoLargerThanWritten: a snapshot load builds the fact
// table's key index once, exactly sized, from the columns it decoded.
// After Open the index is no larger than the one of the table the
// snapshot was written from — a freshly generated warehouse, whose
// index is one growing table, and the same warehouse after a lineage
// of writes that retracted and re-inserted 1 024 facts, enough for its
// index to seal layers — and every fact is found through it.
func TestOpenIndexNoLargerThanWritten(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 3, Divisions: 4, Departments: 100, Years: 4, EvolutionsPerYear: 10, FactsPerYear: 12, Measures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	lineage := w.Schema.Clone()
	facts := lineage.Facts().Facts()
	for b := 0; b < 16; b++ {
		lineage = lineage.Clone()
		for _, f := range facts[b*64 : (b+1)*64] {
			if _, err := lineage.RetractFact(f.Coords, f.Time); err != nil {
				t.Fatal(err)
			}
			if err := lineage.InsertFact(f.Coords, f.Time, f.Values[0]+1, f.Values[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		sch  *core.Schema
	}{{"generated", w.Schema}, {"after a lineage of writes", lineage}} {
		dir := t.TempDir()
		st, _, ap, err := Open(dir, w.Schema, Options{Logger: quietLog()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Snapshot(c.sch, ap.Log(), "test"); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, back, _, err := Open(dir, nil, Options{Logger: quietLog()})
		if err != nil {
			t.Fatal(err)
		}
		_, written, _ := c.sch.Facts().Bytes()
		_, loaded, _ := back.Facts().Bytes()
		t.Logf("%s, %d facts: index %d B written from, %d B loaded", c.name, back.Facts().Len(), written, loaded)
		if loaded > written {
			t.Errorf("%s: the loaded index takes %d B, the one written from %d B", c.name, loaded, written)
		}
		if back.Facts().Len() != c.sch.Facts().Len() {
			t.Fatalf("%s: loaded %d facts, want %d", c.name, back.Facts().Len(), c.sch.Facts().Len())
		}
		c.sch.Facts().All(func(f *core.Fact) bool {
			got, ok := back.Facts().Lookup(f.Coords, f.Time)
			if !ok || !reflect.DeepEqual(got, f.Values) {
				t.Errorf("%s: fact %v at %s loaded as %v, %v; want %v", c.name, f.Coords, f.Time, got, ok, f.Values)
				return false
			}
			return true
		})
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRefusesUnreadableSoleSnapshot: right after a snapshot the WAL
// tail is empty, so replay has no record to notice a gap by. With the
// only snapshot unreadable, Open used to come up on the seed — every
// acknowledged write gone, lastSeq 0, no error. The first WAL file's
// name says what is missing.
func TestOpenRefusesUnreadableSoleSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	retract := []RetractRecord{{Coords: []string{"Dpt.Smith_id"}, Time: "2001"}}
	sch = sch.Clone()
	if _, err := ApplyRetract(sch, retract[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendRetractBatch(retract); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path, _ := soleSnapshot(t, dir)
	if err := os.WriteFile(path, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, got, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err == nil {
		t.Fatalf("Open booted the seed over a lost snapshot: %d facts, acknowledged state had %d",
			got.Facts().Len(), sch.Facts().Len())
	}
	for _, want := range []string{"missing WAL records 1..1", filepath.Base(path)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
}

// TestOpenRefusesMVFC03Snapshot: a data directory whose snapshot holds
// its facts in the MVFC03 codec, the one before this build's (values
// all Float64bits, no integers flag), does not recover: with the WAL
// compacted up to the snapshot, Open refuses to start (the seed would
// drop the retraction the snapshot covers), naming the file, and the
// refusal wraps core.ErrFactsVersion.
func TestOpenRefusesMVFC03Snapshot(t *testing.T) { requireOpenRefusesFacts(t, "MVFC03") }

// TestOpenRefusesMVFC02Snapshot: the same for the MVFC02 codec, whose
// instants are raw int64s.
func TestOpenRefusesMVFC02Snapshot(t *testing.T) { requireOpenRefusesFacts(t, "MVFC02") }

// requireOpenRefusesFacts checks that Open refuses a data directory
// whose snapshot's facts section carries an earlier codec's magic. The
// facts section is this build's with that magic, its CRC recomputed, so
// the codec's magic is all that refuses it.
func requireOpenRefusesFacts(t *testing.T, magic string) {
	t.Helper()
	path, err := openRewrittenSnapshot(t, func(data []byte) []byte {
		out := []byte(snapshotMagic)
		for _, sec := range sectionSpans(t, data) {
			payload := data[sec.payload:sec.trailer]
			if sec.kind == secFacts {
				if !bytes.HasPrefix(payload, []byte("MVFC04")) {
					t.Fatalf("facts section starts % x", payload[:6])
				}
				payload = append([]byte(magic), payload[6:]...)
			}
			out = appendSection(out, sec.kind, payload)
		}
		return out
	})
	if !errors.Is(err, core.ErrFactsVersion) || !strings.Contains(err.Error(), filepath.Base(path)) || !strings.Contains(err.Error(), magic) {
		t.Errorf("Open = %v, want a refusal naming %s and %s, wrapping core.ErrFactsVersion", err, filepath.Base(path), magic)
	}
}

// TestOpenRefusesMVOSNP01Snapshot: a data directory whose only snapshot
// is an MVOSNP01 container — the framing before this build's, each
// section's length before its payload — does not recover: with the WAL
// compacted up to the snapshot, Open refuses to start, naming the file
// and the old magic. The sections are this build's, reframed, so the
// container's version is all that refuses it.
func TestOpenRefusesMVOSNP01Snapshot(t *testing.T) {
	path, err := openRewrittenSnapshot(t, func(data []byte) []byte {
		out := []byte("MVOSNP01")
		for _, sec := range sectionSpans(t, data) {
			start := len(out)
			out = binary.LittleEndian.AppendUint64(append(out, sec.kind), uint64(sec.trailer-sec.payload))
			out = append(out, data[sec.payload:sec.trailer]...)
			out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
		}
		return out
	})
	if err == nil || !strings.Contains(err.Error(), filepath.Base(path)) || !strings.Contains(err.Error(), "MVOSNP01") {
		t.Errorf("Open = %v, want a refusal naming %s and MVOSNP01", err, filepath.Base(path))
	}
}

// openRewrittenSnapshot snapshots a warehouse one retraction past the
// seed, so the WAL is compacted up to a snapshot the seed cannot stand
// in for, rewrites the sole snapshot file through rewrite, and returns
// its path and what Open on the directory then returns.
func openRewrittenSnapshot(t *testing.T, rewrite func([]byte) []byte) (string, error) {
	t.Helper()
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	retract := []RetractRecord{{Coords: []string{"Dpt.Smith_id"}, Time: "2001"}}
	sch = sch.Clone()
	if _, err := ApplyRetract(sch, retract[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendRetractBatch(retract); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path, data := soleSnapshot(t, dir)
	if err := os.WriteFile(path, rewrite(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(dir, seedSchema(t), Options{Logger: quietLog()})
	return path, err
}

// TestOpenRefusesOldFormatSnapshot: a data directory left by a build
// that wrote JSON snapshot envelopes holds state this build cannot
// read. Open says so and names the file, with the rotated WAL beside
// it or without.
func TestOpenRefusesOldFormatSnapshot(t *testing.T) {
	for _, withWAL := range []bool{true, false} {
		dir := t.TempDir()
		old := "snapshot-0000000000000007.json"
		if err := os.WriteFile(filepath.Join(dir, old), []byte(`{"format":2,"walSeq":7,"schema":{}}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if withWAL {
			f, err := createWAL(filepath.Join(dir, walName(8)))
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		for _, seed := range []*core.Schema{seedSchema(t), nil} {
			_, _, _, err := Open(dir, seed, Options{Logger: quietLog()})
			if err == nil || !strings.Contains(err.Error(), old) {
				t.Errorf("withWAL=%v seed=%v: Open = %v, want a refusal naming %s", withWAL, seed != nil, err, old)
			}
		}
	}
}

// TestSnapshotFailureLeavesNoTemp makes the final rename fail (a
// directory squats on the snapshot's name; permissions would not stop
// root): the temp file is removed, the WAL still holds every record,
// the failed automatic snapshot is not retried on every append but at
// the next due point, and succeeds once the squatter is gone.
func TestSnapshotFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{SnapshotEvery: 2, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendOne := func() bool {
		t.Helper()
		_, due, err := st.AppendEvolve([]byte("# no-op\n"))
		if err != nil {
			t.Fatal(err)
		}
		return due
	}
	appendOne()
	if !appendOne() {
		t.Fatal("not due after 2 of 2")
	}
	squatter := filepath.Join(dir, snapshotName(2))
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(sch, ap.Log(), "auto"); err == nil {
		t.Fatal("snapshot over a squatting directory succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("failed snapshot left %v behind", tmps)
	}
	if st.SnapshotSeq() != 0 || st.LastSeq() != 2 {
		t.Errorf("after the failure snapSeq = %d, lastSeq = %d", st.SnapshotSeq(), st.LastSeq())
	}
	if scan, err := scanWAL(currentWAL(t, dir)); err != nil || len(scan.records) != 2 {
		t.Errorf("WAL after the failed snapshot: %d records, %v", len(scan.records), err)
	}
	if appendOne() {
		t.Error("failed snapshot due again one record later")
	}
	if !appendOne() {
		t.Error("failed snapshot not due again SnapshotEvery records later")
	}
	if err := os.Remove(squatter); err != nil {
		t.Fatal(err)
	}
	if seq, err := st.Snapshot(sch, ap.Log(), "auto"); err != nil || seq != 4 {
		t.Fatalf("retry = %d, %v", seq, err)
	}
	if appendOne() {
		t.Error("due one record after a successful snapshot")
	}
}

// TestSnapshotRefusedStructureLeavesNoFile: a schema whose structure
// schemaio cannot write (a mapping through a Go function) fails the
// snapshot with schemaio's error, found while the structure section
// streams: no snapshot file and no temp file is left, and the next
// snapshot, of a schema that serializes, is taken.
func TestSnapshotRefusedStructureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	custom := sch.Clone()
	if err := custom.AddMapping(core.MappingRelationship{
		From:     casestudy.Jones,
		To:       casestudy.Bill,
		Forward:  []core.MeasureMapping{{Fn: core.Func{F: func(x float64) float64 { return x }}, CF: core.ExactMapping}},
		Backward: core.UniformMapping(1, core.Identity, core.ExactMapping),
	}); err != nil {
		t.Fatal(err)
	}
	_, err = st.Snapshot(custom, ap.Log(), "test")
	if err == nil || !strings.Contains(err.Error(), "not serializable") {
		t.Fatalf("snapshot of a custom mapper = %v, want schemaio's refusal", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "snapshot-*")); len(left) != 0 {
		t.Errorf("refused snapshot left %v behind", left)
	}
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatalf("snapshot after the refusal: %v", err)
	}
	soleSnapshot(t, dir)
}

// TestOpenSweepsStaleSnapshotTemp: a crash mid-snapshot leaves the temp
// file; the next Open removes it.
func TestOpenSweepsStaleSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, snapshotName(5)+".tmp")
	if err := os.WriteFile(stale, []byte(snapshotMagic+"half a snapsh"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, _, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived Open: %v", err)
	}
}

// TestSnapshotStreamsNotBuffers bounds what Store.Snapshot allocates by
// the size of the file it writes: a writer that rendered the file in
// memory (let alone several times over, as the JSON envelope did) cannot
// stay under it. Every mode is built first, and none of it is written.
// With facts in MVFC04 and the structure section streamed once, a 4 KB
// chunk at a time, into a section whose length follows it, the file is
// 190 KB and the ratio reads about 2.0× in plain runs and 2.1× under
// the race detector, of which 1.38× is the writer's 256 KB buffer.
// While a section's length preceded it, the structure was streamed
// twice, counted and then written, and the ratio read 2.27× plain and
// 2.33–2.50× under race. Rendering the structure whole through
// encoding/json read 3.37× plain and 3.39–3.45× under race on the same
// file; with MVFC03 values (a 460 KB file) it read 1.34–1.73× plain
// and 1.60–2.32× under race, and an indented structure section 2.64×
// (3.26× under race).
func TestSnapshotStreamsNotBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-fact warehouse")
	}
	w, err := workload.Generate(workload.Config{
		Seed: 7, Divisions: 4, Departments: 300, Years: 6, EvolutionsPerYear: 4, FactsPerYear: 12, Measures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, sch, ap, err := Open(t.TempDir(), w.Schema, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if sch.Facts().Len() < 20000 {
		t.Fatalf("fixture has %d facts, want >= 20000", sch.Facts().Len())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated, size := after.TotalAlloc-before.TotalAlloc, uint64(st.SnapshotBytes())
	t.Logf("%d facts, %d modes built, file %d bytes, allocated %d (%.2fx)",
		sch.Facts().Len(), len(sch.Modes()), size, allocated, float64(allocated)/float64(size))
	if float64(allocated) > 2.25*float64(size) {
		t.Errorf("Snapshot allocated %d bytes for a %d-byte file (> 2.25x)", allocated, size)
	}
}

// FuzzSnapshotContainer feeds arbitrary bytes to the snapshot reader:
// it may refuse them, never panic, and — sections being subslices of
// the input, every count inside them checked against the bytes left —
// never allocate out of proportion to the input. Whatever it accepts
// must re-encode to a container that reads back as the same warehouse.
func FuzzSnapshotContainer(f *testing.F) {
	parent := evolvedContainer(f)
	f.Add(parent)
	sch, ap, seq, err := loadSnapshot(parent, "seed")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(containerBytes(f, sch, ap.Log(), seq))
	f.Add(parent[:len(parent)/2])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("{garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sch, ap, seq, err := loadSnapshot(data, "fuzz")
		if err != nil {
			return
		}
		again := containerBytes(t, sch, ap.Log(), seq)
		sch2, ap2, seq2, err := loadSnapshot(again, "again")
		if err != nil {
			t.Fatalf("re-encoded container failed to decode: %v", err)
		}
		if !bytes.Equal(containerBytes(t, sch2, ap2.Log(), seq2), again) {
			t.Fatal("container round trip is not a fixed point")
		}
	})
}

// applyBatch mirrors one logged batch onto a lineage the way the
// serving path commits it, and returns the next generation.
func applyBatch(t *testing.T, sch *core.Schema, ap *evolution.Applier, seq uint64, typ string, batch any) (*core.Schema, *evolution.Applier) {
	t.Helper()
	data, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	sch, ap, _, err = applyRecord(sch, ap, walRecord{Seq: seq, Type: typ, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	return sch, ap
}

// modeAnswers answers one query per temporal mode — tcm and every
// structure version — by department and year, rendered with every
// value's bits, for byte comparison across lineages. It builds every
// mode it has not built yet.
func modeAnswers(t *testing.T, sch *core.Schema) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, m := range sch.Modes() {
		res, err := sch.Execute(core.Query{
			GroupBy: []core.GroupBy{{Dim: casestudy.OrgDim, Level: "Department"}},
			Grain:   core.GrainYear,
			Mode:    m,
		})
		if err != nil {
			t.Fatalf("mode %s: %v", m, err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "dropped %d\n", res.Dropped)
		for _, r := range res.Rows() {
			fmt.Fprintf(&b, "%s %v n=%d", r.TimeKey, r.GroupIDs, r.N)
			for i, v := range r.Values {
				fmt.Fprintf(&b, " %016x/%d", math.Float64bits(v), r.CFs[i])
			}
			b.WriteByte('\n')
		}
		out[m.String()] = b.String()
	}
	return out
}

// buildWarmWarehouse opens dir, evolves once (five temporal modes),
// builds every mode and snapshots while all of them are warm. The store
// is returned unclosed so callers can choose where the simulated
// SIGKILL lands.
func buildWarmWarehouse(t *testing.T, dir string) (*Store, *core.Schema, *evolution.Applier) {
	t.Helper()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	sch, ap = applyEvolve(t, sch, ap, "EXCLUDE Org Dpt.Brian_id AT 01/2004\n")
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err != nil {
		t.Fatal(err)
	}
	if got := len(sch.Modes()); got < 4 {
		t.Fatalf("fixture has %d modes, want >= 4", got)
	}
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	return st, sch, ap
}

// recoverCold reopens dir after a simulated SIGKILL and checks what
// every restart now owes: no mode restored and none built — each mode
// presents the recovered fact store — answering byte for byte like
// want.
func recoverCold(t *testing.T, dir string, want map[string]string) (*Store, *core.Schema) {
	t.Helper()
	st, sch, _, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if got := st.RecoveryStats().WarmModes; len(got) != 0 {
		t.Errorf("recovery restored modes %v, want none", got)
	}
	if !reflect.DeepEqual(modeAnswers(t, sch), want) {
		t.Error("recovered answers differ from the live warm lineage's")
	}
	return st, sch
}

// TestCrashRecoveryWarmSnapshotNoTail is the SIGKILL-between-snapshot-
// and-WAL-append case, the snapshot taken while every mode was warm:
// the snapshot is durable, no record follows, the store is never
// closed. Recovery restores no mode, and the modes it builds cold answer
// exactly like the live warm tables.
func TestCrashRecoveryWarmSnapshotNoTail(t *testing.T) {
	dir := t.TempDir()
	_, sch, _ := buildWarmWarehouse(t, dir) // store abandoned: simulated SIGKILL
	st, _ := recoverCold(t, dir, modeAnswers(t, sch))
	if st.LastSeq() != 1 || st.RecoveryStats().Replayed != 0 {
		t.Errorf("lastSeq = %d, replayed = %d; want 1, 0", st.LastSeq(), st.RecoveryStats().Replayed)
	}
}

// TestCrashRecoveryWarmSnapshotThenWALTail kills the process after a
// snapshot of a warm warehouse and two more fact batches: replay folds
// the tail into a cold base, and the recovered answers match the live
// lineage, whose warm tables folded the same batches, bit for bit.
func TestCrashRecoveryWarmSnapshotThenWALTail(t *testing.T) {
	dir := t.TempDir()
	st, live, ap := buildWarmWarehouse(t, dir)
	for i, batch := range [][]FactRecord{
		{
			{Coords: []string{"Dpt.Bill_id"}, Time: "2004", Values: []float64{70}},
			{Coords: []string{"Dpt.Paul_id"}, Time: "2004", Values: []float64{30}},
		},
		{
			{Coords: []string{"Dpt.Smith_id"}, Time: "2005", Values: []float64{11}},
		},
	} {
		if _, _, err := st.AppendFactBatch(batch); err != nil {
			t.Fatal(err)
		}
		live, ap = applyBatch(t, live, ap, uint64(2+i), RecordFacts, batch)
	}
	// Store abandoned without Close: simulated SIGKILL with a WAL tail.

	st2, back := recoverCold(t, dir, modeAnswers(t, live))
	if st2.RecoveryStats().Replayed != 2 || st2.LastSeq() != 3 {
		t.Fatalf("replayed = %d, lastSeq = %d; want 2, 3", st2.RecoveryStats().Replayed, st2.LastSeq())
	}
	if !reflect.DeepEqual(modeAnswers(t, back), modeAnswers(t, back.Clone())) {
		t.Error("recovered answers differ from a cold rebuild")
	}
}

// TestWarmSnapshotLeavesComposedModesOut: a store asked for warm
// snapshots (SnapshotWarm, which is ignored) with tcm, every structure
// version and a composed version built writes meta, structure, facts
// and end — no mode, composed or not — and recovery loads it.
func TestWarmSnapshotLeavesComposedModesOut(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{SnapshotWarm: true, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := sch.ComposeVersion("X1", temporal.Since(temporal.Year(2003)), map[core.DimID]string{casestudy.OrgDim: "V1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.Execute(core.Query{Mode: core.InVersion(composed)}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, data := soleSnapshot(t, dir)
	var kinds []byte
	for _, sec := range sectionSpans(t, data) {
		kinds = append(kinds, sec.kind)
	}
	if want := []byte{secMeta, secStructure, secFacts, secEnd}; !bytes.Equal(kinds, want) {
		t.Fatalf("snapshot sections are of kinds %v, want %v", kinds, want)
	}
	st2, _, _, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
}

// TestSnapshotEnvelopeDeterministic snapshots the same state twice and
// compares the containers byte for byte. With every mode warm, each
// holds exactly meta, structure, facts and end.
func TestSnapshotEnvelopeDeterministic(t *testing.T) {
	sch, ap := evolvedSchema(t)
	a, b := containerBytes(t, sch, ap.Log(), 7), containerBytes(t, sch, ap.Log(), 7)
	if !bytes.Equal(a, b) {
		t.Fatal("two snapshots of the same state differ byte for byte")
	}
	var kinds []byte
	for _, sec := range sectionSpans(t, a) {
		kinds = append(kinds, sec.kind)
	}
	if want := []byte{secMeta, secStructure, secFacts, secEnd}; !bytes.Equal(kinds, want) {
		t.Errorf("container sections are of kinds %v, want %v", kinds, want)
	}
}
