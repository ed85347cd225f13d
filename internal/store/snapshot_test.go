package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/temporal"
	"mvolap/internal/workload"
)

// sectionSpan locates one section of a container by byte offset:
// header at start, payload at payload, CRC at crc, next section at end.
type sectionSpan struct {
	kind                      byte
	start, payload, crc, next int
}

// sectionSpans walks a well-formed container's framing.
func sectionSpans(t testing.TB, data []byte) []sectionSpan {
	t.Helper()
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		t.Fatalf("not a container: % x", data[:min(len(data), 8)])
	}
	var out []sectionSpan
	for off := len(snapshotMagic); off < len(data); {
		n := int(binary.LittleEndian.Uint64(data[off+1:]))
		sec := sectionSpan{kind: data[off], start: off, payload: off + sectionHeaderSize}
		sec.crc = sec.payload + n
		sec.next = sec.crc + sectionCRCSize
		out = append(out, sec)
		off = sec.next
	}
	if last := out[len(out)-1]; last.kind != secEnd || last.next != len(data) {
		t.Fatalf("container does not end on its end marker: %+v of %d bytes", last, len(data))
	}
	return out
}

// containerBytes encodes a snapshot into memory.
func containerBytes(t testing.TB, sch *core.Schema, log []evolution.LogEntry, seq uint64, warm bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeSnapshot(bufio.NewWriter(&buf), sch, log, seq, warm); err != nil {
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

// warmContainer is a snapshot of the evolved case study with every mode
// warm, for the corruption tests.
func warmContainer(t testing.TB) []byte {
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
	if _, err := sch.MultiVersion().All(); err != nil {
		t.Fatal(err)
	}
	return containerBytes(t, sch, ap.Log(), 3, true)
}

// TestSnapshotTruncationUnreadable cuts a container at every section
// boundary, one byte either side of each, and at 64 random offsets: a
// short file never decodes — not even to a warehouse with fewer facts
// or fewer warm modes.
func TestSnapshotTruncationUnreadable(t *testing.T) {
	data := warmContainer(t)
	if _, _, _, _, err := decodeSnapshot(data, "whole"); err != nil {
		t.Fatalf("intact container: %v", err)
	}
	cuts := map[int]bool{0: true, len(snapshotMagic): true}
	for _, sec := range sectionSpans(t, data) {
		for _, at := range []int{sec.start, sec.payload, sec.crc, sec.next} {
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
		if _, _, _, _, err := decodeSnapshot(data[:cut], "cut"); err == nil {
			t.Errorf("container truncated to %d of %d bytes decoded", cut, len(data))
		}
	}
	if _, _, _, _, err := decodeSnapshot(append(data[:len(data):len(data)], 0), "long"); err == nil {
		t.Error("container with a trailing byte decoded")
	}
}

// TestSnapshotFlippedByteUnreadable flips single bytes across the
// magic, the meta, structure and facts sections and the end marker —
// headers, payloads and CRCs alike: each leaves the snapshot unreadable.
// Only a warm section's payload may fail softly (see
// TestCrashRecoveryWarmCorruptModeDegradesCold).
func TestSnapshotFlippedByteUnreadable(t *testing.T) {
	data := warmContainer(t)
	flip := func(at int) {
		t.Helper()
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x01
		if _, _, _, _, err := decodeSnapshot(bad, "flipped"); err == nil {
			t.Errorf("container with byte %d of %d flipped decoded", at, len(data))
		}
	}
	for at := 0; at < len(snapshotMagic); at++ {
		flip(at)
	}
	for _, sec := range sectionSpans(t, data) {
		if sec.kind == secWarm {
			continue
		}
		// Every header and CRC byte, and a stride through the payload.
		for at := sec.start; at < sec.payload; at++ {
			flip(at)
		}
		for at := sec.payload; at < sec.crc; at += 1 + (sec.crc-sec.payload)/97 {
			flip(at)
		}
		for at := sec.crc; at < sec.next; at++ {
			flip(at)
		}
	}
}

// TestSnapshotTombstonedTableRoundTrips snapshots a warehouse whose warm
// tables hold tombstones (a retraction was unfolded out of them): the
// restored tables equal the live ones, and both lineages keep folding
// the same deltas — another insert, another retraction — to the same
// bits, which are the bits of a cold rebuild.
func TestSnapshotTombstonedTableRoundTrips(t *testing.T) {
	dir := t.TempDir()
	st, sch, ap := buildWarmWarehouse(t, dir)
	modes := len(sch.CachedModeKeys())
	step := func(sch *core.Schema, ap *evolution.Applier, seq uint64, typ string, batch any) (*core.Schema, *evolution.Applier) {
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
	retract := []RetractRecord{{Coords: []string{"Dpt.Smith_id"}, Time: "2001"}}
	live, liveAp := step(sch, ap, 2, RecordRetract, retract)
	if _, _, err := st.AppendRetractBatch(retract); err != nil {
		t.Fatal(err)
	}
	if got := len(live.CachedModeKeys()); got != modes {
		t.Fatalf("retraction left %d of %d modes warm: the fixture must unfold, not evict", got, modes)
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
	if got := st2.RecoveryStats().WarmModes; len(got) != modes {
		t.Fatalf("WarmModes = %v, want %d", got, modes)
	}
	if !reflect.DeepEqual(warmExports(t, back), warmExports(t, live)) {
		t.Fatal("restored tables differ from the tombstoned live tables")
	}
	insert := []FactRecord{
		{Coords: []string{"Dpt.Smith_id"}, Time: "2001", Values: []float64{41}},
		{Coords: []string{"Dpt.Bill_id"}, Time: "2004", Values: []float64{70}},
	}
	retract = []RetractRecord{{Coords: []string{"Dpt.Brian_id"}, Time: "2002"}}
	live, liveAp = step(live, liveAp, 3, RecordFacts, insert)
	live, _ = step(live, liveAp, 4, RecordRetract, retract)
	back, backAp = step(back, backAp, 3, RecordFacts, insert)
	back, _ = step(back, backAp, 4, RecordRetract, retract)
	if back.MultiVersion().Materializations() != 0 {
		t.Errorf("restored lineage rematerialized %d modes", back.MultiVersion().Materializations())
	}
	got := warmExports(t, back)
	if len(got) != modes {
		t.Fatalf("restored lineage kept %d of %d modes warm", len(got), modes)
	}
	if !reflect.DeepEqual(got, warmExports(t, live)) {
		t.Error("restored lineage folded the same deltas to different bits than the live one")
	}
	if !reflect.DeepEqual(got, coldExports(t, back)) {
		t.Error("restored lineage differs from a cold rebuild")
	}
}

// TestSnapshotFactsSurviveVerbatim: source facts come back in insertion
// order with every bit — a NaN payload, negative zero, the Now instant,
// a coordinate whose values were replaced in place. (No case-study
// member reaches back to Origin; schemaio's TestFactsRoundTripEdges
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
// stay under it. Every mode is warm; the second round has tombstones in
// every table, which sends ExportWarmModes down its repacking branch.
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
	dir := t.TempDir()
	st, sch, ap, err := Open(dir, w.Schema, Options{SnapshotWarm: true, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if sch.Facts().Len() < 20000 {
		t.Fatalf("fixture has %d facts, want >= 20000", sch.Facts().Len())
	}
	if _, err := sch.MultiVersion().All(); err != nil {
		t.Fatal(err)
	}
	snapshot := func(sch *core.Schema, label string) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated, size := after.TotalAlloc-before.TotalAlloc, uint64(st.SnapshotBytes())
		t.Logf("%s: %d facts, %d warm modes, file %d bytes, allocated %d (%.2fx)", label,
			sch.Facts().Len(), len(sch.CachedModeKeys()), size, allocated, float64(allocated)/float64(size))
		if allocated > 4*size {
			t.Errorf("%s: Snapshot allocated %d bytes for a %d-byte file (> 4x)", label, allocated, size)
		}
	}
	snapshot(sch, "no tombstones")

	// Retract one fact in sixteen among those of members no mapping
	// names: such a fact is the only source of its cell in every mode, so
	// every mode unfolds it and is left holding a tombstone.
	sizes := map[string]int{}
	for _, exp := range sch.ExportWarmModes() {
		sizes[exp.ModeKey] = exp.NumFacts
	}
	mapped := map[core.MVID]bool{}
	for _, m := range sch.Mappings() {
		mapped[m.From], mapped[m.To] = true, true
	}
	clone := sch.Clone()
	var retracted []*core.Fact
	for i, f := range sch.Facts().Facts() {
		if i%16 == 0 && !mapped[f.Coords[0]] {
			old, err := clone.RetractFact(f.Coords, f.Time)
			if err != nil {
				t.Fatal(err)
			}
			retracted = append(retracted, old)
		}
	}
	res := clone.WarmFrom(context.Background(), sch, evolution.TouchSet{}.WithRetraction(retracted))
	if len(res.Evicted) != 0 || len(clone.CachedModeKeys()) != len(sizes) {
		t.Fatalf("retraction evicted %v; the fixture must unfold in place", res.Evicted)
	}
	for _, exp := range clone.ExportWarmModes() {
		if exp.NumFacts >= sizes[exp.ModeKey] {
			t.Fatalf("mode %s holds no tombstone after the retraction", exp.ModeKey)
		}
	}
	snapshot(clone, "tombstones in every table")
}

// FuzzSnapshotContainer feeds arbitrary bytes to the snapshot reader:
// it may refuse them, never panic, and — sections being subslices of
// the input, every count inside them checked against the bytes left —
// never allocate out of proportion to the input. Whatever it accepts
// must survive the warm import and re-encode to a container that reads
// back as the same warehouse.
func FuzzSnapshotContainer(f *testing.F) {
	warm := warmContainer(f)
	f.Add(warm)
	sch, log, seq, _, err := decodeSnapshot(warm, "seed")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(containerBytes(f, sch, log, seq, false))
	f.Add(warm[:len(warm)/2])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("{garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sch, ap, seq, _, err := loadSnapshot(context.Background(), data, "fuzz", quietLog())
		if err != nil {
			return
		}
		again := containerBytes(t, sch, ap.Log(), seq, false)
		sch2, log2, seq2, _, err := decodeSnapshot(again, "again")
		if err != nil {
			t.Fatalf("re-encoded container failed to decode: %v", err)
		}
		if !bytes.Equal(containerBytes(t, sch2, log2, seq2, false), again) {
			t.Fatal("container round trip is not a fixed point")
		}
	})
}
