package store

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/schemaio"
	"mvolap/internal/temporal"
)

// warmExports materializes nothing: it encodes every mode already
// cached on the schema, keyed by mode, for byte comparison.
func warmExports(t *testing.T, sch *core.Schema) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, exp := range sch.ExportWarmModes() {
		data, err := schemaio.EncodeMappedTable(exp)
		if err != nil {
			t.Fatalf("encode mode %s: %v", exp.ModeKey, err)
		}
		out[exp.ModeKey] = data
	}
	return out
}

// coldExports fully rematerializes a cold clone of sch and returns its
// per-mode encodings — the ground truth warm restore must match bit
// for bit.
func coldExports(t *testing.T, sch *core.Schema) map[string][]byte {
	t.Helper()
	cold := sch.Clone()
	if _, err := cold.MultiVersion().All(); err != nil {
		t.Fatal(err)
	}
	return warmExports(t, cold)
}

// buildWarmWarehouse opens dir with warm snapshots, evolves once (five
// temporal modes), materializes every mode and snapshots. The store is
// returned unclosed so callers can choose where the simulated SIGKILL
// lands.
func buildWarmWarehouse(t *testing.T, dir string) (*Store, *core.Schema, *evolution.Applier) {
	t.Helper()
	st, sch, ap, err := Open(dir, seedSchema(t), Options{SnapshotWarm: true, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	sch, ap = applyEvolve(t, sch, ap, "EXCLUDE Org Dpt.Brian_id AT 01/2004\n")
	if _, _, err := st.AppendEvolve([]byte("EXCLUDE Org Dpt.Brian_id AT 01/2004\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := sch.MultiVersion().All(); err != nil {
		t.Fatal(err)
	}
	if got := len(sch.CachedModeKeys()); got < 4 {
		t.Fatalf("fixture has %d cached modes, want >= 4", got)
	}
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	return st, sch, ap
}

// TestCrashRecoveryWarmSnapshotNoTail is the SIGKILL-between-snapshot-
// and-WAL-append case: the snapshot is durable, no record follows, the
// store is never closed. Recovery must serve every mode warm — zero
// materializations — with tables byte-identical to a cold rebuild.
func TestCrashRecoveryWarmSnapshotNoTail(t *testing.T) {
	dir := t.TempDir()
	_, sch, _ := buildWarmWarehouse(t, dir) // store abandoned: simulated SIGKILL
	want := warmExports(t, sch)

	st2, sch2, _, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.RecoveryStats().WarmModes; len(got) != len(want) {
		t.Fatalf("WarmModes = %v, want %d modes", got, len(want))
	}
	if _, err := sch2.MultiVersion().All(); err != nil {
		t.Fatal(err)
	}
	if builds := sch2.MultiVersion().Materializations(); builds != 0 {
		t.Errorf("warm restart performed %d materializations, want 0", builds)
	}
	got := warmExports(t, sch2)
	if !reflect.DeepEqual(got, want) {
		t.Error("warm-restored tables differ from the snapshotted ones")
	}
	cold := coldExports(t, sch2)
	if !reflect.DeepEqual(got, cold) {
		t.Error("warm-restored tables differ from a cold rebuild")
	}
}

// TestCrashRecoveryWarmSnapshotThenWALTail kills the process after a
// warm snapshot and two more fact batches: replay must delta-fold the
// tail into the restored tables (no materializations) and still match
// a cold rebuild bit for bit.
func TestCrashRecoveryWarmSnapshotThenWALTail(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := buildWarmWarehouse(t, dir)
	for _, batch := range [][]FactRecord{
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
	}
	// Store abandoned without Close: simulated SIGKILL with a WAL tail.

	st2, sch2, _, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.RecoveryStats().Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", st2.RecoveryStats().Replayed)
	}
	warm := st2.RecoveryStats().WarmModes
	if len(warm) < 4 {
		t.Fatalf("WarmModes = %v, want >= 4", warm)
	}
	if deltas := sch2.MultiVersion().DeltaApplies(); deltas == 0 {
		t.Error("WAL-tail fact batches were not delta-folded into warm tables")
	}
	if _, err := sch2.MultiVersion().All(); err != nil {
		t.Fatal(err)
	}
	if builds := sch2.MultiVersion().Materializations(); builds != 0 {
		t.Errorf("warm restart performed %d materializations, want 0", builds)
	}
	got := warmExports(t, sch2)
	cold := coldExports(t, sch2)
	if !reflect.DeepEqual(got, cold) {
		t.Error("warm tables with folded WAL tail differ from a cold rebuild")
	}
}

// TestCrashRecoveryWarmCorruptModeDegradesCold flips one byte in one
// warm section's payload: only that mode rebuilds cold; every other
// mode stays warm, and answers are still exactly the cold-rebuild
// answers.
func TestCrashRecoveryWarmCorruptModeDegradesCold(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := buildWarmWarehouse(t, dir)
	if _, _, err := st.AppendFactBatch([]FactRecord{
		{Coords: []string{"Dpt.Bill_id"}, Time: "2004", Values: []float64{70}},
	}); err != nil {
		t.Fatal(err)
	}

	path, data := soleSnapshot(t, dir)
	secs := sectionSpans(t, data)
	var warm []sectionSpan
	for _, sec := range secs {
		if sec.kind == secWarm {
			warm = append(warm, sec)
		}
	}
	if len(warm) < 4 {
		t.Fatalf("snapshot carries %d warm sections, want >= 4", len(warm))
	}
	exp, err := schemaio.DecodeMappedTable(data[warm[1].payload:warm[1].crc])
	if err != nil {
		t.Fatal(err)
	}
	corrupted := exp.ModeKey
	data[(warm[1].payload+warm[1].crc)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, sch2, _, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.RecoveryStats().WarmModes
	for _, m := range got {
		if m == corrupted {
			t.Fatalf("corrupt mode %s reported warm", m)
		}
	}
	if len(got) != len(warm)-1 {
		t.Errorf("WarmModes = %v, want the %d uncorrupted modes", got, len(warm)-1)
	}
	if _, err := sch2.MultiVersion().All(); err != nil {
		t.Fatal(err)
	}
	if builds := sch2.MultiVersion().Materializations(); builds != 1 {
		t.Errorf("materializations = %d, want exactly the corrupted mode", builds)
	}
	if !reflect.DeepEqual(warmExports(t, sch2), coldExports(t, sch2)) {
		t.Error("degraded warm restart differs from a cold rebuild")
	}
}

// TestWarmSnapshotLeavesComposedModesOut: a composed version's cached
// table is no mode a restarted schema can resolve, so the snapshot
// carries no section for it and recovery rejects nothing.
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
	skipped := metWarmSkipped.Value()
	st2, _, _, err := Open(dir, nil, Options{Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := metWarmSkipped.Value() - skipped; n != 0 {
		t.Errorf("recovery rejected %d warm sections, want 0", n)
	}
}

// TestSnapshotEnvelopeDeterministic snapshots the same state twice and
// compares the containers byte for byte, with and without the warm
// sections. A nondeterministic codec would silently break the
// byte-identical warm-restore guarantee.
func TestSnapshotEnvelopeDeterministic(t *testing.T) {
	st, sch, ap, err := Open(t.TempDir(), seedSchema(t), Options{SnapshotWarm: true, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sch, ap = applyEvolve(t, sch, ap, "EXCLUDE Org Dpt.Brian_id AT 01/2004\n")
	if _, err := sch.MultiVersion().All(); err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{true, false} {
		a, b := containerBytes(t, sch, ap.Log(), 7, warm), containerBytes(t, sch, ap.Log(), 7, warm)
		if !bytes.Equal(a, b) {
			t.Fatalf("warm=%v: two snapshots of the same state differ byte for byte", warm)
		}
		n := 0
		for _, sec := range sectionSpans(t, a) {
			if sec.kind == secWarm {
				n++
			}
		}
		if want := len(sch.CachedModeKeys()); warm && n != want || !warm && n != 0 {
			t.Errorf("warm=%v: container carries %d warm sections, schema has %d cached modes", warm, n, want)
		}
	}
}
