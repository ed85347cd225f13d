package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/evolution"
)

// fuzzFrame renders one framed WAL record for the seed corpus,
// panicking on failure (seeds are built from static literals).
func fuzzFrame(seq uint64, typ string, data any) []byte {
	raw, err := json.Marshal(data)
	if err != nil {
		panic(err)
	}
	buf, err := encodeRecord(walRecord{Seq: seq, Type: typ, Data: raw})
	if err != nil {
		panic(err)
	}
	return buf
}

// FuzzWALRecord drives the full recovery path — scanWAL framing, then
// applyRecord replay against the case-study warehouse — with arbitrary
// bytes in place of the WAL body. scanWAL reads each frame through
// readFrame, the one frame reader the leader's stream and the follower
// share, so the fuzzer covers theirs too. Every input must either
// replay or be refused with an error; nothing may panic. The seed
// corpus covers all three record types (facts, evolve, retract), a
// multi-record stream, a torn tail, and plain garbage.
func FuzzWALRecord(f *testing.F) {
	facts := fuzzFrame(1, RecordFacts, []FactRecord{
		{Coords: []string{"Dpt.Bill_id"}, Time: "2004", Values: []float64{70}},
	})
	evolve := fuzzFrame(1, RecordEvolve, "EXCLUDE Org Dpt.Brian_id AT 01/2004\n")
	retract := fuzzFrame(2, RecordRetract, []RetractRecord{
		{Coords: []string{"Dpt.Bill_id"}, Time: "2004"},
	})
	f.Add(facts)
	f.Add(evolve)
	f.Add(retract)
	f.Add(append(append([]byte{}, facts...), retract...))
	f.Add(facts[:len(facts)-3]) // torn tail
	f.Add([]byte("garbage"))

	seed, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "wal-1.log")
		if err := os.WriteFile(path, append([]byte(walMagic), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		scan, err := scanWAL(path)
		if err != nil {
			return // refused cleanly (corruption, version skew, sequence jump)
		}
		sch := seed.Clone()
		ap := evolution.NewApplier(sch)
		for _, rec := range scan.records {
			next, ap2, _, err := applyRecord(sch, ap, rec)
			if err != nil {
				// Refused cleanly; later records would replay against the
				// wrong state, exactly as recovery stops.
				return
			}
			sch, ap = next, ap2
		}
	})
}
