package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mvolap/internal/casestudy"
	"mvolap/internal/evolution"
	"mvolap/internal/store"
)

// The write path is one pipeline under three endpoints. These tests pin
// what a client of any of them sees: the wire bytes of every accepted
// and refused envelope (captured at the commit before the three
// handlers became one, see testdata/write_envelopes.golden), and one
// matrix of every way a write can end, each row checked for its
// status, its envelope, the WAL position and the served state.

// newWriteServer serves the case study with every temporal mode warm,
// over a store in dir ("" for none).
func newWriteServer(t *testing.T, dir string, opts ...Option) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	sch, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(nil, append([]Option{WithLogger(quietLogger())}, opts...)...)
	var st *store.Store
	var applier *evolution.Applier
	if dir != "" {
		st, sch, applier, err = store.Open(dir, sch, store.Options{Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
	}
	s.Install(sch, applier, st)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	warmAllModes(t, ts, listModes(t, ts))
	return s, ts, st
}

// Request bodies shared by the golden and the matrix: one accepted and
// one refused batch per endpoint. Every refused batch fails at its
// second element, after one element applied to the discarded clone.
var writeBodies = map[string]struct{ ok, refused, malformed string }{
	"/facts": {
		ok: `[{"coords":["Dpt.Bill_id"],"time":"2004","values":[70]},
		      {"coords":["Dpt.Paul_id"],"time":"2004","values":[30]}]`,
		refused: `[{"coords":["Dpt.Bill_id"],"time":"2005","values":[1]},
		           {"coords":["Nope_id"],"time":"2005","values":[2]}]`,
		malformed: `{`,
	},
	"/facts/retract": {
		ok: `[{"coords":["Dpt.Bill_id"],"time":"2004"}]`,
		refused: `[{"coords":["Dpt.Paul_id"],"time":"2004"},
		           {"coords":["Dpt.Paul_id"],"time":"1999"}]`,
		malformed: `{`,
	},
	"/evolve": {
		ok: "EXCLUDE Org Dpt.Brian_id AT 01/2004\n",
		refused: "INSERT Org Dpt.New_id Dpt.New LEVEL Department AT 01/2005 PARENTS Sales_id\n" +
			"EXCLUDE Org Nope_id AT 01/2005\n",
		malformed: "BOGUS Org x\n",
	},
}

// writeEndpoints is the order the golden drives the endpoints in: the
// retract addresses a fact the /facts batch appended.
var writeEndpoints = []string{"/facts", "/facts/retract", "/evolve"}

var durationRE = regexp.MustCompile(`"durationMs": [-+0-9.e]+`)

// TestWriteEnvelopesGolden asserts the wire bytes of the write
// envelopes: the three accepted answers with and without a store, plain
// and with ?trace=1 (durations zeroed; the span tree and its attributes
// stay), and the refusal of each kind. Rewrite the file with
// MVOLAP_REWRITE_TESTDATA=1 only for an intended wire change.
func TestWriteEnvelopesGolden(t *testing.T) {
	var got bytes.Buffer
	record := func(name string, code int, body []byte) {
		fmt.Fprintf(&got, "=== %s %d\n%s", name, code, durationRE.ReplaceAll(body, []byte(`"durationMs": 0`)))
	}
	for _, stored := range []bool{false, true} {
		for _, suffix := range []string{"", "?trace=1"} {
			dir, label := "", "nostore"
			if stored {
				dir, label = t.TempDir(), "store"
			}
			_, srv, _ := newWriteServer(t, dir, WithEvolution())
			for _, ep := range writeEndpoints {
				code, body := post(t, srv, ep+suffix, writeBodies[ep].ok)
				record(label+" "+ep+suffix, code, body)
			}
		}
	}
	_, srv, _ := newWriteServer(t, t.TempDir(), WithEvolution())
	post(t, srv, "/facts", writeBodies["/facts"].ok)
	for _, ep := range writeEndpoints {
		code, body := post(t, srv, ep, writeBodies[ep].refused)
		record("refused "+ep, code, body)
	}

	golden := filepath.Join("testdata", "write_envelopes.golden")
	if os.Getenv("MVOLAP_REWRITE_TESTDATA") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("write envelopes differ from %s:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

const probeQuery = "/query?q=SELECT+Amount+BY+Org.Department,+TIME.YEAR+MODE+tcm"

// TestWritePathMatrix drives every endpoint of the write path through
// every way a write can end. A row that is not accepted must leave the
// WAL position and the served state exactly as they were.
func TestWritePathMatrix(t *testing.T) {
	type fixture struct {
		srv   *httptest.Server // the server the write goes to
		probe *httptest.Server // where the served state is read
		st    *store.Store     // the log the write would reach; nil for none
	}
	leaderOf := func(t *testing.T, opts ...Option) fixture {
		_, srv, st := newWriteServer(t, t.TempDir(), opts...)
		return fixture{srv, srv, st}
	}
	rows := []struct {
		name  string
		setup func(t *testing.T) fixture
		body  func(ep string) string
		code  int
		// want is the whole response body, or for an accepted write a
		// substring of it.
		want func(ep string) string
	}{
		{
			name: "follower",
			setup: func(t *testing.T) fixture {
				leader, _, st := startLeader(t, t.TempDir())
				follower, _, _ := startFollower(t, leader.URL, store.ReplicaOptions{}, WithEvolution())
				return fixture{follower, follower, st}
			},
			body: func(ep string) string { return writeBodies[ep].ok },
			code: http.StatusForbidden,
			want: func(string) string { return "" }, // carries the leader's URL; checked below
		},
		{
			name:  "disabled",
			setup: func(t *testing.T) fixture { return leaderOf(t) },
			body:  func(ep string) string { return writeBodies[ep].ok },
			code:  http.StatusForbidden,
			want: func(ep string) string {
				if ep == "/evolve" {
					return `{"error":"evolution disabled; start with WithEvolution"}` + "\n"
				}
				return `{"error":"mutation disabled; start with WithEvolution"}` + "\n"
			},
		},
		{
			name: "not ready",
			setup: func(t *testing.T) fixture {
				srv := httptest.NewServer(New(nil, WithLogger(quietLogger()), WithEvolution()).Handler())
				t.Cleanup(srv.Close)
				return fixture{srv, srv, nil}
			},
			body: func(ep string) string { return writeBodies[ep].ok },
			code: http.StatusServiceUnavailable,
			want: func(string) string { return `{"error":"recovering: warehouse not yet available"}` + "\n" },
		},
		{
			name:  "oversized",
			setup: func(t *testing.T) fixture { return leaderOf(t, WithEvolution()) },
			body:  func(string) string { return strings.Repeat("#", maxWriteBody+1) },
			code:  http.StatusRequestEntityTooLarge,
			want: func(string) string {
				return `{"error":"request body exceeds the limit of 1048576 bytes; split the batch"}` + "\n"
			},
		},
		{
			name:  "malformed",
			setup: func(t *testing.T) fixture { return leaderOf(t, WithEvolution()) },
			body:  func(ep string) string { return writeBodies[ep].malformed },
			code:  http.StatusBadRequest,
			want: func(ep string) string {
				switch ep {
				case "/facts":
					return `{"error":"store: fact batch: unexpected end of JSON input"}` + "\n"
				case "/facts/retract":
					return `{"error":"store: retract batch: unexpected end of JSON input"}` + "\n"
				}
				return `{"error":"evolution: script line 1: unknown statement \"BOGUS\""}` + "\n"
			},
		},
		{
			name: "refused",
			setup: func(t *testing.T) fixture {
				f := leaderOf(t, WithEvolution())
				post(t, f.srv, "/facts", writeBodies["/facts"].ok)
				return f
			},
			body: func(ep string) string { return writeBodies[ep].refused },
			code: http.StatusUnprocessableEntity,
			want: func(ep string) string {
				switch ep {
				case "/facts":
					return `{"applied":1,"error":"fact 1: core: fact coordinate \"Nope_id\" not in dimension Org","failedAt":1,"retained":false}` + "\n"
				case "/facts/retract":
					return `{"applied":1,"error":"retract 1: core: no fact at Dpt.Paul_id 01/1999 to retract","failedAt":1,"retained":false}` + "\n"
				}
				return `{"applied":1,"error":"evolution: applying operator 2 (Exclude(Org, Nope_id, 01/2005)) after 1 applied: core: dimension Org: unknown member version \"Nope_id\"","failedAt":1,"failedOp":"Exclude(Org, Nope_id, 01/2005)","retained":false}` + "\n"
			},
		},
		{
			// A failed append serves and persists nothing: the batch applied
			// to a clone, but the log under the server is closed.
			name: "append failure",
			setup: func(t *testing.T) fixture {
				f := leaderOf(t, WithEvolution())
				post(t, f.srv, "/facts", writeBodies["/facts"].ok)
				if err := f.st.Close(); err != nil {
					t.Fatal(err)
				}
				return f
			},
			body: func(ep string) string {
				if ep == "/facts" {
					return `[{"coords":["Dpt.Bill_id"],"time":"2005","values":[1]}]`
				}
				return writeBodies[ep].ok
			},
			code: http.StatusInternalServerError,
			want: func(string) string { return `{"error":"wal append: store: closed"}` + "\n" },
		},
		{
			name: "accepted",
			setup: func(t *testing.T) fixture {
				f := leaderOf(t, WithEvolution())
				post(t, f.srv, "/facts", writeBodies["/facts"].ok)
				return f
			},
			body: func(ep string) string {
				if ep == "/facts" {
					return `[{"coords":["Dpt.Bill_id"],"time":"2005","values":[1]}]`
				}
				return writeBodies[ep].ok
			},
			code: http.StatusOK,
			want: func(string) string { return `"walSeq": 2` },
		},
	}
	for _, row := range rows {
		for _, ep := range writeEndpoints {
			t.Run(row.name+ep, func(t *testing.T) {
				f := row.setup(t)
				var seq uint64
				if f.st != nil {
					seq = f.st.LastSeq()
				}
				probeCode, probe := get(t, f.probe, probeQuery)

				code, body := post(t, f.srv, ep, row.body(ep))
				if code != row.code {
					t.Fatalf("POST %s = %d, want %d: %s", ep, code, row.code, body)
				}
				want := row.want(ep)
				switch {
				case row.name == "follower":
					var env map[string]string
					if err := json.Unmarshal(body, &env); err != nil || env["leader"] == "" ||
						env["error"] != "read-only replica: this follower does not accept writes" {
						t.Errorf("follower envelope = %s", body)
					}
				case row.code == http.StatusOK:
					if !strings.Contains(string(body), want) {
						t.Errorf("envelope %s lacks %s", body, want)
					}
				case string(body) != want:
					t.Errorf("envelope = %swant %s", body, want)
				}

				accepted := row.code == http.StatusOK
				if f.st != nil {
					wantSeq := seq
					if accepted {
						wantSeq++
					}
					if got := f.st.LastSeq(); got != wantSeq {
						t.Errorf("LastSeq = %d, want %d", got, wantSeq)
					}
				}
				if accepted {
					return
				}
				if afterCode, after := get(t, f.probe, probeQuery); afterCode != probeCode || !bytes.Equal(after, probe) {
					t.Errorf("a %d changed the served state\nbefore: %d %s\nafter: %d %s", code, probeCode, probe, afterCode, after)
				}
			})
		}
	}
}

// TestEmptyEvolveScriptRefused: a script that parses to zero operators
// is a 400 like an empty fact batch, not an acknowledged write that
// costs a WAL record, a clone-swap and a step toward the next snapshot.
func TestEmptyEvolveScriptRefused(t *testing.T) {
	s, srv, st := newWriteServer(t, t.TempDir(), WithEvolution())
	served := s.snapshot()
	for _, script := range []string{"", "\n\n", "# comment\n"} {
		code, body := post(t, srv, "/evolve", script)
		if want := `{"error":"evolution script is empty"}` + "\n"; code != http.StatusBadRequest || string(body) != want {
			t.Errorf("POST /evolve %q = %d %s, want 400 %s", script, code, body, want)
		}
	}
	if seq := st.LastSeq(); seq != 0 {
		t.Errorf("LastSeq = %d after empty scripts, want 0", seq)
	}
	if s.snapshot() != served {
		t.Error("an empty script swapped the served schema")
	}
}

// TestWriteStageSeries: every write observes each stage it went through
// in mvolap_write_stage_seconds, traced or not, and a follower applying
// the leader's records feeds clone, apply and warm of the same series
// through the same routine. Two scrapes are enough to say where a
// write's time went, queueing and the snapshot stall included.
func TestWriteStageSeries(t *testing.T) {
	leader, _, st := startLeader(t, t.TempDir())
	_, rep, _ := startFollower(t, leader.URL, store.ReplicaOptions{})
	stages := []string{"decode", "queue", "clone", "apply", "wal", "warm", "publish"}
	count := func(kind, stage string) float64 { return stageCount(t, leader, kind, stage) }
	// The registry is the process's: other tests' writes are in it too,
	// so only differences between two scrapes mean anything.
	for i, ep := range writeEndpoints {
		kind := []string{store.RecordFacts, store.RecordRetract, store.RecordEvolve}[i]
		before := map[string]float64{}
		for _, stage := range stages {
			before[stage] = count(kind, stage)
		}
		if code, body := post(t, leader, ep, writeBodies[ep].ok); code != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", ep, code, body)
		}
		waitApplied(t, rep, st.LastSeq())
		for _, stage := range stages {
			// The leader observed the stage once; the follower, sharing the
			// registry, observed the three stages of the shared routine again.
			want := 1.0
			if stage == "clone" || stage == "apply" || stage == "warm" {
				want = 2
			}
			if got := count(kind, stage) - before[stage]; got != want {
				t.Errorf("%s: stage %s observed %v times by leader and follower, want %v", ep, stage, got, want)
			}
		}
	}

	// A refused batch stops after apply; a refused body after decode.
	refusedApply, refusedWAL := count(store.RecordFacts, "apply"), count(store.RecordFacts, "wal")
	post(t, leader, "/facts", writeBodies["/facts"].refused)
	if count(store.RecordFacts, "apply") != refusedApply || count(store.RecordFacts, "wal") != refusedWAL {
		t.Error("a refused batch observed a stage it did not complete")
	}
}

// TestReadersDoNotWaitForAParkedWrite: a write holds the writer mutex
// from its clone to the end of its automatic snapshot, but readers take
// the served pointer under mu, which the write holds only for the swap.
// With a write parked inside commit — its clone built, applied and
// warmed, not yet swapped in — /query, /schema, /modes and /readyz
// answer from the schema it is about to replace; once it is released
// the next query sees it. A regression would block the reads behind the
// parked write, which the deadline turns into a failure, not a hang.
func TestReadersDoNotWaitForAParkedWrite(t *testing.T) {
	sch, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sch, WithLogger(quietLogger()), WithEvolution())
	h := s.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	q := "/query?q=" + urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm")
	before := serve(http.MethodGet, q, "").Body.String()

	parked, release := make(chan struct{}), make(chan struct{})
	s.parkCommit = func() {
		close(parked)
		<-release
	}
	wrote := make(chan *httptest.ResponseRecorder, 1)
	go func() { wrote <- serve(http.MethodPost, "/facts", writeBodies["/facts"].ok) }()
	<-parked
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	type answer struct {
		path string
		rec  *httptest.ResponseRecorder
	}
	answers := make(chan answer, 4)
	go func() {
		for _, path := range []string{q, "/schema", "/modes", "/readyz"} {
			answers <- answer{path, serve(http.MethodGet, path, "")}
		}
	}()
	deadline := time.After(30 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case a := <-answers:
			if a.rec.Code != http.StatusOK {
				t.Errorf("GET %s during a parked write = %d: %s", a.path, a.rec.Code, a.rec.Body)
			}
			if a.path == q && a.rec.Body.String() != before {
				t.Errorf("GET %s during a parked write answered from another schema", q)
			}
		case <-deadline:
			t.Fatalf("readers still waiting on a parked write after %d of 4 answers", i)
		}
	}

	close(release)
	released = true
	if rec := <-wrote; rec.Code != http.StatusOK {
		t.Fatalf("released write = %d: %s", rec.Code, rec.Body)
	}
	if after := serve(http.MethodGet, q, "").Body.String(); after == before {
		t.Error("the released write is not visible to the next query")
	}
}

// TestLeaderMinWalSeqWaitsForPublish: on the leader, walSeq means
// served. With a write parked between its WAL append and its publish,
// /readyz still reports the previous walSeq, and a query pinned to the
// logged sequence never answers from the generation the write replaces:
// at a short deadline it is a 504, and one in flight across the release
// answers from the new generation. A sequence that was never logged is
// a 504 at once.
func TestLeaderMinWalSeqWaitsForPublish(t *testing.T) {
	s, _, st := newWriteServer(t, t.TempDir(), WithEvolution())
	h := s.Handler()
	serve := func(ctx context.Context, method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx))
		return rec
	}
	bg := context.Background()
	q := "/query?q=" + urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm")
	before := serve(bg, http.MethodGet, q, "").Body.String()
	prev := st.LastSeq()

	parked, release := make(chan struct{}), make(chan struct{})
	s.parkCommit = func() {
		close(parked)
		<-release
	}
	wrote := make(chan *httptest.ResponseRecorder, 1)
	go func() { wrote <- serve(bg, http.MethodPost, "/facts", writeBodies["/facts"].ok) }()
	<-parked
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	seq := st.LastSeq()
	if seq != prev+1 {
		t.Fatalf("the parked write logged seq %d, want %d", seq, prev+1)
	}

	var ready struct {
		WALSeq uint64 `json:"walSeq"`
	}
	if err := json.Unmarshal(serve(bg, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.WALSeq != prev {
		t.Errorf("/readyz walSeq = %d with seq %d logged but not served, want %d", ready.WALSeq, seq, prev)
	}

	pinned := fmt.Sprintf("%s&minWalSeq=%d", q, seq)
	short, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	if rec := serve(short, http.MethodGet, pinned, ""); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("minWalSeq=%d before its publish = %d, want 504 at the deadline (old generation? %v)",
			seq, rec.Code, rec.Body.String() == before)
	}

	never := make(chan int, 1)
	go func() { never <- serve(bg, http.MethodGet, q+"&minWalSeq=999", "").Code }()
	select {
	case code := <-never:
		if code != http.StatusGatewayTimeout {
			t.Errorf("minWalSeq=999 = %d, want 504", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("minWalSeq=999, a sequence never logged, waited instead of failing at once")
	}

	waiting := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiting <- serve(bg, http.MethodGet, pinned, "") }()
	close(release)
	released = true
	if rec := <-wrote; rec.Code != http.StatusOK {
		t.Fatalf("released write = %d: %s", rec.Code, rec.Body)
	}
	if rec := <-waiting; rec.Code != http.StatusOK || rec.Body.String() == before {
		t.Errorf("minWalSeq=%d across the release = %d, from the old generation: %v", seq, rec.Code, rec.Body.String() == before)
	}
}

// stageCount reads how often a stage of a kind of write was observed; a
// series that was never observed is not in the exposition and reads 0.
func stageCount(t *testing.T, srv *httptest.Server, kind, stage string) float64 {
	t.Helper()
	_, body := get(t, srv, "/metrics")
	name := fmt.Sprintf(`mvolap_write_stage_seconds_count{op=%q,stage=%q} `, kind, stage)
	_, rest, ok := strings.Cut(string(body), "\n"+name)
	if !ok {
		return 0
	}
	line, _, _ := strings.Cut(rest, "\n")
	v, err := strconv.ParseFloat(line, 64)
	if err != nil {
		t.Fatalf("parse %s%s: %v", name, line, err)
	}
	return v
}

// TestWriteStageSnapshot: the write that makes an automatic snapshot
// due observes the stall as its own stage.
func TestWriteStageSnapshot(t *testing.T) {
	srv, _ := openServer(t, t.TempDir(), store.Options{SnapshotEvery: 1})
	before := stageCount(t, srv, store.RecordFacts, "snapshot")
	post(t, srv, "/facts", writeBodies["/facts"].ok)
	if got := stageCount(t, srv, store.RecordFacts, "snapshot") - before; got != 1 {
		t.Errorf("snapshot stage observed %v times for one write with SnapshotEvery=1, want 1", got)
	}
}
