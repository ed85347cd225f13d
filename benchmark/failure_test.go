package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFailureAccounting points the client at a handler that refuses a
// fixed subset of ops, instantly, while every accepted op takes 2 ms.
// Counted by their own latency the refused ops would be the fastest
// samples; the rule is that each counts as the slowest of its kind.
func TestFailureAccounting(t *testing.T) {
	const slow = 2 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch {
		case strings.Contains(r.URL.Query().Get("q"), "REFUSE"):
			w.WriteHeader(http.StatusServiceUnavailable)
		case bytes.Contains(body, []byte("REFUSE")):
			w.WriteHeader(http.StatusUnprocessableEntity)
		default:
			time.Sleep(slow)
			io.WriteString(w, `{"walSeq": 1}`)
		}
	}))
	defer srv.Close()

	var ops []op
	for i := 0; i < 10; i++ {
		q := op{kind: kindQuery, stmt: "SELECT ok", after: -1}
		f := op{kind: kindFacts, body: []byte(`[]`), after: -1}
		if i < 2 {
			q.stmt = "SELECT REFUSE"
		}
		if i < 3 {
			f.body = []byte(`["REFUSE"]`)
		}
		ops = append(ops, q, f)
	}
	c := newClient()
	defer c.CloseIdleConnections()
	samples, _ := drive(c, srv.URL, ops, time.Minute)

	all, perKind := statsOf(ops, samples)
	for _, tc := range []struct {
		kind   opKind
		failed int
		status int
	}{{kindQuery, 2, http.StatusServiceUnavailable}, {kindFacts, 3, http.StatusUnprocessableEntity}} {
		st := perKind[tc.kind]
		if st.n != 10 || st.failed != tc.failed {
			t.Errorf("%s: n=%d failed=%d, want 10 and %d", kindNames[tc.kind], st.n, st.failed, tc.failed)
		}
		if fastest := time.Duration(st.sorted[0]); fastest < slow {
			t.Errorf("%s: fastest sample is %s: a refused op was counted by its own latency", kindNames[tc.kind], fastest)
		}
		slowest := st.sorted[len(st.sorted)-1]
		for _, v := range st.sorted[len(st.sorted)-1-tc.failed:] {
			if v != slowest {
				t.Errorf("%s: the %d refused ops and the slowest accepted one should share the top latency", kindNames[tc.kind], tc.failed)
			}
		}
		for i, s := range samples {
			if ops[i].kind == tc.kind && !s.ok() && s.status != tc.status {
				t.Errorf("%s: refused op has status %d, want %d", kindNames[tc.kind], s.status, tc.status)
			}
		}
	}
	if all.n != 20 || all.failed != 5 {
		t.Errorf("all ops: attempted=%d failed=%d, want 20 and 5 (failed share 0.25)", all.n, all.failed)
	}
}
