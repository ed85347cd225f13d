package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mvolap/internal/casestudy"
	"mvolap/internal/store"
)

// Replication benchmarks: follower catch-up throughput (WAL records
// applied per second from bootstrap to converged) and read throughput
// as replicas are added. `make bench-smoke` runs both once.

// benchLeader starts a store-backed leader whose snapshot covers
// sequence zero, then appends records fact batches so a follower has
// a real catch-up to do.
func benchLeader(b *testing.B, records int) (*httptest.Server, *store.Store) {
	b.Helper()
	seed, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		b.Fatal(err)
	}
	st, sch, applier, err := store.Open(b.TempDir(), seed, store.Options{Logger: quietLogger()})
	if err != nil {
		b.Fatal(err)
	}
	// Snapshot before the appends: bootstrap lands at seq 0 and the
	// whole history streams.
	if _, err := st.Snapshot(sch, applier.Log(), "bench"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		batch := []store.FactRecord{{
			Coords: []string{"Dpt.Bill_id"},
			Time:   fmt.Sprintf("%d", 2004+i%3),
			Values: []float64{float64(i)},
		}}
		if _, _, err := st.AppendFactBatch(batch); err != nil {
			b.Fatal(err)
		}
		if err := store.ApplyFact(sch, batch[0]); err != nil {
			b.Fatal(err)
		}
	}
	s := New(nil, WithLogger(quietLogger()))
	s.Install(sch, applier, st)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		s.Stop()
		ts.Close()
		st.Close()
	})
	return ts, st
}

// benchFollower runs one follower and blocks until it has applied
// seq, returning its query endpoint.
func benchFollower(b *testing.B, leaderURL string, seq uint64) *httptest.Server {
	b.Helper()
	rep := store.NewReplica(leaderURL, store.ReplicaOptions{Logger: quietLogger()})
	s := New(nil, WithLogger(quietLogger()), WithReplica(rep))
	ctx, cancel := context.WithCancel(context.Background())
	go rep.Run(ctx)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		cancel()
		s.Stop()
		ts.Close()
	})
	deadline := time.Now().Add(30 * time.Second)
	for rep.Applied() < seq {
		if time.Now().After(deadline) {
			b.Fatalf("follower stuck at %d, want %d", rep.Applied(), seq)
		}
		time.Sleep(time.Millisecond)
	}
	return ts
}

// BenchmarkFollowerCatchup: bootstrap plus full WAL replay on a fresh
// follower, reported as records applied per second.
func BenchmarkFollowerCatchup(b *testing.B) {
	const records = 256
	leaderTS, st := benchLeader(b, records)
	want := st.LastSeq()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		benchFollower(b, leaderTS.URL, want)
		b.ReportMetric(float64(records)/time.Since(start).Seconds(), "records/s")
	}
}

// BenchmarkReplicaQueryThroughput: aggregate /query throughput with
// the load spread over the leader plus 0, 1 and 2 converged replicas.
func BenchmarkReplicaQueryThroughput(b *testing.B) {
	const records = 64
	q := "/query?q=" + urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm")
	for _, replicas := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			leaderTS, st := benchLeader(b, records)
			endpoints := []string{leaderTS.URL}
			for i := 0; i < replicas; i++ {
				endpoints = append(endpoints, benchFollower(b, leaderTS.URL, st.LastSeq()).URL)
			}
			var rr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					url := endpoints[rr.Add(1)%uint64(len(endpoints))] + q
					resp, err := http.Get(url)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("query = %d", resp.StatusCode)
					}
				}
			})
		})
	}
}
