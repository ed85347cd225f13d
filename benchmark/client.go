package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the fixed load shape: a closed loop of two clients on two
// keep-alive connections. Each sends its next op only after the
// previous one is answered.
const clients = 2

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
	}}
}

// envelope is the part of a /facts, /facts/retract or /evolve answer
// the layer counts are taken from.
type envelope struct {
	WalSeq                uint64   `json:"walSeq"`
	RetainedModes         []string `json:"retainedModes"`
	EvictedModes          []string `json:"evictedModes"`
	ModesSubtracted       int      `json:"modesSubtracted"`
	QueryCacheInvalidated int      `json:"queryCacheInvalidated"`
}

// sample is the outcome of one op.
type sample struct {
	ns     int64
	status int // 0: no HTTP answer (transport error, or never sent after an abort)
	bytes  int
	env    envelope
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// send issues one op and reads its whole answer.
func send(c *http.Client, base string, o *op) sample {
	start := time.Now()
	var resp *http.Response
	var err error
	if o.kind == kindQuery {
		resp, err = c.Get(base + queryPath(o.stmt))
	} else {
		resp, err = c.Post(base+kindPaths[o.kind], "application/octet-stream", bytes.NewReader(o.body))
	}
	if err != nil {
		return sample{ns: int64(time.Since(start))}
	}
	defer resp.Body.Close()
	s := sample{status: resp.StatusCode}
	if o.kind == kindQuery {
		n, _ := io.Copy(io.Discard, resp.Body)
		s.bytes = int(n)
	} else {
		body, _ := io.ReadAll(resp.Body)
		s.bytes = len(body)
		if s.ok() && json.Unmarshal(body, &s.env) != nil {
			s.status = 0 // a 2xx that is not the envelope is not an answer
		}
	}
	s.ns = int64(time.Since(start))
	return s
}

// drive runs the ops in a closed loop: the clients pull from one queue,
// so both stay busy until the stream ends. Ops not started when the
// budget runs out are left unsent and count as failed.
func drive(c *http.Client, base string, ops []op, budget time.Duration) ([]sample, time.Duration) {
	samples := make([]sample, len(ops))
	done := make([]atomic.Bool, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || time.Since(start) > budget {
					return
				}
				if a := ops[i].after; a >= 0 {
					for !done[a].Load() {
						runtime.Gosched()
					}
				}
				samples[i] = send(c, base, &ops[i])
				done[i].Store(true)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// kindStats are the exact order statistics of one op kind. A failed op
// counts as the slowest sample of its kind: it takes the largest
// latency seen, so it can only push percentiles up.
type kindStats struct {
	n, failed int
	sorted    []int64
}

// statsOf sorts the samples of every kind, and of all kinds together.
func statsOf(ops []op, samples []sample) (all kindStats, perKind [numKinds]kindStats) {
	var slowest [numKinds]int64
	for i, s := range samples {
		k := ops[i].kind
		slowest[k] = max(slowest[k], s.ns)
	}
	for i, s := range samples {
		k := ops[i].kind
		ns := s.ns
		if !s.ok() {
			ns = slowest[k]
			perKind[k].failed++
		}
		perKind[k].n++
		perKind[k].sorted = append(perKind[k].sorted, ns)
	}
	for k := range perKind {
		slices.Sort(perKind[k].sorted)
		all.n += perKind[k].n
		all.failed += perKind[k].failed
		all.sorted = append(all.sorted, perKind[k].sorted...)
	}
	slices.Sort(all.sorted)
	return all, perKind
}

// ms is the p-th percentile by nearest rank, in milliseconds; 0 when
// the kind has no samples.
func (st kindStats) ms(p float64) float64 {
	return float64(percentile(st.sorted, p)) / 1e6
}

// percentile is the nearest-rank order statistic of a sorted slice.
func percentile[T int64 | int](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// series is one scrape of GET /metrics: every sample line, keyed by
// its series (name and labels) as printed.
type series map[string]float64

func scrape(c *http.Client, base string) (series, error) {
	status, body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := series{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sum adds up every series of one metric name, whatever its labels.
func (s series) sum(name string) float64 {
	var total float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// counters is the difference of two scrapes.
type counters struct{ before, after series }

func (c counters) delta(name string) float64 { return c.after.sum(name) - c.before.sum(name) }

// ratio is a/b, 0 when b is 0: a layer that did no work has no ratio.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
