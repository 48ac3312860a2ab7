package main

import (
	"sync"
	"sync/atomic"
	"time"

	"aggview"
)

// queryObs is one read query's outcome as a client saw it.
type queryObs struct {
	class   int // workload-defined statement class
	lat     time.Duration
	io      aggview.IOStats
	rewrite bool // the plan read a materialized view
	traced  bool
}

// span is one timed step of a request, recorded from the benchmark's own
// code around a call into the engine or one of its layers. Spans of one
// request share Req; Parent names the enclosing span ("" for the root).
type span struct {
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory until the run writes its report.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates a request id.
func (t *tracer) request() int64 { return t.next.Add(1) }

func (t *tracer) add(req int64, name, parent string, start time.Time, d time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent,
		StartUS: us(start.Sub(t.t0)), DurUS: us(d)})
	t.mu.Unlock()
}

// summary returns, per span name, the count and the median and p99
// durations in microseconds.
func (t *tracer) summary() map[string]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	by := map[string][]time.Duration{}
	for _, s := range t.spans {
		by[s.Name] = append(by[s.Name], time.Duration(s.DurUS*float64(time.Microsecond)))
	}
	out := map[string]map[string]float64{}
	for name, d := range by {
		out[name] = map[string]float64{
			"count": float64(len(d)), "p50_us": us(percentile(d, 0.5)), "p99_us": us(percentile(d, 0.99)),
		}
	}
	return out
}

// window is what the read clients observed.
type window struct {
	obs []queryObs
	// elapsed and queries split the window into its untraced [0] and
	// traced [1] parts.
	elapsed [2]time.Duration
	queries [2]int
	// qps and p50 hold each slice's throughput and median latency (ms).
	qps, p50 []float64
}

func (w *window) merge(o window) {
	w.obs = append(w.obs, o.obs...)
	for i := range w.elapsed {
		w.elapsed[i] += o.elapsed[i]
		w.queries[i] += o.queries[i]
	}
	w.qps = append(w.qps, o.qps...)
	w.p50 = append(w.p50, o.p50...)
}

// readOp runs one query for a client; i counts that client's queries. It
// reports ok=false when the query failed (already counted in the tally).
type readOp func(client, i int, traced bool) (queryObs, bool)

// runClients runs `clients` closed-loop goroutines, each issuing its next
// query only after the previous one returned, until done reports true.
func runClients(clients int, traced bool, done func() bool, op readOp) window {
	var w window
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []queryObs
			for i := 0; !done(); i++ {
				o, ok := op(c, i, traced)
				if ok {
					o.traced = traced
					local = append(local, o)
				}
			}
			mu.Lock()
			w.obs = append(w.obs, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	k := 0
	if traced {
		k = 1
	}
	w.elapsed[k] = time.Since(start)
	w.queries[k] = len(w.obs)
	lat := make([]time.Duration, len(w.obs))
	for i, o := range w.obs {
		lat[i] = o.lat
	}
	w.qps = []float64{ratio(float64(len(w.obs)), w.elapsed[k].Seconds())}
	w.p50 = []float64{ms(percentile(lat, 0.50))}
	return w
}

// windowSlices is the number of equal slices a timed read window is cut
// into. Between slices the workload runs its write burst; with tracing on,
// slices alternate untraced and traced, so the traced run also measures
// what tracing costs.
const windowSlices = 10

// timedWindow runs the clients for dur of read time, calling between after
// every slice.
func timedWindow(clients int, dur time.Duration, trace bool, op readOp, between func()) window {
	var w window
	for s := 0; s < windowSlices; s++ {
		end := time.Now().Add(dur / windowSlices)
		w.merge(runClients(clients, trace && s%2 == 1, func() bool { return time.Now().After(end) }, op))
		between()
	}
	return w
}

// reportReads stores the read-side metrics every workload shares.
func reportReads(rep *report, w window) {
	var lat []time.Duration
	var reads, hits int64
	var rewrites int
	for _, o := range w.obs {
		lat = append(lat, o.lat)
		reads += o.io.Reads
		hits += o.io.Hits
		if o.rewrite {
			rewrites++
		}
	}
	n := float64(len(w.obs))
	// Throughput and median latency are medians over the window's slices
	// (ingest: its rounds), so a host stall that spans a few slices does
	// not move them. The p99 pools every query: one slice holds too few
	// for ten to lie beyond its p99.
	rep.metrics["qps"] = medianFloat(w.qps)
	rep.metrics["latency_p50_ms"] = medianFloat(w.p50)
	rep.metrics["latency_p99_ms"] = ms(percentile(lat, 0.99))
	rep.metrics["storage.pool_hit_ratio"] = ratio(float64(hits), float64(hits+reads))
	rep.metrics["storage.reads_per_query"] = ratio(float64(reads), n)
	rep.metrics["matview.rewrite_ratio"] = ratio(float64(rewrites), n)
	rep.metrics["trace.overhead_qps"] = ratio(float64(w.queries[0]), w.elapsed[0].Seconds()) -
		ratio(float64(w.queries[1]), w.elapsed[1].Seconds())
	rep.details["read_queries"] = len(w.obs)
	if _, ok := rep.metrics["pages_read_per_query"]; !ok {
		rep.metrics["pages_read_per_query"] = ratio(float64(reads+hits), n)
	}
}

// addMetrics adds the engine counters the reports use.
func addMetrics(a, d aggview.Metrics) aggview.Metrics {
	a.Queries += d.Queries
	a.PlanCacheHits += d.PlanCacheHits
	a.PlanCacheMisses += d.PlanCacheMisses
	a.PlanCacheInvalidations += d.PlanCacheInvalidations
	a.OptimizeTime += d.OptimizeTime
	a.QueryTime += d.QueryTime
	return a
}

// reportPlanCache stores the plan-cache metrics from d, the engine
// counters' change over the window.
func reportPlanCache(rep *report, d aggview.Metrics) {
	rep.metrics["plancache.hit_ratio"] = ratio(float64(d.PlanCacheHits), float64(d.PlanCacheHits+d.PlanCacheMisses))
	rep.metrics["plancache.invalidations_per_query"] = ratio(float64(d.PlanCacheInvalidations), float64(d.Queries))
	rep.metrics["core.optimize_share"] = ratio(float64(d.OptimizeTime), float64(d.QueryTime))
}
