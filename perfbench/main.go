// Command perfbench is aggview's repository benchmark: one command that
// runs a workload, checks every output against a reference, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) by name
// and unit. The last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"qps": {"value": 87.6, "unit": "1/s"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload crossover --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	crossover  the paper's Example 1, Example 2 and Figure 5 queries, cold pool, 1 client
//	dashboard  warehouse aggregate-view queries, warm pool and plan cache, 2 clients
//	ingest     small commits into a fact table with a materialized view, 1 writer + 1 reader, and durable rounds
//
// The workloads' data lives on durable engines in a scratch directory
// under .bench_build/, which is removed on exit; the commits the commit
// metrics time go to in-memory engines. A detailed report (host record,
// seed, metrics, per-shape numbers, trace spans) is written to
// .bench_build/results/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricUnits fixes the unit of every metric the benchmark can emit. The
// names are the ones BENCHMARK.json lists and later changes cite.
var metricUnits = map[string]string{
	// End to end.
	"setup_s":              "s",
	"qps":                  "1/s",
	"latency_p50_ms":       "ms",
	"latency_p99_ms":       "ms",
	"pages_read_per_query": "pages",
	"commits_per_s":        "1/s",
	"commit_p50_ms":        "ms",
	"commit_p99_ms":        "ms",
	"disk_bytes_per_row":   "bytes",
	"recovery_s":           "s",
	"heap_mb":              "MiB",

	// Per layer.
	"sql.parse_us":                      "us",
	"flatten.rewrite_us":                "us",
	"binder.bind_us":                    "us",
	"core.optimize_us":                  "us",
	"core.optimize_share":               "ratio",
	"core.plans_considered":             "count",
	"core.dp_states":                    "count",
	"core.pullup_candidates":            "count",
	"core.phase2_runs":                  "count",
	"core.est_over_actual_pages":        "ratio",
	"core.trad_over_full_pages":         "ratio",
	"plancache.hit_ratio":               "ratio",
	"plancache.invalidations_per_query": "count",
	"exec.scan.self_ms":                 "ms",
	"exec.hash-join.self_ms":            "ms",
	"exec.block-nl-join.self_ms":        "ms",
	"exec.merge-join.self_ms":           "ms",
	"exec.index-nl-join.self_ms":        "ms",
	"exec.hash-groupby.self_ms":         "ms",
	"exec.sort-groupby.self_ms":         "ms",
	"exec.sort.self_ms":                 "ms",
	"exec.other.self_ms":                "ms",
	"exec.rows_out_per_query":           "rows",
	"exec.spill_pages_per_query":        "pages",
	"exec.alloc_bytes_per_row":          "bytes",
	"storage.pool_hit_ratio":            "ratio",
	"storage.reads_per_query":           "pages",
	"storage.scan_us_per_page":          "us",
	"wal.append_us":                     "us",
	"wal.sync_us":                       "us",
	"wal.bytes_per_commit":              "bytes",
	"txn.begin_wait_us":                 "us",
	"txn.commit_us":                     "us",
	"catalog.publish_us":                "us",
	"matview.rewrite_ratio":             "ratio",
	"matview.maintain_us_per_commit":    "us",
	"datagen.load_s":                    "s",
	"device.fsync_us":                   "us",
	"trace.overhead_qps":                "1/s",
}

// endToEnd lists the metrics a run without tracing reports, in print order.
var endToEnd = []string{
	"setup_s", "qps", "latency_p50_ms", "latency_p99_ms", "pages_read_per_query",
	"commits_per_s", "commit_p50_ms", "commit_p99_ms", "disk_bytes_per_row",
	"recovery_s", "heap_mb",
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every data set and count so the benchmark's own test
	// runs each workload in about a second.
	tiny bool
	// work is the scratch directory for data directories; it must exist.
	work string
}

// report is what a workload run produces.
type report struct {
	metrics map[string]float64
	details map[string]any
	tally   *tally
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, details: map[string]any{}, tally: &tally{}}
}

var workloads = map[string]func(config, *report) error{
	"crossover": runCrossover,
	"dashboard": runDashboard,
	"ingest":    runIngest,
}

// run executes one workload and returns its report. A returned error means
// the workload could not run at all; failed checks are counted in the
// report's tally instead.
func run(cfg config) (*report, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep := newReport()
	fsync, err := fsyncProbe(cfg.work, 50)
	if err != nil {
		return nil, err
	}
	rep.metrics["device.fsync_us"] = us(fsync)
	if err := fn(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the final line: with tracing it carries the per-layer
// metrics, without it the end-to-end ones.
func (r *report) result(trace bool) resultLine {
	out := resultLine{
		Attempted: r.tally.attempted.Load(),
		Failed:    r.tally.failed.Load(),
		Metrics:   map[string]metricOut{},
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	isE2E := map[string]bool{}
	for _, n := range endToEnd {
		isE2E[n] = true
	}
	for name, v := range r.metrics {
		if isE2E[name] != trace {
			out.Metrics[name] = metricOut{Value: v, Unit: metricUnits[name]}
		}
	}
	return out
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: crossover, dashboard or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated data and literals")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload crossover|dashboard|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	correct, err := mainErr(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// mainErr runs the workload and prints its report; it reports whether
// every output check passed.
func mainErr(cfg config) (bool, error) {
	base := ".bench_build"
	work, err := filepath.Abs(filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	cfg.work = work

	host, err := hostRecord(cfg.workload)
	if err != nil {
		return false, err
	}
	// Flush what the build left dirty, so the kernel does not write it
	// back in the middle of the measured commits.
	syscall.Sync()
	start := time.Now()
	rep, err := run(cfg)
	if err != nil {
		return false, err
	}
	host.FsyncP50US = rep.metrics["device.fsync_us"]
	hostJSON, err := json.Marshal(host)
	if err != nil {
		return false, err
	}
	fmt.Printf("host: %s\n", hostJSON)
	fmt.Printf("workload: %s  seed: %d  seconds: %g  trace: %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	line := rep.result(cfg.trace)
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, line.Metrics[n].Value, line.Metrics[n].Unit)
	}
	for _, e := range rep.tally.errs() {
		fmt.Printf("  check failed: %s\n", e)
	}
	fmt.Printf("attempted %d, failed %d, wall %.1fs\n", line.Attempted, line.Failed, time.Since(start).Seconds())

	if err := writeResults(base, cfg, host, rep, line); err != nil {
		return false, err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return line.Correct, nil
}

// writeResults stores the run's full report next to the scratch
// directories, one file per (workload, seed, trace) combination.
func writeResults(base string, cfg config, host hostInfo, rep *report, line resultLine) error {
	dir := filepath.Join(base, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"host":     host,
		"result":   line,
		"details":  rep.details,
		"failures": rep.tally.errs(),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
