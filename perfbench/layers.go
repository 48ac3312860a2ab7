package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aggview"
	"aggview/internal/binder"
	"aggview/internal/catalog"
	"aggview/internal/core"
	"aggview/internal/flatten"
	"aggview/internal/sql"
	"aggview/internal/storage"
	"aggview/internal/types"
	"aggview/internal/wal"
)

// The traced run times each layer by calling its public functions from
// here, around the same statements the workload sends. Nothing inside the
// engine is instrumented. Statements are optimized against a replica: a
// standalone catalog loaded with the same generator and seed as the
// workload's engine, so its statistics and plans are the engine's.

// probeStmt is one workload statement with the engine that runs it and
// the replica catalog and optimizer options that reproduce its planning.
type probeStmt struct {
	eng   *aggview.Engine
	sql   string
	group string // report group, e.g. the paper shape
	cat   catalog.Reader
	opts  core.Options
}

// engineOptions mirrors the engine's resolution of Config into optimizer
// options for the default (Full) mode.
func engineOptions(cfg aggview.Config) core.Options {
	opts := core.DefaultOptions()
	opts.Mode = core.ModeFull
	opts.KLevelPullUp = 2
	opts.PoolPages = cfg.PoolPages
	if opts.PoolPages <= 0 {
		opts.PoolPages = storage.DefaultPoolPages
	}
	opts.RequireSharedPredicate = true
	opts.NoHashJoin = cfg.SystemRJoins
	return opts
}

// replica is a standalone catalog holding a workload's data.
type replica struct {
	cat   *catalog.Catalog
	store *storage.Store
}

func newReplica(poolPages int) *replica {
	st := storage.NewStore(poolPages)
	return &replica{cat: catalog.New(st), store: st}
}

// probeFrontEnd times parse, flatten, bind and optimize for each statement
// (reps times, median per statement) and reports the mean over statements,
// with the optimizer's search counters.
func probeFrontEnd(rep *report, tr *tracer, stmts []probeStmt, reps int) error {
	var parse, rewrite, bind, optimize []float64
	var plans, states, pullups, phase2 []float64
	for _, p := range stmts {
		var dp, dr, db, do []time.Duration
		var stats core.SearchStats
		for r := 0; r < reps; r++ {
			req := tr.request()
			t0 := time.Now()
			stmt, err := sql.Parse(p.sql)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("parse: %w", err)
			}
			tr.add(req, "sql.Parse", "", t0, d)
			dp = append(dp, d)
			sel, ok := stmt.(*sql.Select)
			if !ok {
				return fmt.Errorf("probe statement is not a SELECT: %s", p.sql)
			}
			t0 = time.Now()
			if _, err := flatten.Rewrite(sel); err != nil {
				return fmt.Errorf("flatten: %w", err)
			}
			d = time.Since(t0)
			tr.add(req, "flatten.Rewrite", "", t0, d)
			dr = append(dr, d)
			t0 = time.Now()
			bound, err := binder.BindSelect(p.cat, sel)
			d = time.Since(t0)
			if err != nil {
				return fmt.Errorf("bind: %w", err)
			}
			tr.add(req, "binder.BindSelect", "", t0, d)
			db = append(db, d)
			t0 = time.Now()
			plan, err := core.Optimize(bound.Query, p.opts)
			d = time.Since(t0)
			if err != nil {
				return fmt.Errorf("optimize: %w", err)
			}
			tr.add(req, "core.Optimize", "", t0, d)
			do = append(do, d)
			stats = plan.Stats
		}
		parse = append(parse, us(medianDur(dp)))
		rewrite = append(rewrite, us(medianDur(dr)))
		bind = append(bind, us(medianDur(db)))
		optimize = append(optimize, us(medianDur(do)))
		plans = append(plans, float64(stats.PlansConsidered))
		states = append(states, float64(stats.States))
		pullups = append(pullups, float64(stats.PullUpCandidates))
		phase2 = append(phase2, float64(stats.Phase2Runs))
	}
	rep.metrics["sql.parse_us"] = mean(parse)
	rep.metrics["flatten.rewrite_us"] = mean(rewrite)
	rep.metrics["binder.bind_us"] = mean(bind)
	rep.metrics["core.optimize_us"] = mean(optimize)
	rep.metrics["core.plans_considered"] = mean(plans)
	rep.metrics["core.dp_states"] = mean(states)
	rep.metrics["core.pullup_candidates"] = mean(pullups)
	rep.metrics["core.phase2_runs"] = mean(phase2)
	return nil
}

// opClass maps an EXPLAIN ANALYZE operator label to its metric name:
// "Join[hash] on …" and the outer form "Join[left hash] on …" become
// "hash-join", "GroupBy[sort] by …" becomes "sort-groupby".
func opClass(label string) string {
	bracket := func(prefix string) string {
		inner, _, _ := strings.Cut(label[len(prefix):], "]")
		f := strings.Fields(inner)
		if len(f) == 0 {
			return "?"
		}
		return f[len(f)-1]
	}
	switch {
	case strings.HasPrefix(label, "Scan "):
		return "scan"
	case strings.HasPrefix(label, "Sort "):
		return "sort"
	case strings.HasPrefix(label, "Join["):
		return bracket("Join[") + "-join"
	case strings.HasPrefix(label, "GroupBy["):
		return bracket("GroupBy[") + "-groupby"
	}
	return "other"
}

var opClasses = []string{"scan", "hash-join", "block-nl-join", "merge-join", "index-nl-join",
	"hash-groupby", "sort-groupby", "sort", "other"}

// selfTimes adds each operator's self time (its inclusive time minus its
// children's) to by, keyed by operator class, and returns the subtree's
// rows out and spill pages.
func selfTimes(n *aggview.OpNode, by map[string]time.Duration) (rows, spill int64) {
	if n.Actual == nil {
		return 0, 0
	}
	self := time.Duration(n.Actual.TimeNS())
	rows, spill = n.Actual.RowsOut, n.Actual.SpillReads+n.Actual.SpillWrites
	for _, c := range n.Children {
		if c.Actual != nil {
			self -= time.Duration(c.Actual.TimeNS())
		}
		r, s := selfTimes(c, by)
		rows += r
		spill += s
	}
	if self < 0 {
		self = 0
	}
	by[opClass(n.Label)] += self
	return rows, spill
}

// probeExec runs each statement under EXPLAIN ANALYZE (cold pool) reps
// times and reports per-query operator self times, rows, spill pages and
// the cost model's estimate against measured pages; then it runs each
// statement through Query to measure bytes allocated per operator row.
func probeExec(rep *report, tr *tracer, stmts []probeStmt, reps int) error {
	by := map[string]time.Duration{}
	var rows, spill int64
	var est, actual float64
	n := 0
	for _, p := range stmts {
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			a, err := p.eng.ExplainAnalyze(context.Background(), p.sql)
			if err != nil {
				return fmt.Errorf("explain analyze: %w", err)
			}
			tr.add(tr.request(), "Engine.ExplainAnalyze", "", t0, time.Since(t0))
			rs, sp := selfTimes(a.Root, by)
			rows += rs
			spill += sp
			est += a.Plan.EstimatedCost
			actual += float64(a.IO.Total())
			n++
		}
	}
	for _, c := range opClasses {
		rep.metrics["exec."+c+".self_ms"] = ms(by[c]) / float64(n)
	}
	rep.metrics["exec.rows_out_per_query"] = float64(rows) / float64(n)
	rep.metrics["exec.spill_pages_per_query"] = float64(spill) / float64(n)
	rep.metrics["core.est_over_actual_pages"] = ratio(est, actual)

	var ms0, ms1 runtime.MemStats
	var opRows int64
	runtime.ReadMemStats(&ms0)
	for _, p := range stmts {
		for r := 0; r < reps; r++ {
			res, err := p.eng.Query(context.Background(), p.sql)
			if err != nil {
				return fmt.Errorf("query: %w", err)
			}
			for i := range res.Ops {
				opRows += res.Ops[i].RowsOut
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.metrics["exec.alloc_bytes_per_row"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(opRows))
	return nil
}

// tradOverFull reports, per group, measured pages (reads + writes, cold
// pool) under the traditional optimizer over those under the default Full
// optimizer, and stores the smallest group ratio: above 1 means the
// paper's transformations saved IO on every group.
func tradOverFull(rep *report, groups map[string][2]float64) {
	minRatio := 0.0
	per := map[string]float64{}
	for g, io := range groups {
		r := ratio(io[0], io[1])
		per[g] = r
		if minRatio == 0 || r < minRatio {
			minRatio = r
		}
	}
	rep.metrics["core.trad_over_full_pages"] = minRatio
	rep.details["trad_over_full_pages"] = per
}

// measureTradFull runs each statement cold under Traditional and Full and
// accumulates measured pages per group.
func measureTradFull(stmts []probeStmt) (map[string][2]float64, error) {
	groups := map[string][2]float64{}
	for _, p := range stmts {
		g := groups[p.group]
		for i, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.Full} {
			res, err := p.eng.Query(context.Background(), p.sql, aggview.WithMode(mode), aggview.WithColdCache())
			if err != nil {
				return nil, fmt.Errorf("%v: %w", mode, err)
			}
			g[i] += float64(res.IO.Total())
		}
		groups[p.group] = g
	}
	return groups, nil
}

// probeScan times a cold scan of every table in the replicas' stores and
// reports microseconds per page.
func probeScan(rep *report, replicas []*replica, reps int) error {
	var total time.Duration
	pages := 0
	for i := 0; i < reps; i++ {
		for _, r := range replicas {
			snap := r.cat.Snapshot()
			for _, name := range snap.TableNames() {
				t, _ := snap.Table(name)
				r.store.ForceDropCaches()
				sess := r.store.NewSession(nil)
				sc := sess.NewScanner(t.File)
				t0 := time.Now()
				for {
					_, _, ok, err := sc.Next()
					if err != nil {
						sess.Close()
						return fmt.Errorf("scan %s: %w", name, err)
					}
					if !ok {
						break
					}
				}
				total += time.Since(t0)
				sess.Close()
				pages += t.File.Pages()
			}
		}
	}
	rep.metrics["storage.scan_us_per_page"] = ratio(us(total), float64(pages))
	return nil
}

// probeWAL appends and syncs n commits of the workload's shape (one
// INSERT record of rowsPerCommit rows each) to a standalone log in a
// scratch directory.
func probeWAL(rep *report, dir, table string, n, rowsPerCommit int, row func(k int) types.Row) error {
	dir = filepath.Join(dir, "wal-probe")
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	var app, syn []time.Duration
	k := 0
	for i := 0; i < n; i++ {
		rec := wal.Insert{Table: table}
		for j := 0; j < rowsPerCommit; j++ {
			rec.Rows = append(rec.Rows, row(k))
			k++
		}
		t0 := time.Now()
		if _, err := log.Append(int64(i+1), rec); err != nil {
			log.Close()
			return err
		}
		app = append(app, time.Since(t0))
		d, err := timed(log.Sync)
		if err != nil {
			log.Close()
			return err
		}
		syn = append(syn, d)
	}
	rep.metrics["wal.append_us"] = us(medianDur(app))
	rep.metrics["wal.sync_us"] = us(medianDur(syn))
	rep.metrics["wal.bytes_per_commit"] = float64(log.SizeSinceCheckpoint()) / float64(n)
	return log.Close()
}

// probePublish times n small catalog write batches on the replica, each
// from BeginWrite through inserting rowsPerCommit rows into table to
// Publish: the catalog's share of a commit (copy-on-write clone of the
// touched table, then the atomic swap that makes the batch visible).
func probePublish(rep *report, r *replica, table string, n, rowsPerCommit int, row func(k int) types.Row) error {
	var pub []time.Duration
	k := 0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r.cat.BeginWrite()
		t, ok := r.cat.Table(table)
		if !ok {
			r.cat.Discard()
			return fmt.Errorf("replica has no table %q", table)
		}
		for j := 0; j < rowsPerCommit; j++ {
			if err := r.cat.Insert(t, row(k)); err != nil {
				r.cat.Discard()
				return err
			}
			k++
		}
		r.cat.Publish()
		pub = append(pub, time.Since(t0))
	}
	rep.metrics["catalog.publish_us"] = us(medianDur(pub))
	return nil
}
