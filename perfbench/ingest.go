package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aggview"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// The ingest workload is the only one whose measured window writes. A
// sales fact table carries an incrementally maintained aggregate
// materialized view. One writer commits small multi-row INSERTs, every
// tenth as an explicit Begin/Exec/Commit transaction; one reader runs
// rollups the view rewrite answers and one base-table query. Each commit
// publishes a new catalog version and so invalidates the reader's cached
// plans.
//
// The window is a series of rounds, each on a fresh engine with the same
// preload and the same fixed number of commits: the table grows the same
// way in every round, so latencies do not drift with run length. The
// reads and commits are timed on in-memory engines. Every durableEvery-th
// round first commits the same writes on a durable engine, which gives
// setup_s, recovery_s, disk_bytes_per_row and the durability checks; its
// commit times go to the report's details only. On a shared disk the
// fsync median and tail moved the durable commit rate and p99 by a quarter
// from one run to the next, and a run that fsynced every round slowed the
// host's disk, and with it every later run, over a set of runs.

const (
	ingestPreloadStmts = 80  // INSERTs of ingestPreloadRows rows before the view exists
	ingestPreloadRows  = 250 // rows per preload INSERT
	ingestCommits      = 3000
	ingestRegions      = 10
	ingestProducts     = 20
	durableEvery       = 4
)

const ingestView = `create materialized view sales_rollup as
	select region, product, sum(amount) as total, count(*) as n, max(qty) as mq
	from sales group by region, product`

// ingestReads are the reader's statements; literals come from the seed.
// The first three are rollups the view rewrite answers; the last reads the
// base table.
func ingestReads(rng *rand.Rand) []string {
	return []string{
		`select region, sum(amount) as total from sales group by region`,
		fmt.Sprintf(`select product, count(*) as n, sum(amount) as s from sales where region < %d group by product`, 4+rng.Intn(4)),
		`select region, count(*) as n, max(qty) as m from sales group by region`,
		fmt.Sprintf(`select count(*) as n from sales where qty > %d`, 40+rng.Intn(6)),
	}
}

// salesRow generates the k-th sales row of a round.
func salesRow(r *rand.Rand, k int) types.Row {
	return types.Row{
		types.NewInt(int64(k)),
		types.NewInt(int64(r.Intn(ingestRegions))),
		types.NewInt(int64(r.Intn(ingestProducts))),
		types.NewInt(int64(1 + r.Intn(50))),
		types.NewFloat(float64(r.Intn(10000)) / 100),
	}
}

// salesStream returns the seeded INSERT stream, starting at row id first.
func salesStream(seed int64, first, rowsPer int) func() string {
	r := rand.New(rand.NewSource(seed))
	return insertStream("sales", rowsPer, func(k int) types.Row { return salesRow(r, first+k) })
}

// ingestSizes are the per-round counts (smaller in tiny mode).
type ingestSizes struct{ preloadStmts, commits int }

func sizesFor(tiny bool) ingestSizes {
	if tiny {
		return ingestSizes{preloadStmts: 4, commits: 60}
	}
	return ingestSizes{preloadStmts: ingestPreloadStmts, commits: ingestCommits}
}

// openSales builds one round's engine: table, seeded preload, then the
// view (so its backing table starts compact), when withView is set. The
// engine is durable under parent, or in memory when parent is "".
func openSales(parent, name string, seed int64, sz ingestSizes, withView bool) (*db, error) {
	var d *db
	if parent == "" {
		d = &db{name: name, eng: aggview.Open(aggview.Config{})}
	} else {
		var err error
		if d, err = openDB(parent, name, aggview.Config{}); err != nil {
			return nil, err
		}
	}
	if _, err := d.eng.Exec(`create table sales (id int, region int, product int, qty int, amount float)`); err != nil {
		return nil, err
	}
	pre := salesStream(seed, 0, ingestPreloadRows)
	for k := 0; k < sz.preloadStmts; k++ {
		if _, err := d.eng.Exec(pre()); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if withView {
		if _, err := d.eng.Exec(ingestView); err != nil {
			return nil, fmt.Errorf("create view: %w", err)
		}
	}
	return d, nil
}

func runIngest(cfg config, rep *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	dataSeed, writeSeed := rng.Int63(), rng.Int63()
	reads := ingestReads(rng)
	sz := sizesFor(cfg.tiny)
	minRounds := 3
	if cfg.tiny {
		minRounds = 2
	}

	var setups, recoveries []time.Duration
	var diskPerRow []float64
	var ws, durableWS writeStats
	var w window
	var cache aggview.Metrics
	tr := newTracer()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	heap := startHeapPeak()
	// The budget is commit time, durable and in-memory.
	round := 0
	for ; round < minRounds || ws.elapsed+durableWS.elapsed < budget; round++ {
		if round%durableEvery == 0 {
			t0 := time.Now()
			d, err := openSales(filepath.Join(cfg.work, fmt.Sprintf("round%d", round)), "sales", dataSeed, sz, true)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0))
			durableWS.merge(commitLoop(d.eng, 0, sz.commits, salesStream(writeSeed, sz.preloadStmts*ingestPreloadRows, rowsPerInsert), rep.tally))
			checkRollups(d, reads, rep.tally)
			dur, err := closeAndRecover([]*db{d}, 1, rep.tally)
			if err != nil {
				return err
			}
			recoveries = append(recoveries, dur.recovery)
			diskPerRow = append(diskPerRow, ratio(float64(dur.bytes), float64(dur.rows)))
			if err := os.RemoveAll(d.dir); err != nil {
				return err
			}
		}

		d, err := openSales("", "sales", dataSeed, sz, true)
		if err != nil {
			return err
		}
		m0 := d.eng.Metrics()
		rws, rw := ingestPhase(d, reads, sz, writeSeed, cfg.trace && round%2 == 1, tr, rep.tally)
		cache = addMetrics(cache, d.eng.Metrics().Sub(m0))
		ws.merge(rws)
		w.merge(rw)
		checkRollups(d, reads, rep.tally)
		d.discard()
	}
	rep.metrics["heap_mb"] = heap.Stop()
	rep.metrics["setup_s"] = medianDur(setups).Seconds()
	rep.metrics["recovery_s"] = medianDur(recoveries).Seconds()
	// Every durable round stores the same rows in the same bytes. The
	// durable engines use the default checkpoint policy.
	rep.metrics["disk_bytes_per_row"] = diskPerRow[0]
	rep.details["rounds"] = round
	rep.details["durable_rounds"] = len(setups)
	reportWrites(rep, ws)
	rep.details["durable_commits"] = figuresOf(durableWS.commits)
	reportReads(rep, w)
	reportPlanCache(rep, cache)
	rep.metrics["datagen.load_s"] = 0

	if cfg.trace {
		if err := ingestLayers(cfg, rep, tr, dataSeed, writeSeed, reads, sz); err != nil {
			return err
		}
		rep.details["spans"] = tr.summary()
	}
	return nil
}

// checkRollups checks, outside the timed window, that each rollup is
// answered from the view and equals the same rollup over the base table.
func checkRollups(d *db, reads []string, t *tally) {
	for c, q := range reads[:3] {
		got, err := d.eng.Query(context.Background(), q)
		if !t.check(err == nil, "rollup %d: %v", c, err) {
			continue
		}
		want, err := d.eng.Query(context.Background(), q, aggview.WithoutViewRewrite())
		if !t.check(err == nil, "rollup %d without rewrite: %v", c, err) {
			continue
		}
		t.check(got.Plan.ViewRewrite != "", "rollup %d was not answered from the view", c)
		t.check(bagDigest(got.Rows) == bagDigest(want.Rows), "rollup %d: view rewrite differs from the base table", c)
	}
}

// ingestPhase commits one round's writes on d while one reader runs the
// rollups in a closed loop beside them, and returns both sides' figures.
func ingestPhase(d *db, reads []string, sz ingestSizes, writeSeed int64, traced bool, tr *tracer, t *tally) (writeStats, window) {
	runtime.GC()
	var done atomic.Bool
	var rw window
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rw = runClients(1, traced, done.Load, func(_, i int, traced bool) (queryObs, bool) {
			c := i % len(reads)
			req := tr.request()
			t0 := time.Now()
			res, err := d.eng.Query(context.Background(), reads[c])
			lat := time.Since(t0)
			if !t.check(err == nil, "read %d: %v", c, err) {
				return queryObs{}, false
			}
			if traced {
				tr.add(req, "Engine.Query", "", t0, lat)
			}
			return queryObs{class: c, lat: lat, io: res.IO, rewrite: res.Plan.ViewRewrite != ""}, true
		})
	}()
	ws := commitLoop(d.eng, 0, sz.commits, salesStream(writeSeed, sz.preloadStmts*ingestPreloadRows, rowsPerInsert), t)
	done.Store(true)
	wg.Wait()
	return ws, rw
}

// ingestLayers runs the per-layer probes. A probe round without a reader
// is committed on twin engines with and without the view; the difference
// of their median commit times is what maintaining the view costs.
func ingestLayers(cfg config, rep *report, tr *tracer, dataSeed, writeSeed int64, reads []string, sz ingestSizes) error {
	first := sz.preloadStmts * ingestPreloadRows
	var med [2]time.Duration
	var probeDB *db
	for i, withView := range []bool{true, false} {
		d, err := openSales(filepath.Join(cfg.work, "twin"), fmt.Sprintf("view-%v", withView), dataSeed, sz, withView)
		if err != nil {
			return err
		}
		ws := commitLoop(d.eng, 0, sz.commits, salesStream(writeSeed, first, rowsPerInsert), rep.tally)
		med[i] = medianDur(ws.commits)
		if withView {
			probeDB = d
		} else {
			d.discard()
		}
	}
	defer probeDB.discard()
	rep.metrics["matview.maintain_us_per_commit"] = us(med[0] - med[1])

	// The replica holds the same rows as the probe engine; it has no view,
	// so its optimizer timings are those of the base-table plans.
	r := newReplica(0)
	cols := []schema.Column{
		{ID: schema.ColID{Name: "id"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "region"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "product"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "qty"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "amount"}, Type: types.KindFloat},
	}
	r.cat.BeginWrite()
	t, err := r.cat.CreateTable("sales", cols, nil, nil)
	if err != nil {
		r.cat.Discard()
		return err
	}
	pre, post := rand.New(rand.NewSource(dataSeed)), rand.New(rand.NewSource(writeSeed))
	for k := 0; k < first+ingestRowsWritten(sz); k++ {
		src := pre
		if k >= first {
			src = post
		}
		if err := r.cat.Insert(t, salesRow(src, k)); err != nil {
			r.cat.Discard()
			return err
		}
	}
	r.cat.Publish()

	var probes []probeStmt
	for c, q := range reads {
		probes = append(probes, probeStmt{eng: probeDB.eng, sql: q, group: fmt.Sprintf("read%d", c),
			cat: r.cat.Snapshot(), opts: engineOptions(probeDB.cfg)})
	}
	if err := probeFrontEnd(rep, tr, probes, 5); err != nil {
		return err
	}
	if err := probeExec(rep, tr, probes, 2); err != nil {
		return err
	}
	groups, err := measureTradFull(probes)
	if err != nil {
		return err
	}
	tradOverFull(rep, groups)
	if err := probeScan(rep, []*replica{r}, 3); err != nil {
		return err
	}
	row := func() func(int) types.Row {
		lr := rand.New(rand.NewSource(writeSeed))
		return func(k int) types.Row { return salesRow(lr, first+k) }
	}
	if err := probeWAL(rep, cfg.work, "sales", 500, rowsPerInsert, row()); err != nil {
		return err
	}
	return probePublish(rep, r, "sales", 300, rowsPerInsert, row())
}

// ingestRowsWritten is the number of rows one round's commits insert.
func ingestRowsWritten(sz ingestSizes) int {
	txns := sz.commits / txnEvery
	return (sz.commits - txns + txns*txnStatements) * rowsPerInsert
}
