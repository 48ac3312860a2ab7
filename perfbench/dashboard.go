package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/sql"
	"aggview/internal/types"
)

// The dashboard workload is the warehouse aggregate-view suite on a pool
// large enough to hold the data (16 latch shards), from two clients that
// repeat the same statement texts. After the first run of each text every
// query is a plan-cache hit and a buffer-pool hit, so the executor and the
// pool's latches do nearly all the work: the opposite of crossover for
// both the optimizer and the pool.

const (
	dashPool      = 512
	dashLineitems = 15000
	dashClients   = 2
)

var dashViews = []string{
	`create view part_qty (partkey, aqty) as select partkey, avg(qty) from lineitem group by partkey`,
	`create view order_value (orderkey, value) as select orderkey, sum(price) from lineitem group by orderkey`,
}

// dashTemplate is one dashboard query; each run draws three literal
// variants of it from the seed, from a narrow range so every seed does
// about the same work.
type dashTemplate struct {
	name string
	text func(lit int) string
	lits [3]int // candidate literals
}

var dashTemplates = []dashTemplate{
	{"view-join-filter", func(b int) string {
		return fmt.Sprintf(`select p.brand, l.qty from lineitem l, part p, part_qty v
			where l.partkey = p.partkey and v.partkey = p.partkey and p.brand < %d and l.qty < v.aqty`, b)
	}, [3]int{4, 5, 6}},
	{"two-views-join", func(q int) string {
		return fmt.Sprintf(`select v.aqty, o.value from part_qty v, order_value o, lineitem l
			where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > %d`, q)
	}, [3]int{44, 45, 46}},
	{"grouped-having-over-view", func(h int) string {
		return fmt.Sprintf(`select p.brand, max(v.aqty) from part p, part_qty v
			where v.partkey = p.partkey group by p.brand having max(v.aqty) > %d`, h)
	}, [3]int{9, 10, 11}},
	// Ties on the count are broken by nation so the top 3 is one bag.
	{"nation-top3", func(t int) string {
		return fmt.Sprintf(`select c.nation, count(*) as n from customer c, orders o
			where o.custkey = c.custkey and o.total > %d group by c.nation order by 2 desc, 1 limit 3`, t)
	}, [3]int{1000, 1500, 2000}},
}

// dashStaging is the staging table the workload's writes go to, shaped
// like lineitem.
const dashStaging = `create table lineitem_staging (lineid int, orderkey int, partkey int,
	suppkey int, qty float, price float, discount float)`

type dashStmt struct {
	template int
	text     string
	want     digest
}

func dashSpec(tiny bool, seed int64) aggview.TPCDSpec {
	spec := aggview.DefaultTPCD()
	spec.Seed = seed
	spec.Lineitems = dashLineitems
	if tiny {
		spec.Lineitems = 1500
	}
	return spec
}

func runDashboard(cfg config, rep *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	dataSeed := rng.Int63()
	var stmts []dashStmt
	for ti, t := range dashTemplates {
		for v := 0; v < 3; v++ {
			stmts = append(stmts, dashStmt{template: ti, text: t.text(t.lits[rng.Intn(3)])})
		}
	}
	order := rng.Perm(len(stmts))

	reps, burst, reopens := 7, stagerBatches*commitBatch, 31
	if cfg.tiny {
		reps, burst, reopens = 2, 6, 2
	}
	var d *db
	var setups []time.Duration
	for r := 0; r < reps; r++ {
		if d != nil {
			d.discard()
		}
		t0 := time.Now()
		var err error
		d, err = openDB(filepath.Join(cfg.work, fmt.Sprintf("setup%d", r)), "warehouse", aggview.Config{PoolPages: dashPool})
		if err != nil {
			return err
		}
		if err := d.eng.LoadTPCD(dashSpec(cfg.tiny, dataSeed)); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		for _, v := range dashViews {
			if _, err := d.eng.Exec(v); err != nil {
				return fmt.Errorf("set-up DDL: %w", err)
			}
		}
		// Warm-up: every text twice, so the plan cache and the pool hold
		// what the window needs.
		for pass := 0; pass < 2; pass++ {
			for _, s := range stmts {
				if _, err := d.eng.Query(context.Background(), s.text); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		setups = append(setups, time.Since(t0))
	}
	rep.metrics["setup_s"] = medianDur(setups).Seconds()

	// References, outside the timed window: row-at-a-time execution with
	// the materialized-view rewrite off.
	refEng := d.eng.WithConfig(aggview.Config{BatchSize: 1})
	for i := range stmts {
		res, err := refEng.Query(context.Background(), stmts[i].text, aggview.WithoutViewRewrite())
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		stmts[i].want = bagDigest(res.Rows)
	}

	spec := dashSpec(cfg.tiny, 0)
	lr := rand.New(rand.NewSource(dataSeed + 1))
	stage, err := openStager(dashStaging, burst,
		insertStream("lineitem_staging", rowsPerInsert, func(k int) types.Row { return lineitemRow(lr, spec, k) }), rep.tally)
	if err != nil {
		return err
	}

	tr := newTracer()
	op := func(c, i int, traced bool) (queryObs, bool) {
		s := stmts[order[(c*len(stmts)/dashClients+i)%len(stmts)]]
		req := tr.request()
		t0 := time.Now()
		res, err := d.eng.Query(context.Background(), s.text)
		lat := time.Since(t0)
		if !rep.tally.check(err == nil, "%s: %v", dashTemplates[s.template].name, err) {
			return queryObs{}, false
		}
		t1 := time.Now()
		got := bagDigest(res.Rows)
		rep.tally.check(got == s.want, "%s: %d rows differ from the reference's %d",
			dashTemplates[s.template].name, got.rows, s.want.rows)
		if traced {
			tr.add(req, "Engine.Query", "request", t0, lat)
			tr.add(req, "check", "request", t1, time.Since(t1))
			tr.add(req, "request", "", t0, time.Since(t0))
		}
		return queryObs{class: s.template, lat: lat, io: res.IO}, true
	}
	before := d.eng.Metrics()
	heap := startHeapPeak()
	w := timedWindow(dashClients, time.Duration(cfg.seconds*float64(time.Second)), cfg.trace, op, stage.burst)
	rep.metrics["heap_mb"] = heap.Stop()
	reportPlanCache(rep, d.eng.Metrics().Sub(before))
	reportReads(rep, w)

	if cfg.trace {
		if err := dashLayers(cfg, rep, tr, d, stmts, dataSeed); err != nil {
			return err
		}
		rep.details["spans"] = tr.summary()
	}

	reportWrites(rep, stage.ws)
	dur, err := closeAndRecover([]*db{d}, reopens, rep.tally)
	if err != nil {
		return err
	}
	reportDurability(rep, dur)
	rep.metrics["matview.maintain_us_per_commit"] = 0
	return nil
}

// lineitemRow generates the k-th new lineitem after the loaded ones, with
// keys inside the generator's ranges.
func lineitemRow(r *rand.Rand, spec aggview.TPCDSpec, k int) types.Row {
	n := spec.Lineitems
	return types.Row{
		types.NewInt(int64(n + k)),
		types.NewInt(int64(r.Intn(max(n/4, 1)))),
		types.NewInt(int64(r.Intn(max(n/5, 1)))),
		types.NewInt(int64(r.Intn(max(n/100, 1)))),
		types.NewFloat(float64(1 + r.Intn(50))),
		types.NewFloat(float64(int64((900+r.Float64()*1100)*100)) / 100),
		types.NewFloat(float64(r.Intn(11)) / 100),
	}
}

// dashLayers runs the per-layer probes on each distinct dashboard text.
func dashLayers(cfg config, rep *report, tr *tracer, d *db, stmts []dashStmt, dataSeed int64) error {
	r := newReplica(dashPool)
	load, err := timed(func() error { return datagen.LoadTPCD(r.cat, dashSpec(cfg.tiny, dataSeed)) })
	if err != nil {
		return err
	}
	rep.metrics["datagen.load_s"] = load.Seconds()
	for _, v := range dashViews {
		st, err := sql.Parse(v)
		if err != nil {
			return err
		}
		cv := st.(*sql.CreateView)
		if _, err := r.cat.CreateView(cv.Name, cv.Cols, cv.Text); err != nil {
			return err
		}
	}
	var probes []probeStmt
	seen := map[string]bool{}
	for _, s := range stmts {
		if seen[s.text] {
			continue
		}
		seen[s.text] = true
		probes = append(probes, probeStmt{eng: d.eng, sql: s.text, group: dashTemplates[s.template].name,
			cat: r.cat.Snapshot(), opts: engineOptions(d.cfg)})
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
	spec := dashSpec(cfg.tiny, 0)
	row := func() func(int) types.Row {
		lr := rand.New(rand.NewSource(cfg.seed))
		return func(k int) types.Row { return lineitemRow(lr, spec, k) }
	}
	if err := probeWAL(rep, cfg.work, "lineitem", 500, rowsPerInsert, row()); err != nil {
		return err
	}
	return probePublish(rep, r, "lineitem", 300, rowsPerInsert, row())
}
