package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/types"
)

// The crossover workload runs the paper's own queries at sizes where the
// data far exceeds the buffer pool, so the plan the optimizer picks decides
// the page IO: Example 1 (a correlated aggregate subquery the Full
// optimizer may pull up), Example 2 (a group-by the greedy conservative
// heuristic pushes below the join, System R join repertoire), and
// Figure 5 (a join of two aggregate views). One client runs them in the
// default Full mode with the pool dropped before every query, each shape
// on crossCopies databases generated from different seeds.

const (
	crossEx1Pool  = 8
	crossEx2Pool  = 16
	crossFig5Pool = 8
)

// crossShape is one of the paper's query shapes with its engine.
type crossShape struct {
	name      string
	cfg       aggview.Config
	emp, dept int
	tinyEmp   int
	tinyDept  int
	// classes are the shape's literal settings (age or budget cuts); each
	// class has one plan, so pages per query are exact per class.
	classes []string
	text    func(class string, salFloor string) string
}

// Every statement also carries a fresh salary floor below the generator's
// minimum salary (30000): it removes no rows and does not move the
// optimizer's estimates, but makes each statement's text unique, so every
// one is parsed, bound and optimized instead of hitting the plan cache.
var crossShapes = []crossShape{
	{
		name: "example1", cfg: aggview.Config{PoolPages: crossEx1Pool},
		emp: 8000, dept: 4000, tinyEmp: 800, tinyDept: 400,
		classes: []string{"19", "20", "21"},
		text: func(age, floor string) string {
			return `select e1.sal from emp e1 where e1.age < ` + age + ` and e1.sal > ` + floor +
				` and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`
		},
	},
	{
		name: "example2", cfg: aggview.Config{PoolPages: crossEx2Pool, SystemRJoins: true},
		emp: 20000, dept: 2000, tinyEmp: 2000, tinyDept: 200,
		// Budget cuts at 30%, 60% and 90% of the generator's budget range.
		classes: []string{"370000", "640000", "910000"},
		text: func(budget, floor string) string {
			return `select e.dno, avg(e.sal) from emp e, dept d where e.dno = d.dno and d.budget < ` + budget +
				` and e.sal > ` + floor + ` group by e.dno`
		},
	},
	{
		name: "figure5", cfg: aggview.Config{PoolPages: crossFig5Pool},
		emp: 6000, dept: 2000, tinyEmp: 600, tinyDept: 200,
		classes: []string{"19", "20", "21"},
		text: func(age, floor string) string {
			return `select b1.asal, b2.msal, d.budget
				from (select dno, avg(sal) as asal from emp group by dno) b1,
				     (select dno, max(sal) as msal from emp group by dno) b2,
				     dept d, emp e1
				where b1.dno = d.dno and b2.dno = d.dno and e1.dno = d.dno
				  and e1.age < ` + age + ` and e1.sal > ` + floor + ` and e1.sal > b1.asal`
		},
	},
}

// crossStaging is the staging table the workload's writes go to: new
// hires awaiting approval, shaped like emp.
const crossStaging = `create table hires (eno int, dno int, sal float, age int)`

// crossRef is the set-up reference for one (shape, class) cell.
type crossRef struct {
	want      digest // Traditional's result bag
	tradPages int64  // reads + writes, cold
	fullPages int64
	text      string
}

func (s crossShape) spec(tiny bool, seed int64) aggview.EmpDeptSpec {
	spec := aggview.DefaultEmpDept()
	spec.Seed = seed
	spec.Employees, spec.Departments = s.emp, s.dept
	if tiny {
		spec.Employees, spec.Departments = s.tinyEmp, s.tinyDept
	}
	return spec
}

// crossCopies is the number of databases each shape runs on, each
// generated from its own seed. Which plan a (shape, class) cell gets, and
// how much work it does, moves with the data: on one database per shape,
// Figure 5's slowest cell took 22 ms under one seed and 29 ms under
// another, and every run carried its seed's draw in every figure.
const crossCopies = 4

func runCrossover(cfg config, rep *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	// Database j holds shape j%len(crossShapes), copy j/len(crossShapes).
	nShapes := len(crossShapes)
	dataSeeds := make([]int64, nShapes*crossCopies)
	for i := range dataSeeds {
		dataSeeds[i] = rng.Int63()
	}
	// Each shape visits its classes in a seeded order; floors count up from
	// a seeded start so no two statements of a run share a text.
	order := make([][]int, len(crossShapes))
	for i := range order {
		order[i] = rng.Perm(3)
	}
	floorBase := rng.Intn(100000)

	// Set-up: build and load the durable engines, several times; the last
	// build is the one measured.
	reps, burst, reopens := 5, stagerBatches*commitBatch, 11
	if cfg.tiny {
		reps, burst, reopens = 2, 6, 2
	}
	var dbs []*db
	var setups []time.Duration
	for r := 0; r < reps; r++ {
		for _, d := range dbs {
			d.discard()
		}
		dbs = dbs[:0]
		t0 := time.Now()
		for j, seed := range dataSeeds {
			s := crossShapes[j%nShapes]
			d, err := openDB(filepath.Join(cfg.work, fmt.Sprintf("setup%d", r)), fmt.Sprintf("%s-%d", s.name, j/nShapes), s.cfg)
			if err != nil {
				return err
			}
			dbs = append(dbs, d)
			if err := d.eng.LoadEmpDept(s.spec(cfg.tiny, seed)); err != nil {
				return fmt.Errorf("load %s: %w", d.name, err)
			}
		}
		setups = append(setups, time.Since(t0))
	}
	rep.metrics["setup_s"] = medianDur(setups).Seconds()

	// References, outside the timed window: each cell's statement under
	// Traditional and Full, cold. Full must return Traditional's bag and
	// must not be estimated costlier (the paper's never-worse guarantee).
	refs := make([][]crossRef, len(dbs))
	for i, d := range dbs {
		s := crossShapes[i%nShapes]
		for c, class := range s.classes {
			text := s.text(class, fmt.Sprintf("%d", 28000+c))
			var res [2]*aggview.Result
			for m, mode := range []aggview.OptimizerMode{aggview.Traditional, aggview.Full} {
				r, err := d.eng.Query(context.Background(), text, aggview.WithMode(mode), aggview.WithColdCache())
				if err != nil {
					return fmt.Errorf("%s reference (%v): %w", d.name, mode, err)
				}
				res[m] = r
			}
			trad, full := bagDigest(res[0].Rows), bagDigest(res[1].Rows)
			rep.tally.check(trad == full, "%s %s: Full returned %d rows, Traditional %d (or different values)",
				d.name, class, full.rows, trad.rows)
			rep.tally.check(res[1].Plan.EstimatedCost <= res[0].Plan.EstimatedCost*(1+1e-9),
				"%s %s: Full estimated cost %.1f above Traditional's %.1f",
				d.name, class, res[1].Plan.EstimatedCost, res[0].Plan.EstimatedCost)
			refs[i] = append(refs[i], crossRef{want: trad, text: text,
				tradPages: res[0].IO.Total(), fullPages: res[1].IO.Total()})
		}
	}

	engs := make([]*aggview.Engine, len(dbs))
	for i, d := range dbs {
		engs[i] = d.eng
	}
	spec := crossShapes[0].spec(cfg.tiny, 0)
	hr := rand.New(rand.NewSource(dataSeeds[0] + 1))
	stage, err := openStager(crossStaging, burst,
		insertStream("hires", rowsPerInsert, func(k int) types.Row { return empRow(hr, spec, k) }), rep.tally)
	if err != nil {
		return err
	}

	tr := newTracer()
	var seq atomic.Int64
	op := func(_, _ int, traced bool) (queryObs, bool) {
		// Statement i goes to shape i%nShapes; each shape cycles through
		// its classes, and after every class through the next copy.
		i := int(seq.Add(1) - 1)
		si := i % nShapes
		c := order[si][(i/nShapes)%3]
		j := (i/(3*nShapes))%crossCopies*nShapes + si
		s := crossShapes[si]
		floor := fmt.Sprintf("%d.%02d", 29000+(floorBase+i)%100000/100, (floorBase+i)%100)
		text := s.text(s.classes[c], floor)
		req := tr.request()
		t0 := time.Now()
		res, err := dbs[j].eng.Query(context.Background(), text, aggview.WithColdCache())
		lat := time.Since(t0)
		if !rep.tally.check(err == nil, "%s: %v", s.name, err) {
			return queryObs{}, false
		}
		t1 := time.Now()
		got := bagDigest(res.Rows)
		rep.tally.check(got == refs[j][c].want, "%s class %s: %d rows differ from the reference's %d",
			dbs[j].name, s.classes[c], got.rows, refs[j][c].want.rows)
		if traced {
			tr.add(req, "Engine.Query", "request", t0, lat)
			tr.add(req, "check", "request", t1, time.Since(t1))
			tr.add(req, "request", "", t0, time.Since(t0))
		}
		return queryObs{class: j*3 + c, lat: lat, io: res.IO}, true
	}

	before := sumMetrics(engs)
	heap := startHeapPeak()
	w := timedWindow(1, time.Duration(cfg.seconds*float64(time.Second)), cfg.trace, op, stage.burst)
	rep.metrics["heap_mb"] = heap.Stop()
	reportPlanCache(rep, sumMetrics(engs).Sub(before))

	// Pages per query is the mean over the (database, class) cells of the
	// cell's pages per query: each cell has one plan, so the figure is
	// exact for a seed no matter how many statements the window completed.
	cells := make([]struct{ pages, n int64 }, len(dbs)*3)
	for _, o := range w.obs {
		cells[o.class].pages += pagesOf(o.io)
		cells[o.class].n++
	}
	var per []float64
	for _, c := range cells {
		if c.n > 0 {
			per = append(per, float64(c.pages)/float64(c.n))
		}
	}
	rep.details["cell_pages_per_query"] = per
	rep.metrics["pages_read_per_query"] = mean(per)
	reportReads(rep, w)

	groups := map[string][2]float64{}
	shapeRefs := map[string]any{}
	for i, rs := range refs {
		g := groups[crossShapes[i%nShapes].name]
		for _, r := range rs {
			g[0] += float64(r.tradPages)
			g[1] += float64(r.fullPages)
		}
		groups[crossShapes[i%nShapes].name] = g
	}
	for name, g := range groups {
		shapeRefs[name] = map[string]float64{"traditional_pages": g[0] / (3 * crossCopies), "full_pages": g[1] / (3 * crossCopies)}
	}
	rep.details["shapes"] = shapeRefs
	tradOverFull(rep, groups)

	if cfg.trace {
		// The probes use each shape's first database.
		if err := crossLayers(cfg, rep, tr, dbs[:nShapes], refs[:nShapes], dataSeeds[:nShapes]); err != nil {
			return err
		}
		rep.details["spans"] = tr.summary()
	}

	reportWrites(rep, stage.ws)
	dur, err := closeAndRecover(dbs, reopens, rep.tally)
	if err != nil {
		return err
	}
	reportDurability(rep, dur)
	rep.metrics["matview.maintain_us_per_commit"] = 0
	return nil
}

// rowsPerInsert is the number of VALUES rows in every benchmark INSERT.
const rowsPerInsert = 4

// empRow generates the k-th new emp row after the loaded ones.
func empRow(r *rand.Rand, spec aggview.EmpDeptSpec, k int) types.Row {
	return types.Row{
		types.NewInt(int64(spec.Employees + k)),
		types.NewInt(int64(r.Intn(spec.Departments))),
		types.NewFloat(float64(int64((spec.SalaryMin+r.Float64()*spec.SalarySpan)*100)) / 100),
		types.NewInt(int64(spec.AgeMin + r.Intn(spec.AgeMax-spec.AgeMin))),
	}
}

// valuesSQL renders rows as an INSERT statement.
func valuesSQL(table string, rows []types.Row) string {
	var b strings.Builder
	b.WriteString("insert into ")
	b.WriteString(table)
	b.WriteString(" values ")
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			if v.K == types.KindFloat {
				b.WriteString(strconv.FormatFloat(v.F, 'f', -1, 64))
			} else {
				b.WriteString(v.String())
			}
		}
		b.WriteByte(')')
	}
	return b.String()
}

// insertStream returns a generator of INSERT statements of rowsPer rows
// each into table; row(k) makes the k-th row of the stream.
func insertStream(table string, rowsPer int, row func(k int) types.Row) func() string {
	k := 0
	return func() string {
		rows := make([]types.Row, rowsPer)
		for j := range rows {
			rows[j] = row(k)
			k++
		}
		return valuesSQL(table, rows)
	}
}

// sumMetrics adds up the engines' counters.
func sumMetrics(engs []*aggview.Engine) aggview.Metrics {
	var m aggview.Metrics
	for _, e := range engs {
		m = addMetrics(m, e.Metrics())
	}
	return m
}

// crossLayers runs the per-layer probes on the paper's statements: one
// statement per (shape, class) cell.
func crossLayers(cfg config, rep *report, tr *tracer, dbs []*db, refs [][]crossRef, dataSeeds []int64) error {
	var stmts []probeStmt
	var reps []*replica
	var load time.Duration
	for i, s := range crossShapes {
		r := newReplica(s.cfg.PoolPages)
		d, err := timed(func() error { return datagen.LoadEmpDept(r.cat, s.spec(cfg.tiny, dataSeeds[i])) })
		if err != nil {
			return err
		}
		load += d
		reps = append(reps, r)
		for _, ref := range refs[i] {
			stmts = append(stmts, probeStmt{eng: dbs[i].eng, sql: ref.text, group: s.name,
				cat: r.cat.Snapshot(), opts: engineOptions(s.cfg)})
		}
	}
	rep.metrics["datagen.load_s"] = load.Seconds()
	if err := probeFrontEnd(rep, tr, stmts, 5); err != nil {
		return err
	}
	if err := probeExec(rep, tr, stmts, 2); err != nil {
		return err
	}
	if err := probeScan(rep, reps, 3); err != nil {
		return err
	}
	row := func(r *rand.Rand, spec aggview.EmpDeptSpec) func(int) types.Row {
		return func(k int) types.Row { return empRow(r, spec, k) }
	}
	spec := crossShapes[0].spec(cfg.tiny, 0)
	if err := probeWAL(rep, cfg.work, "emp", 500, rowsPerInsert, row(rand.New(rand.NewSource(cfg.seed)), spec)); err != nil {
		return err
	}
	return probePublish(rep, reps[0], "emp", 300, rowsPerInsert, row(rand.New(rand.NewSource(cfg.seed)), spec))
}
