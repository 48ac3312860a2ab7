package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/obs"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// Block nested-loops tests: the hashed block probe must return the bag the
// naive oracle and the hash join return, over the key shapes where hashing
// can go wrong (NULL, duplicate, multi-column and mixed INT/FLOAT keys, INTs
// beyond 2^53, -0.0), and must leave the page IO of the paper's plans
// exactly where comparing every pair puts it.

// keyEnv holds two tables whose join keys cover the awkward cases:
//
//	l(id INT, k INT, kf FLOAT, s FLOAT)  600 rows, the block (outer) side
//	r(id INT, k INT, ki INT, b FLOAT)    150 rows, the inner side
type keyEnv struct {
	store *storage.Store
	l, r  *catalog.Table
}

const two53 = 1 << 53

func newKeyEnv(t *testing.T, poolPages int) *keyEnv {
	t.Helper()
	st := storage.NewStore(poolPages)
	c := catalog.New(st)
	mk := func(name string, cols ...schema.Column) *catalog.Table {
		tab, err := c.CreateTable(name, cols, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	col := func(name string, k types.Kind) schema.Column {
		return schema.Column{ID: schema.ColID{Name: name}, Type: k}
	}
	l := mk("l", col("id", types.KindInt), col("k", types.KindInt), col("kf", types.KindFloat), col("s", types.KindFloat))
	r := mk("r", col("id", types.KindInt), col("k", types.KindInt), col("ki", types.KindInt), col("b", types.KindFloat))
	rng := rand.New(rand.NewSource(41))
	// Keys are drawn from small domains (so keys repeat on both sides) plus
	// a NULL share and the values a float64-based key would confuse.
	intKey := func(n int, big int64) types.Value {
		switch rng.Intn(10) {
		case 0:
			return types.Null()
		case 1:
			return types.NewInt(big)
		}
		return types.NewInt(int64(rng.Intn(n)))
	}
	floatKey := func() types.Value {
		switch rng.Intn(10) {
		case 0:
			return types.Null()
		case 1:
			return types.NewFloat(two53)
		case 2:
			return types.NewFloat(float64(rng.Intn(20)) + 0.5) // never equals an INT
		case 3:
			return types.NewFloat(math.Copysign(0, -1))
		}
		return types.NewFloat(float64(rng.Intn(20)))
	}
	for i := 0; i < 600; i++ {
		row := types.Row{types.NewInt(int64(i)), intKey(40, two53+1), floatKey(), types.NewFloat(float64(rng.Intn(100)))}
		if err := c.Insert(l, row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		big := int64(two53)
		if i%2 == 0 {
			big = two53 + 1
		}
		row := types.Row{types.NewInt(int64(i)), intKey(50, big), intKey(20, big), types.NewFloat(float64(rng.Intn(100)))}
		if err := c.Insert(r, row); err != nil {
			t.Fatal(err)
		}
	}
	l, _ = c.Table("l")
	r, _ = c.Table("r")
	return &keyEnv{store: st, l: l, r: r}
}

// blockNLKeyJoins are the ON conditions of the differential sweep, by name.
var blockNLKeyJoins = map[string][]expr.Expr{
	"int": {expr.NewCmp(expr.EQ, expr.Col("l", "k"), expr.Col("r", "k"))},
	"multi": {
		expr.NewCmp(expr.EQ, expr.Col("l", "k"), expr.Col("r", "k")),
		expr.NewCmp(expr.EQ, expr.Col("r", "ki"), expr.Col("l", "kf")),
	},
	"mixed": {expr.NewCmp(expr.EQ, expr.Col("l", "kf"), expr.Col("r", "ki"))},
}

// TestBlockNLDifferential sweeps the hashed block-NL join against the
// naive oracle and the hash join, as bags, across key shapes, join types,
// residual conjuncts, base-table and materialized inners, one block and
// many, and batch sizes.
func TestBlockNLDifferential(t *testing.T) {
	for _, pool := range []int{3, 64} {
		e := newKeyEnv(t, pool)
		// Pool 3 leaves the 4096-byte minimum block (many blocks); pool 64
		// holds all of l in one block.
		outerBytes := 0
		sc := e.store.NewScanner(e.l.File)
		for {
			row, _, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			outerBytes += row.DiskWidth()
		}
		budget := max(pool*storage.PageSize-2*4096, 4096)
		if manyBlocks := outerBytes > 4*budget; manyBlocks != (pool == 3) {
			t.Fatalf("pool %d: outer %d bytes vs block budget %d", pool, outerBytes, budget)
		}
		for name, keys := range blockNLKeyJoins {
			for _, jt := range []lplan.JoinType{lplan.JoinInner, lplan.JoinLeft, lplan.JoinFull} {
				for _, residual := range []bool{false, true} {
					for _, materialized := range []bool{false, true} {
						preds := append([]expr.Expr(nil), keys...)
						if residual {
							preds = append(preds, expr.NewCmp(expr.LT, expr.Col("l", "s"), expr.Col("r", "b")))
						}
						var inner lplan.Node = &lplan.Scan{Alias: "r", Table: e.r}
						if materialized {
							inner = &lplan.Filter{In: inner, Preds: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("r", "id"), expr.IntLit(5))}}
						}
						plan := func(m lplan.JoinMethod) *lplan.Join {
							return &lplan.Join{L: &lplan.Scan{Alias: "l", Table: e.l}, R: inner, Type: jt, Preds: preds, Method: m}
						}
						label := fmt.Sprintf("pool=%d/%s/%s/residual=%v/materialized=%v", pool, name, jt, residual, materialized)
						want, err := Naive(e.store, plan(lplan.JoinBlockNL))
						if err != nil {
							t.Fatalf("%s: naive: %v", label, err)
						}
						hash, err := New(e.store).Run(plan(lplan.JoinHash))
						if err != nil {
							t.Fatalf("%s: hash join: %v", label, err)
						}
						if !BagEqual(hash, want) {
							t.Fatalf("%s: hash join %d rows, oracle %d", label, len(hash.Rows), len(want.Rows))
						}
						for _, bs := range []int{1, 7, 1024} {
							got, err := New(e.store).WithBatchSize(bs).Run(plan(lplan.JoinBlockNL))
							if err != nil {
								t.Fatalf("%s/batch=%d: %v", label, bs, err)
							}
							if !BagEqual(got, want) {
								t.Fatalf("%s/batch=%d: block-NL %d rows, oracle %d", label, bs, len(got.Rows), len(want.Rows))
							}
						}
					}
				}
			}
		}
	}
}

// TestBlockNLKeyEncodingRegression pins the join answers a float64-based
// key encoding got wrong: 2^53 and 2^53+1 are distinct INTs (a self-join
// matches each with itself only) while -0.0 and 0.0 are the same number
// (they match each other). Every join method must agree.
func TestBlockNLKeyEncodingRegression(t *testing.T) {
	st := storage.NewStore(16)
	c := catalog.New(st)
	tab, err := c.CreateTable("t", []schema.Column{
		{ID: schema.ColID{Name: "k"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "x"}, Type: types.KindFloat},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []types.Row{
		{types.NewInt(two53), types.NewFloat(0)},
		{types.NewInt(two53 + 1), types.NewFloat(math.Copysign(0, -1))},
	} {
		if err := c.Insert(tab, row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateIndex("t_k", "t", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("t_x", "t", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	tab, _ = c.Table("t")
	for _, tc := range []struct {
		col  string
		want int
	}{{"k", 2}, {"x", 4}} {
		for _, m := range []lplan.JoinMethod{lplan.JoinHash, lplan.JoinBlockNL, lplan.JoinIndexNL, lplan.JoinMerge} {
			j := &lplan.Join{
				L:      &lplan.Scan{Alias: "a", Table: tab},
				R:      &lplan.Scan{Alias: "b", Table: tab},
				Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("a", tc.col), expr.Col("b", tc.col))},
				Method: m,
			}
			res, err := New(st).Run(j)
			if err != nil {
				t.Fatalf("%s join on %s: %v", m, tc.col, err)
			}
			if len(res.Rows) != tc.want {
				t.Errorf("%s self-join on %s: %d rows, want %d", m, tc.col, len(res.Rows), tc.want)
			}
		}
	}
}

// TestBlockNLPaperPlanIO pins the page IO of block-NL joins in the paper's
// Example 1 (both shapes: join with the aggregate view's materialized
// result, and join-then-group with a base-table inner rescanned per block)
// and Figure 5 (a join of two aggregate views with dept and emp). The
// pinned figures were measured comparing every block row with every inner
// row: hashing the block changes CPU work only, never the blocks, rescans
// or spills.
func TestBlockNLPaperPlanIO(t *testing.T) {
	// A 4-page pool leaves 8 KiB blocks, so the age < 30 outer (about
	// 650 employees) spans several blocks and the inner is rescanned.
	e := newEnv(t, 4, 3000, 40)
	avgView := func(in, rel, agg string, kind expr.AggKind) *lplan.GroupBy {
		return &lplan.GroupBy{
			In:        e.scanEmp(in),
			GroupCols: []schema.ColID{{Rel: in, Name: "dno"}},
			Aggs:      []expr.Agg{{Kind: kind, Arg: expr.Col(in, "sal"), Out: schema.ColID{Rel: rel, Name: agg}}},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col(in, "dno"), As: schema.ColID{Rel: rel, Name: "dno"}},
				{E: expr.Col(rel, agg), As: schema.ColID{Rel: rel, Name: agg}},
			},
			Method: lplan.AggHash,
		}
	}
	young := func(alias string) *lplan.Scan {
		s := e.scanEmp(alias)
		s.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col(alias, "age"), expr.IntLit(30))}
		return s
	}
	eq := func(a, b string) expr.Expr {
		return expr.NewCmp(expr.EQ, expr.Col(a, "dno"), expr.Col(b, "dno"))
	}

	// Example 1, shape A: young employees joined with avg salary per dept.
	ex1A := &lplan.Join{
		L:      young("e1"),
		R:      avgView("e2", "b", "asal", expr.AggAvg),
		Preds:  []expr.Expr{eq("e1", "b"), expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal"))},
		Proj:   []schema.ColID{{Rel: "e1", Name: "sal"}},
		Method: lplan.JoinBlockNL,
	}
	// Example 1, shape B: the pulled-up join under the group-by.
	ex1BJoin := &lplan.Join{L: young("e1"), R: e.scanEmp("e2"), Preds: []expr.Expr{eq("e1", "e2")}, Method: lplan.JoinBlockNL}
	ex1B := &lplan.GroupBy{
		In:        ex1BJoin,
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}, {Rel: "e1", Name: "eno"}, {Rel: "e1", Name: "sal"}},
		Aggs:      []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"), Out: schema.ColID{Rel: "b", Name: "asal"}}},
		Having:    []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal"))},
		Outputs:   []lplan.NamedExpr{{E: expr.Col("e1", "sal"), As: schema.ColID{Name: "sal"}}},
		Method:    lplan.AggHash,
	}
	// Figure 5: (b2 ⋈ young e1) ⋈ b1, then ⋈ dept — the traditional plan.
	fig5Inner := &lplan.Join{
		L: &lplan.Join{
			L: avgView("m", "b2", "msal", expr.AggMax), R: young("e1"),
			Preds: []expr.Expr{eq("b2", "e1")}, Method: lplan.JoinHash,
		},
		R:      avgView("a", "b1", "asal", expr.AggAvg),
		Preds:  []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b1", "asal")), eq("b1", "b2")},
		Method: lplan.JoinBlockNL,
	}
	fig5 := &lplan.Join{
		L: fig5Inner, R: e.scanDept("d"), Preds: []expr.Expr{eq("b1", "d")},
		Proj:   []schema.ColID{{Rel: "b1", Name: "asal"}, {Rel: "b2", Name: "msal"}, {Rel: "d", Name: "budget"}},
		Method: lplan.JoinBlockNL,
	}

	// bnlIO is one block-NL join's page IO: its own accesses (inner
	// materialization and spill rescans) and its inner child's reads.
	type bnlIO struct{ Reads, Writes, InnerReads int64 }
	for _, tc := range []struct {
		name  string
		plan  lplan.Node
		bnl   []*lplan.Join
		total storage.IOStats
		ops   []bnlIO
	}{
		{"example1/A", ex1A, []*lplan.Join{ex1A},
			storage.IOStats{Reads: 55, Writes: 1, Hits: 2}, []bnlIO{{1, 1, 0}}},
		{"example1/B", ex1B, []*lplan.Join{ex1BJoin},
			storage.IOStats{Reads: 375, Writes: 267}, []bnlIO{{0, 0, 81}}},
		{"figure5", fig5, []*lplan.Join{fig5Inner, fig5},
			storage.IOStats{Reads: 116, Writes: 34, Hits: 6}, []bnlIO{{1, 1, 0}, {0, 0, 1}}},
	} {
		runBoth(t, e, tc.plan)
		if err := e.store.DropCaches(); err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector()
		kinds := [...]obs.IOKind{storage.OpRead: obs.IORead, storage.OpWrite: obs.IOWrite, storage.OpHit: obs.IOHit}
		sess := e.store.NewSession(func(op storage.IOOp, temp bool) error {
			col.RecordIO(kinds[op], temp)
			return nil
		})
		_, err := New(e.store).WithSession(sess).WithCollector(col).Run(tc.plan)
		sess.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sess.Stats(); got != tc.total {
			t.Errorf("%s: IO = %#v, want %#v", tc.name, got, tc.total)
		}
		got := make([]bnlIO, len(tc.bnl))
		for i, j := range tc.bnl {
			op := col.Op(j)
			got[i] = bnlIO{op.Reads, op.Writes, col.Op(j.R).Reads}
		}
		if !slices.Equal(got, tc.ops) {
			t.Errorf("%s: block-NL IO = %#v, want %#v", tc.name, got, tc.ops)
		}
	}
}

// BenchmarkBlockNLJoin measures the block-NL join probe, reporting ns per
// input row (outer plus inner rows per block): equi joins probe each
// block's key table, non-equi joins try every block row per inner row.
// A 16-page pool splits the 4000-row outer into several blocks.
func BenchmarkBlockNLJoin(b *testing.B) {
	for _, bc := range []struct {
		name       string
		nEmp, nDpt int
		op         expr.CmpOp
	}{
		{"equi", 4000, 400, expr.EQ},
		{"non-equi", 1000, 100, expr.LT},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := newEnv(b, 16, bc.nEmp, bc.nDpt)
			j := &lplan.Join{
				L:      e.scanEmp("e"),
				R:      e.scanDept("d"),
				Preds:  []expr.Expr{expr.NewCmp(bc.op, expr.Col("e", "dno"), expr.Col("d", "dno"))},
				Method: lplan.JoinBlockNL,
			}
			budget := 16*storage.PageSize - 2*4096
			blocks := (bc.nEmp*(4+4*8) + budget - 1) / budget
			rowsIn := bc.nEmp + blocks*bc.nDpt
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(e.store).Run(j); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rowsIn), "ns/row")
		})
	}
}
