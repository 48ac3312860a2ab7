package aggview_test

import (
	"fmt"
	"testing"

	"aggview"
)

// Key-encoding regressions, end to end. Every hashing operator keys rows
// by types.AppendKey, which must agree with SQL equality: the INTs 2^53
// and 2^53+1 share a float64 but are different numbers, while -0.0 and
// 0.0 are the same number. The block-NL and index-NL joins are pinned at
// the executor level (internal/exec), where the join method can be forced.

const (
	big0 = "9007199254740992" // 2^53
	big1 = "9007199254740993" // 2^53 + 1
)

func keyEncodingEngine(t *testing.T) *aggview.Engine {
	t.Helper()
	e := aggview.Open(aggview.Config{PoolPages: 16})
	e.MustExec(`create table big (k int, v int)`)
	e.MustExec(`insert into big values (` + big0 + `, 1), (` + big1 + `, 2)`)
	e.MustExec(`create table zero (x float, v int)`)
	e.MustExec(`insert into zero values (0.0, 1), (-0.0, 2)`)
	e.MustExec(`analyze`)
	return e
}

// queryRows runs q in every optimizer mode and returns the sorted rows,
// failing if the modes disagree.
func queryRows(t *testing.T, e *aggview.Engine, q string) []string {
	t.Helper()
	var first []string
	for _, m := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full} {
		res, err := e.Query(ctx(), q, aggview.WithMode(m))
		if err != nil {
			t.Fatalf("%s (%v): %v", q, m, err)
		}
		got := sortedRows(res)
		if first == nil {
			first = got
		} else if !equalRows(first, got) {
			t.Fatalf("%s: mode %v returned %v, want %v", q, m, got, first)
		}
	}
	return first
}

func TestKeyEncodingGroupBy(t *testing.T) {
	e := keyEncodingEngine(t)
	for q, want := range map[string][]string{
		`select k, count(*) from big group by k`: {big0 + "|1", big1 + "|1"},
		`select count(*) from zero group by x`:   {"2"},
	} {
		if got := queryRows(t, e, q); !equalRows(got, want) {
			t.Errorf("%s = %v, want %v", q, got, want)
		}
	}
}

func TestKeyEncodingSelfJoin(t *testing.T) {
	e := keyEncodingEngine(t)
	for q, want := range map[string][]string{
		`select a.v, b.v from big a, big b where a.k = b.k`:   {"1|1", "2|2"},
		`select a.v, b.v from zero a, zero b where a.x = b.x`: {"1|1", "1|2", "2|1", "2|2"},
		`select v from zero where x = 0.0`:                    {"1", "2"},
	} {
		if got := queryRows(t, e, q); !equalRows(got, want) {
			t.Errorf("%s = %v, want %v", q, got, want)
		}
	}
}

// TestKeyEncodingMatViewCoalescing keeps the two big keys apart (and the
// two zeros together) through a materialized view: the incremental delta
// groups rows by key, and the view-backed query coalesces the stored
// partial rows by key.
func TestKeyEncodingMatViewCoalescing(t *testing.T) {
	e := keyEncodingEngine(t)
	// Filler rows in a few small groups make the views far cheaper to read
	// than their base tables, so the cost-based rewrite picks them.
	for i := 0; i < 40; i++ {
		var vals string
		for j := 0; j < 50; j++ {
			if j > 0 {
				vals += ", "
			}
			vals += fmt.Sprintf("(%d, %d)", j%5+1, i)
		}
		e.MustExec(`insert into big values ` + vals)
		e.MustExec(`insert into zero values ` + vals)
	}
	e.MustExec(`analyze`)
	e.MustExec(`create materialized view big_sums as select k, sum(v) as s, count(*) as n from big group by k`)
	e.MustExec(`create materialized view zero_sums as select x, sum(v) as s from zero group by x`)
	// One statement carries both keys, so one delta groups them.
	e.MustExec(`insert into big values (` + big1 + `, 10), (` + big0 + `, 20)`)
	e.MustExec(`insert into zero values (-0.0, 10), (0.0, 20)`)
	for _, tc := range []struct {
		q, view string
		want    []string
	}{
		{`select k, sum(v) as s, count(*) as n from big where k > 100 group by k`, "big_sums", []string{big0 + "|21|2", big1 + "|12|2"}},
		{`select sum(v) as s from zero where x < 0.5 group by x`, "zero_sums", []string{"33"}},
	} {
		res, err := e.Query(ctx(), tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.ViewRewrite != tc.view {
			t.Fatalf("%s: rewrite used %q, want %q\n%s", tc.q, res.Plan.ViewRewrite, tc.view, res.Plan.PlanText)
		}
		if got := sortedRows(res); !equalRows(got, tc.want) {
			t.Errorf("%s via %s = %v, want %v", tc.q, tc.view, got, tc.want)
		}
		base, err := e.Query(ctx(), tc.q, aggview.WithoutViewRewrite())
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedRows(base); !equalRows(got, tc.want) {
			t.Errorf("%s from base = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := fmt.Sprint(queryRows(t, e, `select k from big where k = `+big1)); got != fmt.Sprint([]string{big1, big1}) {
		t.Errorf("point lookup of 2^53+1 = %s", got)
	}
}
