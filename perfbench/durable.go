package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"aggview"
)

// db is one engine of a workload together with its data directory ("" for
// an in-memory engine).
type db struct {
	name string
	dir  string
	cfg  aggview.Config
	eng  *aggview.Engine
}

// openDB creates a fresh data directory under parent and opens a durable
// engine on it with the default checkpoint policy.
func openDB(parent, name string, cfg aggview.Config) (*db, error) {
	dir := filepath.Join(parent, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cfg.DataDir = dir
	eng, err := aggview.OpenDurable(cfg)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", name, err)
	}
	return &db{name: name, dir: dir, cfg: cfg, eng: eng}, nil
}

// discard closes the engine and deletes its data directory. Errors are
// dropped: nothing reads the discarded state again, and the run's scratch
// directory is removed on exit anyway.
func (d *db) discard() {
	_ = d.eng.Close()
	_ = os.RemoveAll(d.dir)
}

// writeStats accumulates the write path's latencies. A commit latency is
// one acknowledged write: an auto-commit INSERT, or an explicit
// transaction from Begin to the end of Commit.
type writeStats struct {
	commits   []time.Duration
	elapsed   time.Duration
	beginWait []time.Duration // Begin: waiting for the writer gate
	txnCommit []time.Duration // Commit of an explicit transaction
}

func (w *writeStats) merge(o writeStats) {
	w.commits = append(w.commits, o.commits...)
	w.elapsed += o.elapsed
	w.beginWait = append(w.beginWait, o.beginWait...)
	w.txnCommit = append(w.txnCommit, o.txnCommit...)
}

// txnEvery makes every txnEvery-th commit an explicit transaction of
// txnStatements INSERTs instead of one auto-commit INSERT.
const (
	txnEvery      = 10
	txnStatements = 3
)

// commitLoop acknowledges writes first..first+n-1 of a stream on eng, one
// after another; next returns the following INSERT of the workload's
// seeded stream. Failures count in t and do not stop the loop.
func commitLoop(eng *aggview.Engine, first, n int, next func() string, t *tally) writeStats {
	var ws writeStats
	start := time.Now()
	for i := first; i < first+n; i++ {
		t0 := time.Now()
		if i%txnEvery == txnEvery-1 {
			if err := explicitTxn(eng, next, &ws); !t.check(err == nil, "transaction %d: %v", i, err) {
				continue
			}
		} else {
			_, err := eng.Exec(next())
			if !t.check(err == nil, "insert %d: %v", i, err) {
				continue
			}
		}
		ws.commits = append(ws.commits, time.Since(t0))
	}
	ws.elapsed = time.Since(start)
	return ws
}

// explicitTxn runs one Begin / Exec… / Commit transaction, recording the
// time Begin waited for the writer gate and the time Commit took.
func explicitTxn(eng *aggview.Engine, next func() string, ws *writeStats) error {
	t0 := time.Now()
	tx, err := eng.Begin(context.Background())
	if err != nil {
		return err
	}
	ws.beginWait = append(ws.beginWait, time.Since(t0))
	for s := 0; s < txnStatements; s++ {
		if _, err := tx.Exec(next()); err != nil {
			tx.Rollback()
			return err
		}
	}
	d, err := timed(tx.Commit)
	if err != nil {
		return err
	}
	ws.txnCommit = append(ws.txnCommit, d)
	return nil
}

// stager commits a read workload's writes: a burst of stagerBatches
// commit batches after each slice of the read window, into a staging
// engine of its own that the reads never touch, so the writes change
// neither what the reads return, nor how many pages they read, nor which
// plans stay cached. Each burst starts on a fresh staging engine, so every
// burst times the same thing however long the run is. The staging engine
// is in memory: these commits time the engine's write path (parse, writer
// gate, copy-on-write catalog, publish) without the disk, whose fsync
// median and tail wander by a quarter between runs on a shared host.
type stager struct {
	ddl  string
	next func() string
	size int
	t    *tally
	ws   writeStats
}

// stagerBatches is the number of commit batches in one full-size burst.
const stagerBatches = 5

// openStager checks that the staging table's DDL runs on an in-memory
// engine and returns a stager that commits size writes per burst.
func openStager(ddl string, size int, next func() string, t *tally) (*stager, error) {
	eng, err := stagingEngine(ddl)
	if err != nil {
		return nil, err
	}
	eng.Close()
	return &stager{ddl: ddl, next: next, size: size, t: t}, nil
}

// stagingEngine opens an in-memory engine holding one empty table.
func stagingEngine(ddl string) (*aggview.Engine, error) {
	eng := aggview.Open(aggview.Config{})
	if _, err := eng.Exec(ddl); err != nil {
		eng.Close()
		return nil, fmt.Errorf("staging table: %w", err)
	}
	return eng, nil
}

// burst commits the next size writes of the stream into a fresh staging
// engine, starting from a collected heap so the reads' garbage is not
// charged to the writes.
func (s *stager) burst() {
	eng, err := stagingEngine(s.ddl)
	if !s.t.check(err == nil, "%v", err) {
		return
	}
	defer eng.Close()
	runtime.GC()
	s.ws.merge(commitLoop(eng, len(s.ws.commits), s.size, s.next, s.t))
}

// storedRows counts the rows of every table in the engine, materialized
// view backing tables included: everything the data directory stores.
func storedRows(eng *aggview.Engine) (int64, error) {
	var n int64
	for _, t := range eng.Tables() {
		res, err := eng.Query(context.Background(), "select count(*) from "+t)
		if err != nil {
			return 0, fmt.Errorf("count %s: %w", t, err)
		}
		n += res.Rows[0][0].(int64)
	}
	return n, nil
}

// durability is what closing and reopening a workload's engines measured.
type durability struct {
	bytes    int64
	rows     int64
	recovery time.Duration // sum over the engines of each one's median reopen
}

// closeAndRecover checkpoints and closes each engine, measures its data
// directory, then reopens it `reopens` times and checks that the recovered
// state's fingerprint equals the state before Close. It leaves every
// engine closed.
func closeAndRecover(dbs []*db, reopens int, t *tally) (durability, error) {
	var out durability
	for _, d := range dbs {
		rows, err := storedRows(d.eng)
		if err != nil {
			return out, err
		}
		out.rows += rows
		want := d.eng.StateFingerprint()
		if err := d.eng.Checkpoint(); err != nil {
			return out, fmt.Errorf("checkpoint %s: %w", d.name, err)
		}
		if err := d.eng.Close(); err != nil {
			return out, fmt.Errorf("close %s: %w", d.name, err)
		}
		b, err := dirBytes(d.dir)
		if err != nil {
			return out, err
		}
		out.bytes += b
		var lat []time.Duration
		for i := 0; i < reopens; i++ {
			// The collector is paused while the reopen is timed: a
			// collection there would mark the benchmark's whole heap and
			// charge it to recovery, which a restarted process would not pay.
			runtime.GC()
			gc := debug.SetGCPercent(-1)
			t0 := time.Now()
			eng, err := aggview.OpenDurable(d.cfg)
			lat = append(lat, time.Since(t0))
			debug.SetGCPercent(gc)
			if !t.check(err == nil, "reopen %s: %v", d.name, err) {
				continue
			}
			got := eng.StateFingerprint()
			t.check(got == want, "reopen %s: fingerprint %s, want %s", d.name, got[:12], want[:12])
			if err := eng.Close(); err != nil {
				return out, fmt.Errorf("close %s: %w", d.name, err)
			}
		}
		out.recovery += medianDur(lat)
	}
	return out, nil
}

// commitBatch is the number of consecutive commits the write metrics are
// computed over; each metric is the median over a run's batches, so a
// burst of device or host latency moves one batch, not the result. A
// batch's p99 has ten commits beyond it.
const commitBatch = 1000

// commitFigures are the write metrics of a sequence of commits: per-batch
// throughput and latency quantiles, and their medians over the batches.
type commitFigures struct {
	BatchRate []float64 `json:"batches_per_s"`
	BatchP99  []float64 `json:"batches_p99_ms"`
	Rate      float64   `json:"commits_per_s"`
	P50       float64   `json:"commit_p50_ms"`
	P99       float64   `json:"commit_p99_ms"`
}

func figuresOf(commits []time.Duration) commitFigures {
	var f commitFigures
	var p50 []float64
	for lo := 0; lo < len(commits); lo += commitBatch {
		b := commits[lo:min(lo+commitBatch, len(commits))]
		if len(b) < commitBatch && lo > 0 {
			break // a short last batch would weigh as much as a full one
		}
		var busy time.Duration
		for _, d := range b {
			busy += d
		}
		f.BatchRate = append(f.BatchRate, ratio(float64(len(b)), busy.Seconds()))
		p50 = append(p50, ms(percentile(b, 0.50)))
		f.BatchP99 = append(f.BatchP99, ms(percentile(b, 0.99)))
	}
	f.Rate, f.P50, f.P99 = medianFloat(f.BatchRate), medianFloat(p50), medianFloat(f.BatchP99)
	return f
}

// reportWrites stores the write-path metrics shared by every workload.
func reportWrites(rep *report, ws writeStats) {
	f := figuresOf(ws.commits)
	rep.details["commit_batches_per_s"] = f.BatchRate
	rep.details["commit_batches_p99_ms"] = f.BatchP99
	rep.metrics["commits_per_s"] = f.Rate
	rep.metrics["commit_p50_ms"] = f.P50
	rep.metrics["commit_p99_ms"] = f.P99
	rep.metrics["txn.begin_wait_us"] = us(medianDur(ws.beginWait))
	rep.metrics["txn.commit_us"] = us(medianDur(ws.txnCommit))
	rep.details["commits"] = len(ws.commits)
}

// reportDurability stores the on-disk footprint and restart time.
func reportDurability(rep *report, d durability) {
	rep.metrics["disk_bytes_per_row"] = ratio(float64(d.bytes), float64(d.rows))
	rep.metrics["recovery_s"] = d.recovery.Seconds()
	rep.details["stored_rows"] = d.rows
	rep.details["disk_bytes"] = d.bytes
}
