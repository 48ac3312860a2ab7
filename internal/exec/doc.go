// Package exec is a vectorized Volcano-style executor for lplan trees.
//
// Operators exchange reusable row vectors (Batch) instead of single rows.
// Every operator that exceeds the memory budget spills through the storage
// layer — external sort runs, Grace hash-join partitions, hash-aggregate
// partitions, block-nested-loops inner materialization — so the IO counters
// of the backing store reflect the same trade-offs the cost model
// estimates. The executor exists for two reasons: to machine-check that
// transformed plans are equivalent (the paper's Definition 1 and the
// push-down transformations), and to validate the cost model's shape
// against measured page IO in the experiment harness.
//
// The rest of this comment is the executor contract: what an operator must
// guarantee, and what it may assume of its inputs.
//
// # Operators are batch iterators
//
// Every operator implements BatchIterator:
//
//	Open() error            // acquire resources; may consume inputs (pipeline breakers)
//	NextBatch(*Batch) error // reset and fill the destination batch
//	Close() error           // release resources; idempotent at any lifecycle point
//
// NextBatch resets dst, then fills it with up to the executor's configured
// batch size rows (DefaultBatchSize unless overridden with WithBatchSize).
// End of stream is an empty batch after a nil-error return; NextBatch after
// end of stream keeps returning an empty batch. A returned batch is never
// empty in mid-stream — operators keep pulling their inputs until they
// have at least one row or the stream ends — so consumers need no
// "try again" path. A refilling operator (a selective filter) may overrun
// the target by less than one input batch; consumers must size nothing to
// the target.
//
// # Batch ownership and reuse
//
// The *Batch passed to NextBatch is owned by the caller; the callee resets
// and fills it. The Rows slice is valid only until the caller's next
// NextBatch call on the same operator — operators and cursors reuse the
// vector to keep steady-state allocation at zero (batches come from an
// internal sync.Pool via getBatch/putBatch; Close returns them).
//
// The types.Row values inside a batch are NOT recycled: once emitted, a
// row is immutable and remains valid indefinitely. Downstream operators
// may retain rows (hash tables, sort buffers, group states) without
// copying; nobody may mutate a row after emitting or receiving it. Rows
// read from storage alias buffer-pool page memory, which the storage layer
// likewise never mutates in place.
//
// # The rowIter adapter
//
// Some logic is inherently row- or group-wise: merge join's group
// buffering, sort aggregation's boundary detection, block nested loops
// filling an outer block, and the public Cursor. Those consumers wrap
// their input in a rowIter, which pulls batches underneath and hands out
// one row per Next call at slice-index cost. The adapter is how the
// executor keeps exactly one operator interface (ROADMAP item 5's outer
// joins implement BatchIterator, nothing else) while row-wise consumers
// stay simple. Writing a new operator:
//
//   - vectorize the data path if the operator is per-row stateless
//     (scan/filter/project shape): loop over dst directly;
//   - otherwise keep a row-wise step() and delegate batching to
//     fillFromStep, feeding inputs through rowIter or drainBatches.
//
// # Joins
//
// Hash, block nested-loops and index nested-loops joins match equi-join
// keys by their types.AppendKey encoding, which is byte-equal exactly when
// the keys are types.Equal; merge join compares keys with types.Compare.
// A NULL key matches nothing. Block nested loops fills an outer block up
// to the memory budget and rescans the inner once per block, as the cost
// model prices it. With equi conjuncts it hashes each block on its keys, and
// each inner row probes that table, trying only its candidates in
// ascending block order. The output order and page IO are those of
// comparing every pair, and CPU work is linear in block plus inner rows,
// as internal/cost assumes. Joins with no equi conjunct try every pair.
// LEFT and FULL joins pad unmatched rows after each block (and FULL after
// a final inner rescan), whatever the probe.
//
// # Governance and metering at batch boundaries
//
// The Cursor ticks the governor once per batch (govern.TickRows), not once
// per row; when a batch crosses the row limit, the allowed prefix is still
// delivered and the limit error surfaces on the pull after the last
// permitted row — observably identical to row-at-a-time enforcement.
// Cancellation is polled at batch boundaries and, independently, at page
// granularity inside the storage layer via the session IO hook, so even a
// fully cached query notices cancellation mid-batch. The metering wrapper
// (meteredIter) opens one attribution frame and one clock pair per
// NextBatch; obs.OpStats.RowsOut stays an exact row count (the sum of
// batch lengths) while NextCalls counts batch pulls.
//
// Batch size must never change results, page IO, or spill counts — only
// call granularity. The differential harness (TestConcurrentBatchDifferential
// at the repository root) runs every workload at batch size 1 against the
// default and asserts identical rows, IOStats, and spill counters across
// all optimizer modes.
package exec
