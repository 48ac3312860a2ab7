package exec

import (
	"fmt"
	"hash/fnv"
	"slices"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// joinCommon holds pieces shared by the join algorithms: the key column
// positions of the equi-join conjuncts on each side, the residual predicate
// compiled against the concatenated schema, and the output projection.
type joinCommon struct {
	lKeys, rKeys []int // equi-join column positions (parallel slices)
	residual     func(types.Row) (bool, error)
	proj         []int     // output projection over concat schema; nil = all
	lWidth       int       // arity of the left input
	rWidth       int       // arity of the right input (for outer-join padding)
	scratch      types.Row // reusable concat buffer for residual evaluation
	arena        rowArena  // backs emitted output rows
}

func (e *Executor) joinCommonOf(j *lplan.Join) (*joinCommon, error) {
	ls, rs := j.L.Schema(), j.R.Schema()
	concat := ls.Concat(rs)
	var residualPreds []expr.Expr
	var lKeys, rKeys []int
	for _, p := range j.Preds {
		lc, rc, ok := expr.EquiJoin(p)
		if ok {
			// Normalize: lc on the left input.
			if !ls.Contains(lc) && ls.Contains(rc) {
				lc, rc = rc, lc
			}
			if ls.Contains(lc) && rs.Contains(rc) {
				li, err := ls.IndexOf(lc)
				if err != nil {
					return nil, err
				}
				ri, err := rs.IndexOf(rc)
				if err != nil {
					return nil, err
				}
				lKeys = append(lKeys, li)
				rKeys = append(rKeys, ri)
				continue
			}
		}
		residualPreds = append(residualPreds, p)
	}
	residual, err := e.compilePreds(residualPreds, concat)
	if err != nil {
		return nil, err
	}
	var proj []int
	if j.Proj != nil {
		proj, err = colIndexes(concat, j.Proj)
		if err != nil {
			return nil, err
		}
	}
	return &joinCommon{
		lKeys: lKeys, rKeys: rKeys,
		residual: residual, proj: proj, lWidth: len(ls), rWidth: len(rs),
		arena: rowArena{rec: &e.arenas},
	}, nil
}

func (e *Executor) buildJoin(j *lplan.Join) (BatchIterator, error) {
	jc, err := e.joinCommonOf(j)
	if err != nil {
		return nil, err
	}
	if j.Type.Outer() {
		switch j.Method {
		case lplan.JoinIndexNL, lplan.JoinMerge:
			// These methods have no null-padding path; Validate rejects such
			// plans, this is defense in depth.
			return nil, fmt.Errorf("exec: %s outer join cannot use method %s", j.Type, j.Method)
		}
	}
	switch j.Method {
	case lplan.JoinHash, lplan.JoinUnset:
		if len(jc.lKeys) == 0 {
			// No equi-join conjunct: degrade to block nested loops.
			return e.buildBlockNL(j, jc)
		}
		l, err := e.build(j.L)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{
			exec: e, jc: jc, target: e.batchSize, joinType: j.Type,
			probeSrc: l, probe: newRowIter(l), buildNode: j.R,
		}, nil
	case lplan.JoinBlockNL:
		return e.buildBlockNL(j, jc)
	case lplan.JoinIndexNL:
		return e.buildIndexNL(j, jc)
	case lplan.JoinMerge:
		if len(jc.lKeys) == 0 {
			return nil, fmt.Errorf("exec: merge join requires an equi-join predicate")
		}
		l, err := e.build(j.L)
		if err != nil {
			return nil, err
		}
		r, err := e.build(j.R)
		if err != nil {
			return nil, err
		}
		return &mergeJoinIter{
			jc: jc, target: e.batchSize,
			l: newRowIter(newSortIter(e, l, jc.lKeys)),
			r: newRowIter(newSortIter(e, r, jc.rKeys)),
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown join method %v", j.Method)
	}
}

// emit applies residual predicates and projection to a joined row pair.
func (jc *joinCommon) emit(l, r types.Row) (types.Row, bool, error) {
	// The concat row only feeds the residual predicate and the projection
	// copy below, so it lives in a reusable scratch buffer; the emitted row
	// is always a fresh arena carve and never aliases it.
	jc.scratch = append(append(jc.scratch[:0], l...), r...)
	ok, err := jc.residual(jc.scratch)
	if err != nil || !ok {
		return nil, false, err
	}
	if jc.proj == nil {
		out := jc.arena.carve(len(jc.scratch))
		copy(out, jc.scratch)
		return out, true, nil
	}
	out := jc.arena.carve(len(jc.proj))
	for i, j := range jc.proj {
		out[i] = jc.scratch[j]
	}
	return out, true, nil
}

// emitPadded emits an outer-join row with the missing side NULL-padded
// (l nil pads the left columns, r nil the right). Padded rows bypass the
// residual predicate — the ON condition already failed, that is why the row
// is padded — but the output projection still applies.
func (jc *joinCommon) emitPadded(l, r types.Row) types.Row {
	jc.scratch = jc.scratch[:0]
	if l == nil {
		for i := 0; i < jc.lWidth; i++ {
			jc.scratch = append(jc.scratch, types.Null())
		}
	} else {
		jc.scratch = append(jc.scratch, l...)
	}
	if r == nil {
		for i := 0; i < jc.rWidth; i++ {
			jc.scratch = append(jc.scratch, types.Null())
		}
	} else {
		jc.scratch = append(jc.scratch, r...)
	}
	if jc.proj == nil {
		out := jc.arena.carve(len(jc.scratch))
		copy(out, jc.scratch)
		return out
	}
	out := jc.arena.carve(len(jc.proj))
	for i, j := range jc.proj {
		out[i] = jc.scratch[j]
	}
	return out
}

// rowHasNullKey reports whether any of the row's key positions is NULL.
// A NULL join key never matches anything (NULL = x is UNKNOWN), even
// though types.Compare orders NULLs equal.
func rowHasNullKey(r types.Row, keys []int) bool {
	for _, k := range keys {
		if r[k].IsNull() {
			return true
		}
	}
	return false
}

// fillFromStep is the shared NextBatch body of the join and sort-aggregate
// operators whose matching logic is inherently row- or group-wise: step
// produces one output row at a time (over batch-fed inputs), and the batch
// layer simply accumulates up to target rows per call.
func fillFromStep(dst *Batch, target int, step func() (types.Row, bool, error)) error {
	dst.Reset()
	for dst.Len() < target {
		row, ok, err := step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		dst.Append(row)
	}
	return nil
}

// hashJoinIter builds a hash table on the right input; if the build side
// exceeds the budget it falls back to Grace partitioning, writing both
// inputs to spill partitions and joining them pairwise. The probe side
// streams through a rowIter, so the child still executes batch-at-a-time.
//
// Outer joins: the probe (left) side is the preserved side of a LEFT join —
// a probe row whose ON condition matches no build row is emitted once,
// right-padded with NULLs. FULL joins additionally flag every matched build
// row and emit the unmatched remainder left-padded after the probe side
// drains (per partition on the grace path, which is sound because Grace
// partitions by key hash, so a build row can only match probe rows of its
// own partition). Build rows with NULL keys never match (NULL = x is
// UNKNOWN) and surface only through the FULL-outer drain.
type hashJoinIter struct {
	exec      *Executor
	jc        *joinCommon
	target    int
	joinType  lplan.JoinType
	probeSrc  BatchIterator // the built left child (drained directly on grace)
	probe     *rowIter      // row view of probeSrc for the in-memory path
	buildNode lplan.Node

	// current build table (whole input in memory, or one grace partition)
	buildRows    []types.Row
	buildMatched []bool           // FULL outer only: build rows already matched
	table        map[string][]int // key -> indices into buildRows
	// grace path
	lParts, rParts []*spill
	part           int
	probeRows      []types.Row // current partition's probe rows
	probePos       int
	partActive     bool

	pending    []int // buildRows indices matching the current probe row's key
	curL       types.Row
	curActive  bool // a probe row is in flight (padding not yet decided)
	curMatched bool // the in-flight probe row matched at least once
	draining   bool // FULL outer: emitting unmatched build rows
	drained    bool // the current build table's drain already ran
	drainPos   int
	grace      bool
}

// loadBuild installs rows as the current build table. NULL-keyed rows stay
// in buildRows (the FULL-outer drain must see them) but are not hashed.
func (it *hashJoinIter) loadBuild(rows []types.Row) {
	it.buildRows = rows
	it.table = make(map[string][]int, len(rows))
	if it.joinType == lplan.JoinFull {
		it.buildMatched = make([]bool, len(rows))
	} else {
		it.buildMatched = nil
	}
	it.drained = false
	var buf []byte
	for i, r := range rows {
		if rowHasNullKey(r, it.jc.rKeys) {
			continue
		}
		buf = r.AppendKey(buf[:0], it.jc.rKeys)
		it.table[string(buf)] = append(it.table[string(buf)], i)
	}
}

// setProbe starts matching a new probe row.
func (it *hashJoinIter) setProbe(l types.Row, buf []byte) []byte {
	it.curL = l
	it.curActive = true
	it.curMatched = false
	if rowHasNullKey(l, it.jc.lKeys) {
		it.pending = nil
		return buf
	}
	buf = l.AppendKey(buf[:0], it.jc.lKeys)
	it.pending = it.table[string(buf)]
	return buf
}

const gracePartitions = 16

func (it *hashJoinIter) Open() error {
	build, err := it.exec.build(it.buildNode)
	if err != nil {
		return err
	}
	// Materialize the build side, counting bytes.
	var rows []types.Row
	bytes := 0
	if err := drainBatches(build, func(r types.Row) error {
		rows = append(rows, r)
		bytes += r.DiskWidth()
		return nil
	}); err != nil {
		return err
	}

	if bytes <= it.exec.budgetBytes {
		it.loadBuild(rows)
		return it.probe.Open()
	}

	// Grace: write build rows to partitions, then probe rows. The partition
	// slices are assigned to the iterator before any write, so Close drops
	// them even when a write below fails.
	it.grace = true
	it.rParts = make([]*spill, gracePartitions)
	it.lParts = make([]*spill, gracePartitions)
	for i := range it.rParts {
		it.rParts[i] = newSpill(it.exec.pg, "hj-build")
		it.lParts[i] = newSpill(it.exec.pg, "hj-probe")
	}
	var buf []byte
	for _, r := range rows {
		buf = r.AppendKey(buf[:0], it.jc.rKeys)
		if err := it.rParts[partitionOf(buf)].add(r); err != nil {
			return err
		}
	}
	rows = nil
	if err := drainBatches(it.probeSrc, func(l types.Row) error {
		buf = l.AppendKey(buf[:0], it.jc.lKeys)
		return it.lParts[partitionOf(buf)].add(l)
	}); err != nil {
		return err
	}
	for i := range it.rParts {
		if err := it.rParts[i].finish(); err != nil {
			return err
		}
		if err := it.lParts[i].finish(); err != nil {
			return err
		}
	}
	it.part = -1
	return nil
}

func partitionOf(key []byte) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % gracePartitions)
}

func (it *hashJoinIter) NextBatch(dst *Batch) error {
	return fillFromStep(dst, it.target, it.step)
}

// step produces one joined row, advancing probe rows and (on the grace
// path) partitions as needed.
func (it *hashJoinIter) step() (types.Row, bool, error) {
	var buf []byte
	for {
		// Flush pending matches for the current probe row.
		for len(it.pending) > 0 {
			idx := it.pending[0]
			it.pending = it.pending[1:]
			out, ok, err := it.jc.emit(it.curL, it.buildRows[idx])
			if err != nil {
				return nil, false, err
			}
			if ok {
				it.curMatched = true
				if it.buildMatched != nil {
					it.buildMatched[idx] = true
				}
				return out, true, nil
			}
		}
		// The probe row is exhausted: LEFT/FULL pad it if nothing matched.
		if it.curActive {
			it.curActive = false
			if !it.curMatched && it.joinType.Outer() {
				return it.jc.emitPadded(it.curL, nil), true, nil
			}
		}
		// FULL outer: emit unmatched build rows of the drained table.
		if it.draining {
			for it.drainPos < len(it.buildRows) {
				i := it.drainPos
				it.drainPos++
				if !it.buildMatched[i] {
					return it.jc.emitPadded(nil, it.buildRows[i]), true, nil
				}
			}
			it.draining = false
			if !it.grace {
				return nil, false, nil
			}
			// Grace: fall through to advance to the next partition.
		}

		if !it.grace {
			l, ok, err := it.probe.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				if it.joinType == lplan.JoinFull && !it.drained {
					it.drained = true
					it.draining = true
					it.drainPos = 0
					continue
				}
				return nil, false, nil
			}
			buf = it.setProbe(l, buf)
			continue
		}

		// Grace path: stream the current partition's probe rows.
		if it.partActive {
			if it.probePos < len(it.probeRows) {
				l := it.probeRows[it.probePos]
				it.probePos++
				buf = it.setProbe(l, buf)
				continue
			}
			it.partActive = false
			if it.joinType == lplan.JoinFull && !it.drained {
				it.drained = true
				it.draining = true
				it.drainPos = 0
				continue
			}
		}
		// Advance to the next partition.
		it.part++
		if it.part >= gracePartitions {
			return nil, false, nil
		}
		var rows []types.Row
		sc := it.rParts[it.part].scan()
		for {
			r, _, ok, err := sc.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			rows = append(rows, r)
		}
		it.loadBuild(rows)
		it.probeRows = it.probeRows[:0]
		lsc := it.lParts[it.part].scan()
		for {
			l, _, ok, err := lsc.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			it.probeRows = append(it.probeRows, l)
		}
		it.probePos = 0
		it.partActive = true
	}
}

func (it *hashJoinIter) Close() error {
	// Unconditional cascade: Close is idempotent at every lifecycle point
	// (before Open, after a failed Open, mid-step). On the grace path the
	// probe source was already closed by drainBatches; closing again is
	// harmless.
	it.probe.Close()
	for _, p := range it.lParts {
		p.drop()
	}
	for _, p := range it.rParts {
		p.drop()
	}
	it.lParts, it.rParts = nil, nil
	return nil
}

// blockNLIter reads the outer in memory-budget blocks and rescans the inner
// once per block. A base-table inner is rescanned directly (the buffer pool
// charges the repeated reads); any other inner is materialized to a spill
// file first.
//
// Equi-joins hash each block: after a block fills, a table maps the key
// encoding (types.AppendKey, byte-equal iff the keys are Equal) to the
// block rows holding it, chained in ascending block order. Each inner row
// probes the table and tries only its candidates, so CPU work is linear in
// block plus inner rows, as internal/cost charges it, not their product.
// Blocks, inner rescans and output order are exactly those of comparing
// every pair, so page IO is too. NULL-keyed rows are never indexed or
// probed (NULL = x is UNKNOWN) but stay in the block for outer-join
// padding. Joins without an equi conjunct try every pair.
//
// Outer joins: the block (left) side is the preserved side of a LEFT join —
// after each block's inner rescan completes, unmatched block rows are
// emitted right-padded. FULL joins additionally track per-inner-row match
// flags by scan ordinal (inner rescans are deterministic, so ordinal i is
// the same row in every pass) and emit the never-matched inner rows
// left-padded in one final rescan after the last block.
type blockNLIter struct {
	exec     *Executor
	jc       *joinCommon
	target   int
	joinType lplan.JoinType
	outer    *rowIter
	inner    func() (BatchIterator, error) // fresh inner scan per block
	// matSrc is a non-base-table inner, materialized to a spill at Open
	// (not at build time: build must not allocate resources, so an error
	// while assembling the tree can never leak files).
	matSrc BatchIterator

	spilled *spill
	block   []types.Row
	inIt    *rowIter
	inRow   types.Row
	pos     int // next block row to try for inRow; len(block) when none
	done    bool

	// Equi-join block table, rebuilt per block and reused across blocks.
	heads  map[string]int // key -> first block row holding it
	chain  []int          // block row -> next block row with its key, or len(block)
	keyBuf []byte

	blockMatched []bool // LEFT/FULL: per-block-row match flags
	padPos       int    // cursor over block rows while padding
	padding      bool
	innerMatched []bool // FULL: per-inner-ordinal match flags, OR'd across blocks
	innerOrd     int    // ordinal of inRow within the current inner pass
	finalIt      *rowIter
	finalOrd     int
	finalDone    bool
}

func (e *Executor) buildBlockNL(j *lplan.Join, jc *joinCommon) (BatchIterator, error) {
	outer, err := e.build(j.L)
	if err != nil {
		return nil, err
	}
	it := &blockNLIter{exec: e, jc: jc, target: e.batchSize, joinType: j.Type, outer: newRowIter(outer)}
	if _, isScan := j.R.(*lplan.Scan); isScan {
		inner := j.R
		it.inner = func() (BatchIterator, error) { return e.build(inner) }
	} else {
		in, err := e.build(j.R)
		if err != nil {
			return nil, err
		}
		it.matSrc = in
	}
	return it, nil
}

func (it *blockNLIter) Open() error {
	if it.matSrc != nil && it.spilled == nil {
		// Materialize the inner once, then scan the spill per block. The
		// spill is assigned before writing so Close drops it on any error.
		sp := newSpill(it.exec.pg, "bnl-inner")
		it.spilled = sp
		if err := drainBatches(it.matSrc, func(r types.Row) error { return sp.add(r) }); err != nil {
			return err
		}
		if err := sp.finish(); err != nil {
			return err
		}
		it.inner = func() (BatchIterator, error) {
			return &spillIter{sp: sp, target: it.exec.batchSize}, nil
		}
	}
	if err := it.outer.Open(); err != nil {
		return err
	}
	return it.nextBlock()
}

// nextBlock fills the outer block and opens a fresh inner scan.
func (it *blockNLIter) nextBlock() error {
	it.block = it.block[:0]
	bytes := 0
	budget := it.exec.budgetBytes - 2*4096 // leave pages for the inner stream
	if budget < 4096 {
		budget = 4096
	}
	for bytes < budget {
		row, ok, err := it.outer.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		it.block = append(it.block, row)
		bytes += row.DiskWidth()
	}
	if len(it.block) == 0 {
		it.done = true
		return nil
	}
	if len(it.jc.lKeys) > 0 {
		it.indexBlock()
	}
	in, err := it.inner()
	if err != nil {
		return err
	}
	inRows := newRowIter(in)
	if err := inRows.Open(); err != nil {
		inRows.Close()
		return err
	}
	if it.inIt != nil {
		it.inIt.Close()
	}
	it.inIt = inRows
	it.inRow = nil
	it.innerOrd = -1
	if it.joinType.Outer() {
		it.blockMatched = make([]bool, len(it.block))
	}
	return nil
}

// indexBlock builds the block's key table. Rows are linked from last to
// first so every chain runs in ascending block order.
func (it *blockNLIter) indexBlock() {
	if it.heads == nil {
		it.heads = make(map[string]int, len(it.block))
	} else {
		clear(it.heads)
	}
	n := len(it.block)
	it.chain = slices.Grow(it.chain[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		r := it.block[i]
		if rowHasNullKey(r, it.jc.lKeys) {
			continue
		}
		it.keyBuf = r.AppendKey(it.keyBuf[:0], it.jc.lKeys)
		next, ok := it.heads[string(it.keyBuf)]
		if !ok {
			next = n
		}
		it.chain[i] = next
		it.heads[string(it.keyBuf)] = i
	}
}

// firstCandidate returns the first block row that may join inRow:
// len(block) when none can.
func (it *blockNLIter) firstCandidate() int {
	if len(it.jc.lKeys) == 0 {
		return 0
	}
	if rowHasNullKey(it.inRow, it.jc.rKeys) {
		return len(it.block)
	}
	it.keyBuf = it.inRow.AppendKey(it.keyBuf[:0], it.jc.rKeys)
	if i, ok := it.heads[string(it.keyBuf)]; ok {
		return i
	}
	return len(it.block)
}

func (it *blockNLIter) NextBatch(dst *Batch) error {
	return fillFromStep(dst, it.target, it.step)
}

func (it *blockNLIter) step() (types.Row, bool, error) {
	for {
		// Emit right-padded rows for the block just finished.
		if it.padding {
			for it.padPos < len(it.block) {
				i := it.padPos
				it.padPos++
				if !it.blockMatched[i] {
					return it.jc.emitPadded(it.block[i], nil), true, nil
				}
			}
			it.padding = false
			it.inIt.Close()
			it.inIt = nil
			if err := it.nextBlock(); err != nil {
				return nil, false, err
			}
			continue
		}
		if it.done {
			if it.joinType == lplan.JoinFull && !it.finalDone {
				return it.stepFinalDrain()
			}
			return nil, false, nil
		}
		if it.inRow == nil {
			r, ok, err := it.inIt.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				if it.joinType.Outer() {
					// Pad this block's unmatched rows before advancing;
					// padding mode closes the inner and loads the next block.
					it.padding = true
					it.padPos = 0
					continue
				}
				it.inIt.Close()
				it.inIt = nil
				if err := it.nextBlock(); err != nil {
					return nil, false, err
				}
				continue
			}
			it.inRow = r
			it.pos = it.firstCandidate()
			it.innerOrd++
			if it.joinType == lplan.JoinFull && it.innerOrd >= len(it.innerMatched) {
				it.innerMatched = append(it.innerMatched, false)
			}
		}
		for it.pos < len(it.block) {
			i := it.pos
			if len(it.jc.lKeys) > 0 {
				it.pos = it.chain[i]
			} else {
				it.pos++
			}
			// The keys match (i is inRow's candidate); the residual must pass.
			out, ok, err := it.jc.emit(it.block[i], it.inRow)
			if err != nil {
				return nil, false, err
			}
			if ok {
				if it.blockMatched != nil {
					it.blockMatched[i] = true
				}
				if it.joinType == lplan.JoinFull {
					it.innerMatched[it.innerOrd] = true
				}
				return out, true, nil
			}
		}
		it.inRow = nil
	}
}

// stepFinalDrain rescans the inner once after the last block and emits
// left-padded rows for inner ordinals no block ever matched. Rescans are
// deterministic (heap order for base tables, spill order otherwise), so the
// ordinal identifies the same row as in the per-block passes.
func (it *blockNLIter) stepFinalDrain() (types.Row, bool, error) {
	if it.finalIt == nil {
		in, err := it.inner()
		if err != nil {
			return nil, false, err
		}
		rows := newRowIter(in)
		if err := rows.Open(); err != nil {
			rows.Close()
			return nil, false, err
		}
		it.finalIt = rows
		it.finalOrd = -1
	}
	for {
		r, ok, err := it.finalIt.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			it.finalIt.Close()
			it.finalIt = nil
			it.finalDone = true
			return nil, false, nil
		}
		it.finalOrd++
		if it.finalOrd < len(it.innerMatched) && it.innerMatched[it.finalOrd] {
			continue
		}
		return it.jc.emitPadded(nil, r), true, nil
	}
}

func (it *blockNLIter) Close() error {
	it.outer.Close()
	if it.matSrc != nil {
		it.matSrc.Close()
	}
	if it.inIt != nil {
		it.inIt.Close()
		it.inIt = nil
	}
	if it.finalIt != nil {
		it.finalIt.Close()
		it.finalIt = nil
	}
	it.spilled.drop()
	it.spilled = nil
	return nil
}

// indexNLIter probes a hash index on the inner base table per outer row.
type indexNLIter struct {
	exec    *Executor
	jc      *joinCommon
	target  int
	outer   *rowIter
	scan    *lplan.Scan
	index   indexLookup
	rFilter func(types.Row) (bool, error)
	rProj   []int
	withTID bool
	lKeyPos []int // outer-row positions feeding the index key, in index order

	curL    types.Row
	matches []int64
	mpos    int
}

// indexLookup decouples exec from the concrete catalog index type.
type indexLookup interface {
	Lookup(key []types.Value) []int64
}

func (e *Executor) buildIndexNL(j *lplan.Join, jc *joinCommon) (BatchIterator, error) {
	scan, ok := j.R.(*lplan.Scan)
	if !ok {
		return nil, fmt.Errorf("exec: index-nl join requires a base-table inner")
	}
	if len(jc.rKeys) == 0 {
		return nil, fmt.Errorf("exec: index-nl join requires an equi-join predicate")
	}
	// The rKeys positions refer to the scan's *output* schema; the index is
	// declared over base column names. Recompute the base positions.
	base := scan.Table.Schema.Rename(scan.Alias)
	if scan.WithTID {
		base = append(base, schema.Column{ID: schema.ColID{Rel: scan.Alias, Name: lplan.TIDColumn}, Type: types.KindInt})
	}
	outSchema := scan.Schema()
	var names []string
	basePos := make([]int, len(jc.rKeys))
	for i, rk := range jc.rKeys {
		id := outSchema[rk].ID
		names = append(names, id.Name)
		bp, err := base.IndexOf(id)
		if err != nil || bp < 0 {
			return nil, fmt.Errorf("exec: index-nl join column %s not in base schema", id)
		}
		basePos[i] = bp
	}
	ix, ok := scan.Table.IndexOn(names)
	if !ok {
		return nil, fmt.Errorf("exec: no index on %s(%v)", scan.Table.Name, names)
	}
	// Reorder the outer key evaluation to the index's column order.
	ordered := make([]int, len(ix.Cols))
	for i, cn := range ix.Cols {
		found := false
		for k, nm := range names {
			if nm == cn {
				ordered[i] = jc.lKeys[k]
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("exec: index column %s not among join columns", cn)
		}
	}
	filter, err := e.compilePreds(scan.Filter, base)
	if err != nil {
		return nil, err
	}
	var proj []int
	if scan.Proj != nil {
		proj, err = colIndexes(base, scan.Proj)
		if err != nil {
			return nil, err
		}
	}
	outer, err := e.build(j.L)
	if err != nil {
		return nil, err
	}
	return &indexNLIter{
		exec: e, jc: &joinCommon{
			// Keys already applied via the index; only residual+emit remain.
			residual: jc.residual, proj: jc.proj, lWidth: jc.lWidth,
			arena: rowArena{rec: &e.arenas},
		},
		target: e.batchSize,
		outer:  newRowIter(outer), scan: scan, index: ix,
		rFilter: filter, rProj: proj, withTID: scan.WithTID,
		lKeyPos: ordered,
	}, nil
}

func (it *indexNLIter) Open() error { return it.outer.Open() }

func (it *indexNLIter) NextBatch(dst *Batch) error {
	return fillFromStep(dst, it.target, it.step)
}

func (it *indexNLIter) step() (types.Row, bool, error) {
	for {
		for it.mpos < len(it.matches) {
			rid := it.matches[it.mpos]
			it.mpos++
			row, err := it.exec.pg.FetchRID(it.scan.Table.File, rid)
			if err != nil {
				return nil, false, err
			}
			if it.withTID {
				row = append(row.Clone(), types.NewInt(rid))
			}
			keep, err := it.rFilter(row)
			if err != nil {
				return nil, false, err
			}
			if !keep {
				continue
			}
			row = projRow(row, it.rProj)
			out, ok, err := it.jc.emit(it.curL, row)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
		}
		l, ok, err := it.outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.curL = l
		key := make([]types.Value, len(it.lKeyPos))
		for i, p := range it.lKeyPos {
			key[i] = l[p]
		}
		it.matches = it.index.Lookup(key)
		it.mpos = 0
	}
}

func (it *indexNLIter) Close() error { return it.outer.Close() }

// mergeJoinIter joins two inputs sorted on their equi-join keys, buffering
// the right-side group of equal keys. Both sorted inputs stream through
// rowIter adapters (group-boundary logic is inherently row-wise); the sorts
// underneath still drain their children batch-at-a-time.
type mergeJoinIter struct {
	jc     *joinCommon
	target int
	l, r   *rowIter

	curL  types.Row
	group []types.Row // right rows equal to curL's key
	gpos  int
	rRow  types.Row // lookahead on the right
	rDone bool
}

func (it *mergeJoinIter) Open() error {
	if err := it.l.Open(); err != nil {
		return err
	}
	if err := it.r.Open(); err != nil {
		return err
	}
	r, ok, err := it.r.Next()
	if err != nil {
		return err
	}
	it.rRow, it.rDone = r, !ok
	return nil
}

// advanceGroup loads the right-side group matching key, consuming the right
// iterator up to the first greater key.
func (it *mergeJoinIter) advanceGroup(key types.Row) error {
	it.group = it.group[:0]
	for !it.rDone {
		c := compareKeys(key, it.jc.lKeys, it.rRow, it.jc.rKeys)
		if c < 0 {
			break
		}
		if c == 0 {
			it.group = append(it.group, it.rRow)
		}
		r, ok, err := it.r.Next()
		if err != nil {
			return err
		}
		it.rRow, it.rDone = r, !ok
	}
	return nil
}

func compareKeys(l types.Row, lKeys []int, r types.Row, rKeys []int) int {
	for i := range lKeys {
		if c := types.Compare(l[lKeys[i]], r[rKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

func (it *mergeJoinIter) NextBatch(dst *Batch) error {
	return fillFromStep(dst, it.target, it.step)
}

func (it *mergeJoinIter) step() (types.Row, bool, error) {
	for {
		for it.curL != nil && it.gpos < len(it.group) {
			r := it.group[it.gpos]
			it.gpos++
			out, ok, err := it.jc.emit(it.curL, r)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
		}
		l, ok, err := it.l.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		// A NULL key never matches (NULL = x is UNKNOWN): give the row an
		// empty group without consuming the right side. (NULLs sort first,
		// so right-side NULL-keyed rows are consumed as smaller keys once a
		// non-NULL left key arrives.)
		if rowHasNullKey(l, it.jc.lKeys) {
			it.group = it.group[:0]
		} else if it.curL == nil || compareKeys(l, it.jc.lKeys, it.curL, it.jc.lKeys) != 0 {
			// Reuse the group if the key is unchanged (duplicate left keys).
			if err := it.advanceGroup(l); err != nil {
				return nil, false, err
			}
		}
		it.curL = l
		it.gpos = 0
	}
}

func (it *mergeJoinIter) Close() error {
	// Always cascade: if the left sort opened and spilled runs but the right
	// sort's Open failed, the old opened-only guard leaked the left's runs.
	it.l.Close()
	it.r.Close()
	return nil
}
