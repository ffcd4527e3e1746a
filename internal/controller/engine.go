package controller

import (
	"fmt"
	"math"
	"math/bits"

	"bpomdp/internal/pomdp"
)

// Engine performs the finite-depth Max-Avg expansion of the POMDP
// dynamic-programming recursion (Figure 1(b) of the paper): future belief
// values are averaged over observations and maximized over actions, with a
// leaf evaluator (a lower bound or a heuristic) supplying the remaining
// reward at the frontier.
//
// There is one expansion, expand, and every decision goes through it:
// ChooseBatch decides a whole batch of beliefs, and Choose is a one-belief
// batch. Each tree level shares one successor arena across the batch and,
// when the leaf implements pomdp.BatchValueFn, evaluates the entire frontier
// with a single batched call. Bit-identical beliefs — common, since recovery
// models observe almost deterministically and so reach few distinct beliefs,
// even inside a single tree — are merged at every tree level and in every
// frontier and expanded or evaluated once, each carrying its multiplicity
// (see beliefGroups); a batched leaf receives the multiplicities, so a
// use-counting bound set advances exactly as if every logical leaf had been
// evaluated. A leaf without batched evaluation is called once per distinct
// frontier belief, so it must be a pure function of the belief. Per-belief
// results do not depend on the batch a belief is decided in: the engine
// keeps the textbook recursion's per-action, per-observation floating-point
// accumulation order for every belief, and equal inputs give equal outputs.
type Engine struct {
	p         *pomdp.POMDP
	beta      float64
	depth     int
	leaf      pomdp.ValueFn
	batchLeaf pomdp.BatchValueFn // non-nil when leaf supports batched evaluation
	sc        *pomdp.Scratch

	levels   []*batchLevel // reusable per-depth expansion state
	rootVals []float64     // root value scratch for ChooseBatch

	one    [1]pomdp.Belief       // Choose's one-belief batch
	oneRes [1]pomdp.BackupResult // Choose's result; its QValues are reused

	ctr EngineCounters // monotone work counters; see Counters
}

// batchLevel is the reusable state of one tree level of a batched
// expansion: the level's belief grouping, the shared successor arena and the
// per-distinct-belief accumulators for the action currently being expanded.
type batchLevel struct {
	nodes  beliefGroups // the level's beliefs, merged by bits
	leaves beliefGroups // the level's frontier, merged, when it is the last
	buf    *pomdp.SuccessorBuf
	q      []float64 // per-distinct-belief Q accumulator for the current action
	counts []int     // successors appended per distinct belief for the current action
	fw     []uint64  // multiplicity of each frontier belief (its parent's)
	vals   []float64 // values of the level's frontier beliefs
}

// beliefGroups merges the bit-identical beliefs of one batch (compared by
// math.Float64bits, so +0 and −0 stay apart) through an open-addressed
// index, so the engine expands or evaluates each distinct belief once and
// scatters the result to its duplicates. Its slices are reused across
// calls, so the steady state allocates nothing.
type beliefGroups struct {
	table  []int32        // slot → distinct index + 1; 0 marks an empty slot
	hashes []uint64       // hash of each distinct belief
	first  []int          // batch index of each distinct belief's first occurrence
	pis    []pomdp.Belief // the distinct beliefs, in first-occurrence order
	w      []uint64       // summed multiplicity of each distinct belief
	of     []int          // distinct index of each batch entry
	vals   []float64      // per-distinct-belief values (leaf frontiers)
	total  uint64         // summed multiplicity of the whole batch
}

// group merges pis, whose entry j stands for w[j] logical beliefs (one each
// when w is nil). Afterwards g.pis, g.first and g.w describe the distinct
// beliefs, g.of maps every entry to its distinct index, and g.total is the
// batch's summed multiplicity.
func (g *beliefGroups) group(pis []pomdp.Belief, w []uint64) {
	m := len(pis)
	size := 8
	for size < 2*m {
		size <<= 1
	}
	if cap(g.table) < size {
		g.table = make([]int32, size)
	}
	g.table = g.table[:size]
	clear(g.table)
	if cap(g.of) < m {
		g.of = make([]int, m)
	}
	g.of = g.of[:m]
	g.hashes, g.first, g.pis, g.w = g.hashes[:0], g.first[:0], g.pis[:0], g.w[:0]
	g.total = 0
	shift := 64 - uint(bits.TrailingZeros(uint(size)))
	for j, pi := range pis {
		c := uint64(1)
		if w != nil {
			c = w[j]
		}
		g.total += c
		h := hashBelief(pi)
		for i := h >> shift; ; i = (i + 1) & uint64(size-1) {
			slot := g.table[i]
			if slot == 0 {
				g.table[i] = int32(len(g.first) + 1)
				g.of[j] = len(g.first)
				g.hashes = append(g.hashes, h)
				g.first = append(g.first, j)
				g.pis = append(g.pis, pi)
				g.w = append(g.w, c)
				break
			}
			if k := int(slot - 1); g.hashes[k] == h && pomdp.SameBits(g.pis[k], pi) {
				g.of[j] = k
				g.w[k] += c
				break
			}
		}
	}
}

// BeliefGroups merges the bit-identical beliefs of a batch by the
// equivalence the engine and both regions of the FSC decide by:
// hashBelief plus pomdp.SameBits, so +0 and −0 stay apart. A caller that
// sends a batch elsewhere to be decided can send each distinct belief once.
// A reused BeliefGroups groups without allocating.
type BeliefGroups struct{ g beliefGroups }

// Group merges pis. It returns the distinct beliefs, in first-occurrence
// order, and for each entry of pis the index of its distinct belief. Both
// are valid until the next call.
func (b *BeliefGroups) Group(pis []pomdp.Belief) (distinct []pomdp.Belief, of []int) {
	b.g.group(pis, nil)
	return b.g.pis, b.g.of
}

// hashBelief mixes the bits of every entry of pi. The index takes the top
// bits of the result, which a multiplicative step makes depend on every
// input bit.
func hashBelief(pi pomdp.Belief) uint64 {
	h := uint64(len(pi))
	for _, x := range pi {
		h = (bits.RotateLeft64(h, 27) ^ math.Float64bits(x)) * 0x9e3779b97f4a7c15
	}
	return h
}

// NewEngine builds a Max-Avg tree engine of the given depth ≥ 1 over model
// p with discount beta (use 1 for the paper's undiscounted criterion).
func NewEngine(p *pomdp.POMDP, depth int, beta float64, leaf pomdp.ValueFn) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if depth < 1 {
		return nil, fmt.Errorf("controller: tree depth %d < 1", depth)
	}
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("controller: beta %v outside (0,1]", beta)
	}
	if leaf == nil {
		return nil, fmt.Errorf("controller: nil leaf evaluator")
	}
	e := &Engine{p: p, beta: beta, depth: depth, leaf: leaf, sc: pomdp.NewScratch(p)}
	e.batchLeaf, _ = leaf.(pomdp.BatchValueFn)
	return e, nil
}

// Depth returns the expansion depth.
func (e *Engine) Depth() int { return e.depth }

// Counters snapshots the engine's monotone work counters. Stats collection
// differences two snapshots around a decision; the counters are plain fields,
// valid only from the goroutine driving the engine.
func (e *Engine) Counters() EngineCounters { return e.ctr }

// Choose expands the tree at belief π and returns the root backup: the
// maximizing action, its value, and all root Q-values. It is ChooseBatch on
// a one-belief batch. The returned QValues belong to the engine and stay
// valid until its next call.
func (e *Engine) Choose(pi pomdp.Belief) (pomdp.BackupResult, error) {
	e.one[0] = pi
	err := e.ChooseBatch(e.one[:], e.oneRes[:])
	e.one[0] = nil
	if err != nil {
		return pomdp.BackupResult{}, err
	}
	return e.oneRes[0], nil
}

// ChooseBatch expands the tree at every belief in pis and writes the root
// backup of belief j into out[j], reusing out[j].QValues when its capacity
// allows. Results are bit-identical to calling Choose on each belief in
// turn. out must be at least as long as pis.
func (e *Engine) ChooseBatch(pis []pomdp.Belief, out []pomdp.BackupResult) error {
	if len(out) < len(pis) {
		return fmt.Errorf("controller: batch result buffer length %d < %d beliefs", len(out), len(pis))
	}
	n, nA := e.p.NumStates(), e.p.NumActions()
	for j, pi := range pis {
		if len(pi) != n {
			return fmt.Errorf("pomdp: belief length %d, want %d", len(pi), n)
		}
		if cap(out[j].QValues) < nA {
			out[j].QValues = make([]float64, nA)
		}
		out[j].QValues = out[j].QValues[:nA]
	}
	if cap(e.rootVals) < len(pis) {
		e.rootVals = make([]float64, len(pis))
	}
	e.expand(0, e.depth, pis, nil, e.rootVals[:len(pis)], out[:len(pis)])
	return nil
}

// level returns the reusable expansion state for tree level lvl, growing
// the level list on first use.
func (e *Engine) level(lvl int) *batchLevel {
	for len(e.levels) <= lvl {
		e.levels = append(e.levels, &batchLevel{buf: pomdp.NewSuccessorBuf(e.p)})
	}
	return e.levels[lvl]
}

// expand is the batched Max-Avg recursion: it computes, for every belief in
// pis, the value with `remaining` further expansions into vals, and — when
// res is non-nil (the root call) — the per-action Q-values and maximizing
// action into res. Entry j stands for w[j] logical beliefs (one each when w
// is nil); bit-identical entries are merged first, each distinct belief is
// expanded once, and its results are copied to its duplicates. For each
// action the distinct beliefs' successors are enumerated into one arena —
// each successor inheriting its parent's multiplicity — and the next level
// (or the leaf bound) is evaluated over that frontier in a single pass; the
// per-belief floating-point accumulation order is exactly pomdp.Backup's
// (reward first, then successors in ascending observation order, actions
// compared in ascending order), which is what makes a belief's results
// independent of its batch. The work counters advance by multiplicities,
// so they count the logical tree: one node per expanded belief and one leaf
// evaluation per frontier belief, duplicates included.
func (e *Engine) expand(lvl, remaining int, pis []pomdp.Belief, w []uint64, vals []float64, res []pomdp.BackupResult) {
	f := e.level(lvl)
	g := &f.nodes
	g.group(pis, w)
	e.ctr.Nodes += g.total
	m := len(g.first)
	if cap(f.q) < m {
		f.q = make([]float64, m)
		f.counts = make([]int, m)
	}
	q, counts := f.q[:m], f.counts[:m]
	// A distinct belief's results live at its first occurrence's slot of
	// vals and res until the duplicates are filled in at the end.
	for _, j := range g.first {
		vals[j] = math.Inf(-1)
		if res != nil {
			res[j].Action = -1
		}
	}
	for a := 0; a < e.p.NumActions(); a++ {
		f.buf.Reset()
		fw := f.fw[:0]
		for k, pi := range g.pis {
			q[k] = e.p.ExpectedReward(pi, a)
			counts[k] = e.p.AppendSuccessors(e.sc, f.buf, pi, a)
			for c := 0; c < counts[k]; c++ {
				fw = append(fw, g.w[k])
			}
		}
		f.fw = fw
		frontier := f.buf.Beliefs()
		probs := f.buf.Probs()
		if cap(f.vals) < len(frontier) {
			f.vals = make([]float64, len(frontier))
		}
		fvals := f.vals[:len(frontier)]
		if remaining == 1 {
			e.leafValues(&f.leaves, frontier, fw, fvals)
		} else {
			e.expand(lvl+1, remaining-1, frontier, fw, fvals, nil)
		}
		idx := 0
		for k, j := range g.first {
			qj := q[k]
			for c := 0; c < counts[k]; c++ {
				qj += e.beta * probs[idx] * fvals[idx]
				idx++
			}
			if res != nil {
				res[j].QValues[a] = qj
			}
			if qj > vals[j] {
				vals[j] = qj
				if res != nil {
					res[j].Action = a
				}
			}
		}
	}
	for j := range pis {
		r := g.first[g.of[j]]
		if r != j {
			vals[j] = vals[r]
		}
		if res == nil {
			continue
		}
		if r != j {
			res[j].Action = res[r].Action
			copy(res[j].QValues, res[r].QValues)
		}
		res[j].Value = vals[j]
	}
}

// leafValues evaluates the leaf bound over a frontier whose entry j stands
// for w[j] logical leaves: bit-identical entries are merged and evaluated
// once, batched when the leaf supports it, with the multiplicities passed
// on so the bound set's use counters advance as if every leaf had been
// evaluated.
func (e *Engine) leafValues(g *beliefGroups, pis []pomdp.Belief, w []uint64, out []float64) {
	g.group(pis, w)
	e.ctr.LeafEvals += g.total
	if e.batchLeaf != nil {
		e.ctr.SlabPasses++
		g.vals = e.batchLeaf.ValueBatch(g.pis, g.w, g.vals)
	} else {
		g.vals = g.vals[:0]
		for _, pi := range g.pis {
			g.vals = append(g.vals, e.leaf.Value(pi))
		}
	}
	for j, k := range g.of {
		out[j] = g.vals[k]
	}
}
