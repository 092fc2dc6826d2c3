package incremental

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mrmpi"
)

// model is the host-side replica of what the executor computes: given the
// global input sequence E (every resident row, in arrival order), it returns
// the canonical content of every partition as ordered entry indexes. The
// engine never trusts the model blindly — New verifies it byte-for-byte
// against a real executor run at seed time, and every delta run re-verifies
// each shipped row as the patch walk consumes it.
type model interface {
	// sequences returns, per partition, the ordered indexes (into entries)
	// forming that partition's canonical content at np partitions.
	sequences(entries []entry, np int) ([][]int, error)
	// name identifies the recognized plan shape for reports and errors.
	name() string
}

// buildModel recognizes the three workflow shapes the incremental engine
// supports and derives a canonical model from the plan's bound parameters
// (optimizer-fused plans are flattened first, so auto policies and
// thresholds must already be bound):
//
//	[Sort, Distribute(cyclic|block)]                     — blast_partition
//	[Distribute(cyclic|block)]                           — blast_partition_block
//	[Group(pack,count), Split, Distribute(vertex-cut)]   — hybrid_cut
func buildModel(plan *core.Plan, ranks int) (model, error) {
	if plan == nil || plan.InputSchema == nil {
		return nil, fmt.Errorf("incremental: plan with input schema required")
	}
	jobs := flattenJobs(plan.Jobs)
	schema := core.NewRowSchema(plan.InputSchema)
	switch len(jobs) {
	case 1:
		d, ok := jobs[0].(*core.DistributeJob)
		if !ok || len(d.InputBranches) > 0 {
			break
		}
		if !d.Policy.IndexBased() {
			return nil, fmt.Errorf("incremental: distribute policy %v is not index-based (bind a concrete cyclic/block policy, e.g. via the plan optimizer)", d.Policy)
		}
		return &indexModel{col: -1, policy: d.Policy}, nil
	case 2:
		s, okS := jobs[0].(*core.SortJob)
		d, okD := jobs[1].(*core.DistributeJob)
		if !okS || !okD || len(d.InputBranches) > 0 {
			break
		}
		if !d.Policy.IndexBased() {
			return nil, fmt.Errorf("incremental: post-sort distribute policy %v is not index-based", d.Policy)
		}
		col := schema.Index(s.KeyCol)
		if col < 0 {
			return nil, fmt.Errorf("incremental: sort key %q missing from input schema", s.KeyCol)
		}
		return &indexModel{col: col, desc: s.Descending, policy: d.Policy}, nil
	case 3:
		g, okG := jobs[0].(*core.GroupJob)
		sp, okS := jobs[1].(*core.SplitJob)
		d, okD := jobs[2].(*core.DistributeJob)
		if !okG || !okS || !okD {
			break
		}
		return buildHybridModel(schema, g, sp, d, ranks)
	}
	return nil, fmt.Errorf("incremental: unrecognized plan shape (%d jobs); supported: sort+distribute, distribute, group+split+distribute", len(jobs))
}

// flattenJobs expands optimizer-fused jobs into the underlying sequence.
func flattenJobs(jobs []core.Job) []core.Job {
	out := make([]core.Job, 0, len(jobs))
	for _, j := range jobs {
		if f, ok := j.(*core.FusedJob); ok {
			out = append(out, flattenJobs(f.Inner)...)
		} else {
			out = append(out, j)
		}
	}
	return out
}

// indexModel is an index-based Distribute (cyclic|block), optionally after a
// Sort; it is the only model whose placement Coalesce can relabel locally.
// Without the sort (col < 0) the global order is E itself. With it, the
// executor's global order is a stable sort of E by the key column (splitter
// buckets never separate equal keys, the per-reducer sort is stable, and
// arrival order inside a reducer is source-rank-major = E order), so the
// canonical order is exactly sort.SliceStable over E. Either way each entry
// is placed by its position in that order.
type indexModel struct {
	col    int
	desc   bool
	policy core.DistrPolicy
}

func (m *indexModel) sequences(entries []entry, np int) ([][]int, error) {
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	if m.col >= 0 {
		sort.SliceStable(order, func(a, b int) bool {
			c := core.CompareValues(entries[order[a]].row.Values[m.col], entries[order[b]].row.Values[m.col])
			if m.desc {
				return c > 0
			}
			return c < 0
		})
	}
	seqs := make([][]int, np)
	total := int64(len(order))
	for g, idx := range order {
		part, err := m.policy.Place(np, int64(g), total, core.Row{}, nil)
		if err != nil {
			return nil, err
		}
		seqs[part] = append(seqs[part], idx)
	}
	return seqs, nil
}

func (m *indexModel) name() string {
	if m.col < 0 {
		return "direct-" + m.policy.String()
	}
	return "sort-" + m.policy.String()
}

// hybridBranch is one distribute input of the hybrid-cut shape, in emit
// order.
type hybridBranch struct {
	// split is the branch's index in the split job, the value Route returns.
	split int
	// packed places whole groups by their group key (the low-degree "orig"
	// branch); unpacked places each member row on its own (the high-degree
	// "unpack" branch).
	packed bool
}

// hybridModel mirrors the hybrid-cut pipeline: group rows by the dst-vertex
// column on the group shuffle's rank (mrmpi.KeyRank over the key string),
// derive the indegree as the group size, route each group with the split
// job's first-match rule, then place per distribute input. Partition
// assembly is source-rank-major with per-rank emission in input order,
// groups in first-appearance order, members in arrival order — the same
// invariant chain the byte-identity of the elided distribute rests on.
type hybridModel struct {
	groupCol int
	split    *core.SplitJob
	policy   core.DistrPolicy
	branches []hybridBranch
	// read marks the split branches some distribute input consumes.
	read  []bool
	ranks int
}

// buildHybridModel validates the group+split+distribute shape and binds the
// model's parameters from the plan.
func buildHybridModel(schema *core.RowSchema, g *core.GroupJob, sp *core.SplitJob, d *core.DistributeJob, ranks int) (model, error) {
	if d.Policy != core.GraphVertexCut {
		return nil, fmt.Errorf("incremental: group+split plans require a graphVertexCut distribute, got %v", d.Policy)
	}
	if !g.Pack {
		return nil, fmt.Errorf("incremental: group %s must pack its output", g.ID)
	}
	if len(g.AddOns) != 1 || g.AddOns[0].AddOn.Name() != "count" {
		return nil, fmt.Errorf("incremental: group %s must have exactly one count add-on", g.ID)
	}
	if sp.KeyCol != g.AddOns[0].AttrName {
		return nil, fmt.Errorf("incremental: split key %q is not the count attribute %q", sp.KeyCol, g.AddOns[0].AttrName)
	}
	groupCol := schema.Index(g.KeyCol)
	if groupCol < 0 {
		return nil, fmt.Errorf("incremental: group key %q missing from input schema", g.KeyCol)
	}
	if len(d.InputBranches) == 0 {
		return nil, fmt.Errorf("incremental: vertex-cut distribute %s must read split branches", d.ID)
	}
	byName := map[string]int{}
	for i, b := range sp.Branches {
		if b.Condition.Auto {
			return nil, fmt.Errorf("incremental: branch %s threshold is auto; bind it with the plan optimizer first", b.Name)
		}
		byName[b.Name] = i
	}
	branches := make([]hybridBranch, 0, len(d.InputBranches))
	read := make([]bool, len(sp.Branches))
	for _, name := range d.InputBranches {
		si, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("incremental: distribute input %q is not a split branch", name)
		}
		branches = append(branches, hybridBranch{split: si, packed: sp.Branches[si].Format != "unpack"})
		read[si] = true
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("incremental: cluster size %d", ranks)
	}
	return &hybridModel{groupCol: groupCol, split: sp, policy: d.Policy, branches: branches, read: read, ranks: ranks}, nil
}

func (m *hybridModel) sequences(entries []entry, np int) ([][]int, error) {
	// Route every entry to its group-shuffle rank; the contiguous input
	// spread makes each rank's arrival stream an E-order filter, so
	// first-appearance group order and in-group member order both follow E.
	// A group is its members' entry indexes.
	rankGroups := make([][][]int, m.ranks)
	index := make([]map[string]int, m.ranks)
	for i := range entries {
		key := entries[i].row.Values[m.groupCol].AsString()
		r := mrmpi.KeyRank([]byte(key), m.ranks)
		if index[r] == nil {
			index[r] = map[string]int{}
		}
		gi, ok := index[r][key]
		if !ok {
			gi = len(rankGroups[r])
			index[r][key] = gi
			rankGroups[r] = append(rankGroups[r], nil)
		}
		rankGroups[r][gi] = append(rankGroups[r][gi], i)
	}
	seqs := make([][]int, np)
	for r := 0; r < m.ranks; r++ {
		// Classify each group by its indegree (= global group size: the
		// whole key lives on one rank), exactly as the split job routes it.
		perSplit := make([][][]int, len(m.split.Branches))
		for _, g := range rankGroups[r] {
			deg := int64(len(g))
			si, err := m.split.Route(deg)
			if err != nil {
				return nil, fmt.Errorf("incremental: %w", err)
			}
			if !m.read[si] {
				return nil, fmt.Errorf("incremental: indegree %d routes to split branch %s, which the distribute does not read", deg, m.split.Branches[si].Name)
			}
			perSplit[si] = append(perSplit[si], g)
		}
		for _, b := range m.branches {
			for _, g := range perSplit[b.split] {
				if b.packed {
					// The group key is the first member's group column.
					key := entries[g[0]].row.Values[m.groupCol]
					part, err := m.policy.Place(np, 0, 0, core.Row{}, &core.Group{Key: key})
					if err != nil {
						return nil, err
					}
					seqs[part] = append(seqs[part], g...)
					continue
				}
				for _, mi := range g {
					part, err := m.policy.Place(np, 0, 0, entries[mi].row, nil)
					if err != nil {
						return nil, err
					}
					seqs[part] = append(seqs[part], mi)
				}
			}
		}
	}
	return seqs, nil
}

func (m *hybridModel) name() string { return "hybrid-cut" }
