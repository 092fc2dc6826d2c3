package core

import (
	"fmt"
	"strings"

	"repro/internal/dataformat"
	"repro/internal/hash32"
)

// DistrPolicy names a distribution policy for the Distribute operator
// (§III-B Table I: "policy of distribution: cyclic and block"; Fig. 10 adds
// the graph-specific "graphVertexCut").
type DistrPolicy int

const (
	// Cyclic distributes entries round-robin via the stride permutation
	// matrix L^n_p ("roundRobin" in Fig. 8).
	Cyclic DistrPolicy = iota
	// Block keeps entries contiguous (identity matrix L^n_n).
	Block
	// GraphVertexCut is the PowerLyra policy: packed groups (low-degree
	// vertices with all their edges) are placed whole by hashing the group
	// key; unpacked rows (high-degree edges) are spread by hashing the
	// out-vertex (first column).
	GraphVertexCut
	// Balanced is an extension beyond the paper's cyclic/block/hash set: a
	// greedy longest-processing-time placement that assigns whole packed
	// groups to the currently lightest partition (weight = member rows).
	// It trades one extra size exchange for near-perfect row balance when
	// group sizes are skewed. Flat rows degrade to cyclic.
	Balanced
	// Auto defers the choice to the plan optimizer (internal/planopt),
	// which binds a concrete policy from reservoir-sampled input
	// statistics. Executing a plan that still carries Auto is an error:
	// the optimizer must rewrite the plan first.
	Auto
)

// ParseDistrPolicy converts configuration spellings.
func ParseDistrPolicy(s string) (DistrPolicy, error) {
	switch strings.TrimSpace(s) {
	case "cyclic", "roundRobin", "round_robin":
		return Cyclic, nil
	case "block":
		return Block, nil
	case "graphVertexCut", "graph_vertex_cut", "hybrid":
		return GraphVertexCut, nil
	case "balanced", "weighted", "lpt":
		return Balanced, nil
	case "auto":
		return Auto, nil
	default:
		return 0, fmt.Errorf("core: unknown distribution policy %q", s)
	}
}

// String renders the canonical spelling.
func (p DistrPolicy) String() string {
	switch p {
	case Cyclic:
		return "cyclic"
	case Block:
		return "block"
	case GraphVertexCut:
		return "graphVertexCut"
	case Balanced:
		return "balanced"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("DistrPolicy(%d)", int(p))
	}
}

// IndexBased reports whether the policy places an entry by its global index
// alone (cyclic, block): one exclusive scan decides every placement, so the
// shuffle can be elided, live data rebalanced and partitions relabelled.
func (p DistrPolicy) IndexBased() bool { return p == Cyclic || p == Block }

// Place returns the partition in [0, np) of the entry at global index g of
// total: the policy's stride-permutation matrix (§III-B) applied to one
// entry. Cyclic is L^n_np (g mod np); block is the identity cut at the
// lo = N*p/np boundaries of muBLASTP's block splitter. GraphVertexCut hashes
// a packed entry's group key, or a flat row's first column (the out-vertex);
// only it reads row and group. Balanced (a global LPT pass) and Auto (not yet
// bound) have no per-entry rule and are errors.
func (p DistrPolicy) Place(np int, g, total int64, row Row, group *Group) (int, error) {
	switch p {
	case Cyclic:
		return int(g % int64(np)), nil
	case Block:
		if total == 0 {
			return 0, nil
		}
		return int(((g+1)*int64(np)+total-1)/total) - 1, nil
	case GraphVertexCut:
		if group != nil {
			return HashValue(group.Key, np), nil
		}
		return HashValue(row.Values[0], np), nil
	default:
		return 0, fmt.Errorf("core: policy %v has no per-entry placement", p)
	}
}

// Route returns the index of the first branch whose condition holds for key:
// the Split job's first-match rule (Fig. 11 step 4). A key no condition
// matches is an error rather than a silent drop.
func (j *SplitJob) Route(key int64) (int, error) {
	for i, b := range j.Branches {
		if b.Condition.Eval(key) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: split %s: key %d matches no condition", j.ID, key)
}

// RouteEntry routes one entry by its key column col. Every member of a packed
// group shares the split key, so the first member routes the whole group; an
// empty group routes nowhere (-1).
func (j *SplitJob) RouteEntry(col int, row Row, group *Group) (int, error) {
	if group != nil {
		if len(group.Rows) == 0 {
			return -1, nil
		}
		row = group.Rows[0]
	}
	key, err := row.Values[col].AsInt()
	if err != nil {
		return 0, err
	}
	return j.Route(key)
}

// HashValue buckets a value into [0, n) with a stable hash — used by the
// graphVertexCut policy and the shuffle partitioners. Strings and the
// numbers they parse to hash identically, so text and binary inputs
// partition the same way.
func HashValue(v dataformat.Value, n int) int {
	// Inlined FNV-1a over the same bytes fmt.Fprint(h, v.AsString()) fed the
	// stdlib hasher, minus the per-call hasher and string allocations.
	if v.IsStr {
		return hash32.Bucket(hash32.SumString(v.Str), n)
	}
	return hash32.Bucket(hash32.SumInt64Decimal(v.Int), n)
}

// SplitCondition is one arm of a Split policy: an operator and a threshold,
// e.g. {>=, 200}.
type SplitCondition struct {
	Op        string // one of ">=", ">", "<=", "<", "==", "!="
	Threshold int64
	// Auto marks an unbound threshold ({>=,auto}): the plan optimizer
	// derives the value from the sampled group-size distribution and
	// clears the flag. Executing a plan with Auto still set is an error.
	Auto bool
}

// Eval applies the condition to a key value.
func (c SplitCondition) Eval(key int64) bool {
	switch c.Op {
	case ">=":
		return key >= c.Threshold
	case ">":
		return key > c.Threshold
	case "<=":
		return key <= c.Threshold
	case "<":
		return key < c.Threshold
	case "==":
		return key == c.Threshold
	case "!=":
		return key != c.Threshold
	default:
		return false
	}
}

// String renders the condition in the configuration syntax.
func (c SplitCondition) String() string {
	if c.Auto {
		return fmt.Sprintf("{%s,auto}", c.Op)
	}
	return fmt.Sprintf("{%s,%d}", c.Op, c.Threshold)
}

// ParseSplitPolicy parses the Fig. 10 split policy syntax, a comma-separated
// list of conditions: "{>=,200},{<,200}". References must already be
// resolved (the threshold is numeric).
func ParseSplitPolicy(s string) ([]SplitCondition, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("core: empty split policy")
	}
	var out []SplitCondition
	for len(s) > 0 {
		if s[0] == ',' {
			s = strings.TrimSpace(s[1:])
			continue
		}
		if s[0] != '{' {
			return nil, fmt.Errorf("core: split policy: expected '{' at %q", s)
		}
		end := strings.IndexByte(s, '}')
		if end < 0 {
			return nil, fmt.Errorf("core: split policy: unterminated condition in %q", s)
		}
		body := s[1:end]
		s = strings.TrimSpace(s[end+1:])
		parts := strings.SplitN(body, ",", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("core: split policy condition %q needs an operator and a threshold", body)
		}
		op := strings.TrimSpace(parts[0])
		switch op {
		case ">=", ">", "<=", "<", "==", "!=":
		default:
			return nil, fmt.Errorf("core: split policy: unknown comparison %q", op)
		}
		rawThr := strings.TrimSpace(parts[1])
		if rawThr == "auto" {
			out = append(out, SplitCondition{Op: op, Auto: true})
			continue
		}
		var thr int64
		if _, err := fmt.Sscanf(rawThr, "%d", &thr); err != nil {
			return nil, fmt.Errorf("core: split policy: bad threshold %q", parts[1])
		}
		out = append(out, SplitCondition{Op: op, Threshold: thr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: split policy %q has no conditions", s)
	}
	return out, nil
}
