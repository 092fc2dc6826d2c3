// Package planopt is the rule- and cost-based plan optimizer: it rewrites a
// compiled core.Plan before execution so the generated partitioner pays less
// of the programmability tax §IV-C concedes to fused native pipelines like
// PowerLyra's. Three rule families fire:
//
//   - bind-auto: a Distribute policy of "auto" (and "auto" Split thresholds)
//     is bound to a concrete choice from reservoir-sampled input statistics
//     fed into cost models calibrated against the vtime parameters.
//   - elide-shuffle / placement-compat: a shuffle whose incoming
//     distribution is already compatible is removed (index-based Distribute
//     policies) or verified-and-skipped at run time (back-to-back Group jobs
//     on the same key).
//   - fuse: adjacent jobs where everything after the first is shuffle-free
//     collapse into one FusedJob, so the run pays one JobLaunchOverhead and
//     one barrier instead of one per job.
//
// The hard invariant is byte identity: an optimized plan produces exactly
// the partitions the literal plan produces, on every input. Rules therefore
// refuse to fire whenever identity (or recovery granularity) could change:
// shuffles of content-addressed policies (graphVertexCut, balanced) are
// never elided, because only index-based assignments let a rank know its
// fragment's place in the output without an exchange; and fusion never puts
// two all-to-all shuffles into one job, so a fused plan checkpoints exactly
// as often per shuffle as the literal one and recovery never replays more
// than one exchange.
package planopt

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/vtime"
)

// Options parameterize an optimization pass.
type Options struct {
	// Ranks is the cluster size the plan will run on; it feeds the cost
	// models. Non-positive means 1 (costs stay comparable, just unscaled).
	Ranks int
	// Stats carries sampled input statistics (CollectStats). nil disables
	// the auto-binding rules and the makespan prediction; the structural
	// rules (elide, fuse, placement) fire regardless.
	Stats *InputStats
}

// Applied records one rule firing for the Explain report.
type Applied struct {
	// Rule is the rule name: bind-threshold, bind-policy,
	// placement-compat, elide-shuffle, fuse.
	Rule string
	// Jobs lists the operator ids the rule touched.
	Jobs []string
	// Detail is the human-readable justification.
	Detail string
}

// Prediction is the cost model's makespan estimate for both plans, in
// virtual nanoseconds (zero when no statistics were supplied). The papar CLI
// folds the after-figure and the measured makespan into the obsv metrics so
// prediction error is a first-class observable.
type Prediction struct {
	BeforeNS int64 `json:"before_ns"`
	AfterNS  int64 `json:"after_ns"`
}

// Rewrite is the optimizer's result: the untouched input plan, the rewritten
// plan, and the audit trail.
type Rewrite struct {
	Before    *core.Plan
	After     *core.Plan
	Fired     []Applied
	Predicted Prediction
}

// Optimize rewrites plan under opts. The input plan is never mutated; the
// returned Rewrite.After shares only immutable parts with it.
func Optimize(plan *core.Plan, opts Options) (*Rewrite, error) {
	if opts.Ranks <= 0 {
		opts.Ranks = 1
	}
	out := clonePlan(plan)
	rw := &Rewrite{Before: plan, After: out}

	if err := bindAuto(out, opts, rw); err != nil {
		return nil, err
	}
	markPlacementCompatible(out, rw)
	elideShuffles(out, rw)
	fuseJobs(out, rw)

	if opts.Stats != nil {
		rw.Predicted = Prediction{
			BeforeNS: int64(predictPlan(plan, opts.Stats, opts.Ranks)),
			AfterNS:  int64(predictPlan(out, opts.Stats, opts.Ranks)),
		}
	}
	return rw, nil
}

// clonePlan copies the plan and every built-in job deeply enough that rule
// rewrites never alias the caller's plan. Custom jobs pass through by
// reference (the optimizer never rewrites them).
func clonePlan(p *core.Plan) *core.Plan {
	q := *p
	q.Jobs = make([]core.Job, len(p.Jobs))
	for i, j := range p.Jobs {
		q.Jobs[i] = cloneJob(j)
	}
	return &q
}

func cloneJob(j core.Job) core.Job {
	switch t := j.(type) {
	case *core.SortJob:
		c := *t
		return &c
	case *core.GroupJob:
		c := *t
		c.AddOns = append([]core.BoundAddOn(nil), t.AddOns...)
		return &c
	case *core.SplitJob:
		c := *t
		c.Branches = append([]core.SplitBranch(nil), t.Branches...)
		return &c
	case *core.DistributeJob:
		c := *t
		c.InputBranches = append([]string(nil), t.InputBranches...)
		return &c
	default:
		return j
	}
}

// bindAuto resolves every "auto" split threshold and distribution policy
// from the sampled statistics. Thresholds bind first so the policy cost
// models see the high/low cut they will execute with.
func bindAuto(p *core.Plan, opts Options, rw *Rewrite) error {
	var threshold int64 = -1
	for _, job := range p.Jobs {
		t, ok := job.(*core.SplitJob)
		if !ok {
			continue
		}
		for bi := range t.Branches {
			if !t.Branches[bi].Condition.Auto {
				continue
			}
			if opts.Stats == nil {
				return fmt.Errorf("planopt: split %s: threshold is auto but no input statistics were supplied (sample the input first)", t.ID)
			}
			if threshold < 0 {
				threshold = opts.Stats.AutoThreshold()
				rw.Fired = append(rw.Fired, Applied{
					Rule: "bind-threshold",
					Jobs: []string{t.ID},
					Detail: fmt.Sprintf("high/low cut bound to %d from the sampled group-size distribution (%d distinct keys in a %d-row sample)",
						threshold, opts.Stats.DistinctGroupKeys(), len(opts.Stats.GroupKeySample)),
				})
			}
			t.Branches[bi].Condition.Auto = false
			t.Branches[bi].Condition.Threshold = threshold
		}
	}
	for _, job := range p.Jobs {
		t, ok := job.(*core.DistributeJob)
		if !ok || t.Policy != core.Auto {
			continue
		}
		if opts.Stats == nil {
			return fmt.Errorf("planopt: distribute %s: policy is auto but no input statistics were supplied (sample the input first)", t.ID)
		}
		thr := threshold
		if thr < 0 && len(opts.Stats.GroupKeySample) > 0 {
			thr = opts.Stats.AutoThreshold()
		}
		choice := ChoosePolicy(opts.Stats, t.NumPartitions, thr)
		t.Policy = choice.Policy
		rw.Fired = append(rw.Fired, Applied{
			Rule:   "bind-policy",
			Jobs:   []string{t.ID},
			Detail: choice.Detail(),
		})
	}
	return nil
}

// markPlacementCompatible flags a Group job whose input was already grouped
// on the same key by the immediately preceding (unpacked) Group job: the
// hash partitioner routes every row back to the rank it is on, so the
// executor can verify placement with one collective count and skip the
// exchange. The verification is exact — the rule only removes wire traffic
// when the prediction holds, never correctness.
func markPlacementCompatible(p *core.Plan, rw *Rewrite) {
	for i := 1; i < len(p.Jobs); i++ {
		g2, ok := p.Jobs[i].(*core.GroupJob)
		if !ok {
			continue
		}
		g1, ok := p.Jobs[i-1].(*core.GroupJob)
		if !ok || g1.Pack || g1.KeyCol != g2.KeyCol {
			continue
		}
		g2.PlacementCompatible = true
		rw.Fired = append(rw.Fired, Applied{
			Rule: "placement-compat",
			Jobs: []string{g1.ID, g2.ID},
			Detail: fmt.Sprintf("%s grouped on %q and left rows on their hash-home ranks; %s verifies placement with a collective count and skips the exchange when it holds",
				g1.ID, g1.KeyCol, g2.ID),
		})
	}
}

// elideShuffles removes the all-to-all exchange from Distribute jobs whose
// policy is index-based (cyclic, block): the assignment is a pure function
// of the global entry index (one exclusive scan), so every rank can record
// its fragment locally and the host assembles partitions in rank order —
// the same concatenation order the shuffled merge produces, hence byte
// identity. Content-addressed policies (graphVertexCut, balanced) refuse:
// without the exchange a rank cannot know where its entries sit inside each
// partition's output, so the shuffle is load-bearing for them.
func elideShuffles(p *core.Plan, rw *Rewrite) {
	for _, job := range p.Jobs {
		t, ok := job.(*core.DistributeJob)
		if !ok || t.ElideShuffle {
			continue
		}
		if !t.Policy.IndexBased() {
			continue
		}
		t.ElideShuffle = true
		rw.Fired = append(rw.Fired, Applied{
			Rule: "elide-shuffle",
			Jobs: []string{t.ID},
			Detail: fmt.Sprintf("%s assignment is a pure function of the global entry index (exclusive scan); ranks record fragments locally and the host assembles them in rank order, byte-identical to the shuffled merge",
				t.Policy),
		})
	}
}

// fuseJobs collapses maximal runs of adjacent jobs into FusedJobs: any job
// may start a run and absorbs every immediately following shuffle-free job
// (Split, elided Distribute). One launch overhead and one barrier then cover
// the whole run. A job that still shuffles never joins a run it did not
// start, so every fused job contains at most one all-to-all exchange and
// checkpoint/recovery granularity per shuffle is unchanged.
func fuseJobs(p *core.Plan, rw *Rewrite) {
	local := func(j core.Job) bool {
		switch t := j.(type) {
		case *core.SplitJob:
			return true
		case *core.DistributeJob:
			return t.ElideShuffle
		default:
			return false
		}
	}
	var out []core.Job
	for i := 0; i < len(p.Jobs); {
		run := []core.Job{p.Jobs[i]}
		j := i + 1
		for j < len(p.Jobs) && local(p.Jobs[j]) {
			run = append(run, p.Jobs[j])
			j++
		}
		if len(run) == 1 {
			out = append(out, p.Jobs[i])
			i = j
			continue
		}
		ids := make([]string, len(run))
		for k, r := range run {
			ids[k] = r.JobID()
		}
		out = append(out, &core.FusedJob{ID: strings.Join(ids, "+"), Inner: run})
		rw.Fired = append(rw.Fired, Applied{
			Rule: "fuse",
			Jobs: ids,
			Detail: fmt.Sprintf("jobs after %s are shuffle-free; one launch overhead and one barrier cover all %d (saves %v per rank)",
				ids[0], len(run), vtime.Duration(len(run)-1)*core.JobLaunchOverhead),
		})
		i = j
	}
	p.Jobs = out
}

// Explain renders the rewrite for review: both job lists, every fired rule
// with its justification, and the predicted makespans when statistics were
// available. The output is golden-tested, so plan rewrites show up in diffs.
func (rw *Rewrite) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s: %d jobs -> %d jobs\n", rw.Before.WorkflowID, len(rw.Before.Jobs), len(rw.After.Jobs))
	b.WriteString("before:\n")
	for i, j := range rw.Before.Jobs {
		fmt.Fprintf(&b, "  job %d: %s\n", i+1, j.Describe())
	}
	b.WriteString("after:\n")
	for i, j := range rw.After.Jobs {
		fmt.Fprintf(&b, "  job %d: %s\n", i+1, j.Describe())
	}
	if len(rw.Fired) == 0 {
		b.WriteString("rules: none fired\n")
	} else {
		b.WriteString("rules:\n")
		for _, a := range rw.Fired {
			fmt.Fprintf(&b, "  - %s %s: %s\n", a.Rule, strings.Join(a.Jobs, "+"), a.Detail)
		}
	}
	if rw.Predicted.BeforeNS > 0 {
		fmt.Fprintf(&b, "predicted makespan: %v -> %v (%+.1f%%)\n",
			vtime.Duration(rw.Predicted.BeforeNS), vtime.Duration(rw.Predicted.AfterNS),
			100*(float64(rw.Predicted.AfterNS)/float64(rw.Predicted.BeforeNS)-1))
	}
	return b.String()
}
