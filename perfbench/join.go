package main

import (
	"context"
	"fmt"
	"time"

	"transer/internal/compare"
	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/query"
)

const (
	// joinScale makes both join inputs large enough that blocking,
	// comparing and scoring take seconds.
	joinScale = 4.0
	// joinThreshold is τ, the mean-similarity cut the kept pairs pass.
	joinThreshold = 0.9
)

// joinKeys are the two join inputs. The planner picks
// sorted-neighbourhood blocking for the first and LSH for the second,
// so a planner or cost-model change shows here.
var joinKeys = []string{"DBLP-Scholar", "MB"}

type joinInput struct {
	key   string
	pair  datagen.DomainPair
	truth dataset.PairSet
}

func (in joinInput) job() query.Job {
	return query.Job{
		A:         in.pair.A,
		B:         in.pair.B,
		Threshold: joinThreshold,
		Force:     query.StrategyAuto,
		LSH:       in.pair.Blocking,
	}
}

// joinResult is one join's answer.
type joinResult struct {
	strategy   string
	candidates int
	kept       []dataset.Pair
	scores     []float64
}

// joinPass is the answer of one pass over both inputs.
type joinPass struct {
	digest string
	joins  []joinResult
	opMS   []float64
}

// runJoinUntraced runs both joins through query.Run.
func runJoinUntraced(ctx context.Context, inputs []joinInput) (*joinPass, error) {
	p := &joinPass{}
	for _, in := range inputs {
		t0 := time.Now()
		res, err := query.Run(ctx, in.job())
		p.opMS = append(p.opMS, ms(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("join %s: %w", in.key, err)
		}
		j := joinResult{strategy: res.Plan.Block.Strategy.String(), candidates: res.Candidates}
		for _, m := range res.Matches {
			j.kept = append(j.kept, dataset.Pair{A: m.A, B: m.B})
			j.scores = append(j.scores, m.Score)
		}
		if res.Kept != len(res.Matches) {
			return nil, fmt.Errorf("join %s: %d kept but %d returned without a limit", in.key, res.Kept, len(res.Matches))
		}
		p.joins = append(p.joins, j)
	}
	p.digest = joinDigest(p.joins)
	return p, nil
}

// runJoinTraced runs the same stages query.Execute runs, one public
// call at a time, timing each as a query-layer span.
func runJoinTraced(ctx context.Context, inputs []joinInput, l *layers) (*joinPass, error) {
	p := &joinPass{}
	for _, in := range inputs {
		job := in.job()
		var plan *query.Plan
		var pairs []dataset.Pair
		var x [][]float64
		var scores []float64
		var err error
		t0 := time.Now()
		l.top("query.plan_ms", func() { plan, err = query.PlanJob(job) })
		if err != nil {
			return nil, fmt.Errorf("join %s: plan: %w", in.key, err)
		}
		l.top("query.block_ms", func() { pairs = query.Candidates(job.A, job.B, plan.Block) })
		l.top("query.compare_ms", func() { x, err = query.CompareMatrix(ctx, job.A, job.B, plan.Scheme, pairs) })
		if err != nil {
			return nil, fmt.Errorf("join %s: compare: %w", in.key, err)
		}
		l.top("query.score_ms", func() { scores, err = query.ScoreMatrix(ctx, query.MeanScorer{}, x, job.Workers) })
		if err != nil {
			return nil, fmt.Errorf("join %s: score: %w", in.key, err)
		}
		j := joinResult{strategy: plan.Block.Strategy.String(), candidates: len(pairs)}
		for i, pr := range pairs {
			if scores[i] >= job.Threshold {
				j.kept = append(j.kept, pr)
				j.scores = append(j.scores, scores[i])
			}
		}
		p.opMS = append(p.opMS, ms(time.Since(t0)))
		l.inc("query.candidates", float64(len(pairs)))
		l.inc("query.kept", float64(len(j.kept)))
		p.joins = append(p.joins, j)
	}
	p.digest = joinDigest(p.joins)
	return p, nil
}

func joinDigest(joins []joinResult) string {
	var d digest
	for i, j := range joins {
		flat := make([]int, 0, 2*len(j.kept))
		for _, p := range j.kept {
			flat = append(flat, p.A, p.B)
		}
		d.ints(fmt.Sprint("join", i), flat)
	}
	return d.String()
}

// checkJoin re-scores every kept pair directly with the plan's
// comparison scheme, outside the query engine's vectorised operators:
// each must reproduce its score and pass τ.
func checkJoin(in joinInput, j joinResult) error {
	scheme := compare.DefaultScheme(in.pair.A.Schema)
	for i, p := range j.kept {
		v := scheme.Pair(in.pair.A.Records[p.A], in.pair.B.Records[p.B])
		s := compare.MeanSimilarity([][]float64{v})[0]
		if s != j.scores[i] || s < joinThreshold {
			return fmt.Errorf("join %s: kept pair (%d,%d) scored %v, rescored %v", in.key, p.A, p.B, j.scores[i], s)
		}
	}
	return nil
}

func runJoin(r *runner) error {
	r.scales["data"] = joinScale
	ctx := context.Background()
	var inputs []joinInput
	build := func(l *layers) func() error {
		return func() error {
			inputs = inputs[:0]
			for _, key := range joinKeys {
				b, ok := datagen.BuiltinByKey(key)
				if !ok {
					return fmt.Errorf("unknown builtin dataset %q", key)
				}
				var p datagen.DomainPair
				l.span("pipeline.generate_ms", func() { p = b.Make(joinScale) })
				inputs = append(inputs, joinInput{key: key, pair: p, truth: p.Truth()})
			}
			return nil
		}
	}

	var passes []*joinPass
	if !r.trace {
		if err := r.setup(build(nil)); err != nil {
			return err
		}
		times, err := r.measure(func() error {
			p, err := runJoinUntraced(ctx, inputs)
			if err != nil {
				return err
			}
			passes = append(passes, p)
			for range inputs {
				r.op(nil)
			}
			return nil
		})
		if err != nil {
			return err
		}
		var ops [][]float64
		for _, p := range passes {
			ops = append(ops, p.opMS)
		}
		p50, p97 := opLatency(ops)
		r.set("run_s", median(times))
		r.set("p50_ms", p50)
		r.set("p97_ms", p97)
	} else {
		sl := newLayers()
		if err := build(sl)(); err != nil {
			return err
		}
		sl.report(r.set, 1)
		tl := newLayers()
		rt := startRuntimeDelta()
		join := func(traced bool) func() error {
			return func() error {
				var p *joinPass
				var err error
				if traced {
					p, err = runJoinTraced(ctx, inputs, tl)
				} else {
					p, err = runJoinUntraced(ctx, inputs)
				}
				if err != nil {
					return err
				}
				passes = append(passes, p)
				for range inputs {
					r.op(nil)
				}
				return nil
			}
		}
		plain, traced, err := r.alternate(join(false), join(true))
		if err != nil {
			return err
		}
		rt.report(r.set)
		n := float64(len(traced))
		tl.report(r.set, n)
		if c := tl.count["query.candidates"]; c > 0 {
			r.set("query.kept_per_candidate", tl.count["query.kept"]/c)
		}
		r.traceShares(tl.covered, plain, traced)
	}

	first := passes[0]
	for i, p := range passes[1:] {
		r.check(p.digest == first.digest, "pass %d kept-pair digest %s differs from pass 0's %s", i+1, p.digest, first.digest)
	}
	var conf confusion
	kept := map[string]int{}
	candidates := map[string]int{}
	strategies := map[string]string{}
	for i, in := range inputs {
		j := first.joins[i]
		r.op(checkJoin(in, j))
		tp := 0
		for _, p := range j.kept {
			if in.truth[p] {
				tp++
			}
		}
		conf.tp += tp
		conf.fp += len(j.kept) - tp
		conf.fn += len(in.truth) - tp
		kept[in.key] = len(j.kept)
		candidates[in.key] = j.candidates
		strategies[in.key] = j.strategy
	}
	if !r.trace {
		r.set("f1", conf.f1())
	}
	r.answer["kept_digest"] = first.digest
	r.answer["kept"] = kept
	r.answer["candidates"] = candidates
	r.answer["strategy"] = strategies
	r.answer["passes"] = len(passes)
	r.answer["f1"] = conf.f1()
	return nil
}
