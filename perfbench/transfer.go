package main

import (
	"fmt"
	"strings"
	"time"

	"transer/internal/compare"
	"transer/internal/core"
	"transer/internal/datagen"
	"transer/internal/experiments"
	"transer/internal/ml"
	"transer/internal/obs"
	"transer/internal/pipeline"
	"transer/internal/transfer"
)

const (
	// gridScale is the transfer-grid data scale: the baselines' adapt
	// steps dominate at any scale, and 0.1 keeps one grid pass within
	// a run.
	gridScale = 0.1
	// paperScale is the scale TransER's default thresholds are
	// calibrated for.
	paperScale = 0.5
	// gridMethodSeed seeds the transfer-grid baselines instead of the
	// workload seed: TCA's eigensolver sweeps and DR's sampling depend
	// on it, and moved one pass by about 10% between workload seeds.
	gridMethodSeed = 1
)

// transferTask is one source→target task with the target's truth.
type transferTask struct {
	name  string
	task  *transfer.Task
	truth []int
}

// buildDomain runs the construction stages generate → block → compare
// → label on one builtin dataset through the pipeline's public stage
// functions, recording each stage under l when tracing.
func buildDomain(key string, scale float64, l *layers) (*pipeline.Domain, error) {
	b, ok := datagen.BuiltinByKey(key)
	if !ok {
		return nil, fmt.Errorf("unknown builtin dataset %q", key)
	}
	var p datagen.DomainPair
	l.span("pipeline.generate_ms", func() { p = b.Make(scale) })
	d := &pipeline.Domain{Name: p.Name, A: p.A, B: p.B, Scheme: compare.DefaultScheme(p.A.Schema)}
	l.span("pipeline.block_ms", func() { d.Pairs = pipeline.Block(p.A, p.B, p.Blocking) })
	l.span("pipeline.compare_ms", func() { d.X = pipeline.Compare(p.A, p.B, d.Pairs, d.Scheme) })
	l.span("pipeline.label_ms", func() { d.Y = pipeline.Label(d.Pairs, p.Truth()) })
	l.inc("pipeline.candidates", float64(len(d.Pairs)))
	return d, nil
}

// buildTasks builds every distinct dataset of the task list once and
// wires the tasks as the Table 2 harness does.
func buildTasks(keys [][2]string, scale float64, l *layers) ([]transferTask, error) {
	domains := map[string]*pipeline.Domain{}
	get := func(key string) (*pipeline.Domain, error) {
		if d, ok := domains[key]; ok {
			return d, nil
		}
		d, err := buildDomain(key, scale, l)
		domains[key] = d
		return d, err
	}
	var out []transferTask
	for _, k := range keys {
		src, err := get(k[0])
		if err != nil {
			return nil, err
		}
		tgt, err := get(k[1])
		if err != nil {
			return nil, err
		}
		out = append(out, transferTask{
			name: k[0] + " -> " + k[1],
			task: &transfer.Task{
				XS: src.X, YS: src.Y, XT: tgt.X,
				SourceA: src.A, SourceB: src.B, TargetA: tgt.A, TargetB: tgt.B,
				SourcePairs: src.Pairs, TargetPairs: tgt.Pairs,
			},
			truth: tgt.Y,
		})
	}
	return out, nil
}

// checkLabels validates one cell's output shape: a label and a
// probability in range for every target row.
func checkLabels(labels []int, proba []float64, n int) error {
	if len(labels) != n {
		return fmt.Errorf("%d labels for %d target rows", len(labels), n)
	}
	for i, y := range labels {
		if y != 0 && y != 1 {
			return fmt.Errorf("label %d of row %d", y, i)
		}
	}
	if proba != nil {
		if len(proba) != n {
			return fmt.Errorf("%d probabilities for %d target rows", len(proba), n)
		}
		for i, p := range proba {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("probability %v of row %d", p, i)
			}
		}
	}
	return nil
}

// passAnswer is what one pass of a transfer workload produced.
type passAnswer struct {
	digest   string
	cellF1   []float64
	methodF1 map[string][]float64
	// opMS is the wall time of each task's row of cells: the unit a
	// user of the Table 2 protocol waits for.
	opMS []float64
}

func newPassAnswer() *passAnswer { return &passAnswer{methodF1: map[string][]float64{}} }

func (a *passAnswer) meanF1() float64 {
	s := 0.0
	for _, f := range a.cellF1 {
		s += f
	}
	return s / float64(len(a.cellF1))
}

func (a *passAnswer) cell(method string, labels, truth []int) {
	var c confusion
	c.add(labels, truth)
	a.cellF1 = append(a.cellF1, c.f1())
	a.methodF1[method] = append(a.methodF1[method], c.f1())
}

// metricKey turns a method display name into a metric name component.
func metricKey(method string) string {
	return strings.ToLower(strings.TrimSuffix(method, "*"))
}

// gridMethods are the Table 2 methods with DTAL* left out, seeded as
// the Table 2 harness seeds them.
func gridMethods(seed int64) []transfer.Method {
	return []transfer.Method{
		transfer.TransER{},
		transfer.Naive{},
		transfer.DR{Seed: seed},
		transfer.LocIT{Seed: seed},
		transfer.TCA{Seed: seed},
		transfer.Coral{},
	}
}

// transferWorkload is the shared driver of the two transfer workloads:
// set up the tasks, run passes of cells, check that every pass gave
// the same answer, and in the traced run alternate untraced and traced
// passes.
type transferWorkload struct {
	keys  [][2]string
	scale float64
	// cells runs one pass over the tasks; l and mt are nil untraced.
	cells func(tasks []transferTask, l *layers, mt *mlTimer, ans *passAnswer, r *runner)
}

func (w transferWorkload) run(r *runner) error {
	r.scales["data"] = w.scale
	var tasks []transferTask
	build := func(l *layers) func() error {
		return func() error {
			var err error
			tasks, err = buildTasks(w.keys, w.scale, l)
			return err
		}
	}
	tl := newLayers()
	if r.trace {
		sl := newLayers()
		if err := build(sl)(); err != nil {
			return err
		}
		sl.report(r.set, 1)
	} else if err := r.setup(build(nil)); err != nil {
		return err
	}

	var answers []*passAnswer
	pass := func(l *layers, mt *mlTimer) func() error {
		return func() error {
			ans := newPassAnswer()
			w.cells(tasks, l, mt, ans, r)
			answers = append(answers, ans)
			return nil
		}
	}
	if !r.trace {
		times, err := r.measure(pass(nil, nil))
		if err != nil {
			return err
		}
		r.set("run_s", median(times))
		var ops [][]float64
		for _, a := range answers {
			ops = append(ops, a.opMS)
		}
		p50, p97 := opLatency(ops)
		r.set("p50_ms", p50)
		r.set("p97_ms", p97)
		r.set("f1", answers[0].meanF1())
	} else {
		mt := &mlTimer{}
		rt := startRuntimeDelta()
		plain, traced, err := r.alternate(pass(nil, nil), pass(tl, mt))
		if err != nil {
			return err
		}
		rt.report(r.set)
		n := float64(len(traced))
		tl.report(r.set, n)
		mt.report(r.set, n)
		if src := tl.count["core.source_rows"]; src > 0 {
			r.set("core.selected_share", tl.count["core.selected"]/src)
		}
		// core.source_rows is only the base of the share.
		delete(r.values, "core.source_rows")
		r.traceShares(tl.covered, plain, traced)
	}

	// Every pass, traced or not, must give the same answer.
	first := answers[0]
	for i, a := range answers[1:] {
		r.check(a.digest == first.digest, "pass %d label digest %s differs from pass 0's %s", i+1, a.digest, first.digest)
	}
	perMethod := map[string]float64{}
	for m, fs := range first.methodF1 {
		perMethod[m] = median(fs)
	}
	r.answer["label_digest"] = first.digest
	r.answer["mean_f1"] = first.meanF1()
	r.answer["method_median_f1"] = perMethod
	r.answer["cells"] = len(first.cellF1)
	r.answer["passes"] = len(answers)
	return nil
}

// runTransferGrid is the Table 2 protocol on the three representative
// tasks: every method with each standard classifier.
func runTransferGrid(r *runner) error {
	methods := gridMethods(gridMethodSeed)
	classifiers := experiments.StandardClassifiers(r.seed + 1)
	w := transferWorkload{
		keys:  datagen.RepresentativeTaskKeys(),
		scale: gridScale,
		cells: func(tasks []transferTask, l *layers, mt *mlTimer, ans *passAnswer, r *runner) {
			var d digest
			for _, t := range tasks {
				t0 := time.Now()
				for _, m := range methods {
					for _, c := range classifiers {
						labels, err := runCell(t, m, c, l, mt)
						if err == nil {
							d.ints(t.name+"/"+m.Name()+"/"+c.Name, labels)
							ans.cell(m.Name(), labels, t.truth)
						}
						r.op(err)
					}
				}
				ans.opMS = append(ans.opMS, ms(time.Since(t0)))
			}
			ans.digest = d.String()
		},
	}
	return w.run(r)
}

// runCell runs one (task, method, classifier) cell. Traced, it records
// the method's Run as a top-level span, the ml time inside it, and for
// TransER the core phase spans the program already emits.
func runCell(t transferTask, m transfer.Method, c ml.Named, l *layers, mt *mlTimer) ([]int, error) {
	factory := c.New
	var span *obs.Span
	if l != nil {
		factory = mt.wrap(factory)
		if te, ok := m.(transfer.TransER); ok {
			span = obs.NewDetachedSpan("transer")
			te.Config.Obs = span
			m = te
		}
	}
	var res *transfer.Result
	var err error
	before := mt.total()
	key := "transfer." + metricKey(m.Name())
	took := l.top(key+".run_ms", func() { res, err = m.Run(t.task, factory) })
	if l != nil {
		l.add(key+".adapt_ms", took-(mt.total()-before))
		if span != nil {
			span.End()
			recordCoreSpans(span, len(t.task.XS), l)
		}
	}
	if err == nil {
		err = checkLabels(res.Labels, res.Proba, len(t.task.XT))
	}
	if err != nil {
		return nil, fmt.Errorf("%s with %s on %s: %w", m.Name(), c.Name, t.name, err)
	}
	return res.Labels, nil
}

// recordCoreSpans reads the SEL/GEN/TCL spans core.Run recorded under
// span.
func recordCoreSpans(span *obs.Span, sourceRows int, l *layers) {
	for _, phase := range []string{"sel", "gen", "tcl"} {
		s := span.Find(phase)
		l.add("core."+phase+"_ms", s.Duration())
		for _, a := range s.Attrs() {
			switch {
			case phase == "sel" && a.Key == "selected":
				l.inc("core.selected", float64(a.Int))
			case phase == "tcl" && a.Key == "pseudo_kept":
				l.inc("core.high_confidence", float64(a.Int))
			}
		}
	}
	l.inc("core.source_rows", float64(sourceRows))
}

// runTranserPaper runs core.Run with the default configuration and each
// standard classifier on all eight paper tasks.
func runTranserPaper(r *runner) error {
	classifiers := experiments.StandardClassifiers(r.seed + 1)
	w := transferWorkload{
		keys:  datagen.PaperTaskKeys(),
		scale: paperScale,
		cells: func(tasks []transferTask, l *layers, mt *mlTimer, ans *passAnswer, r *runner) {
			var d digest
			for _, t := range tasks {
				t0 := time.Now()
				for _, c := range classifiers {
					labels, err := runCore(t, c, l, mt)
					if err == nil {
						d.ints(t.name+"/"+c.Name, labels)
						ans.cell("TransER", labels, t.truth)
					}
					r.op(err)
				}
				ans.opMS = append(ans.opMS, ms(time.Since(t0)))
			}
			ans.digest = d.String()
		},
	}
	return w.run(r)
}

// runCore runs one core.Run. Traced, it records the run as TransER's
// transfer-layer span, the ml time inside it, the phase spans and the
// selection counts from the returned Stats.
func runCore(t transferTask, c ml.Named, l *layers, mt *mlTimer) ([]int, error) {
	cfg := core.DefaultConfig()
	factory := c.New
	if l != nil {
		factory = mt.wrap(factory)
		cfg.Obs = obs.NewDetachedSpan("transer")
	}
	var res *core.Result
	var err error
	before := mt.total()
	took := l.top("transfer.transer.run_ms", func() { res, err = core.Run(t.task.XS, t.task.YS, t.task.XT, factory, cfg) })
	if l != nil {
		l.add("transfer.transer.adapt_ms", took-(mt.total()-before))
		cfg.Obs.End()
		for _, phase := range []string{"sel", "gen", "tcl"} {
			l.add("core."+phase+"_ms", cfg.Obs.Find(phase).Duration())
		}
		if err == nil {
			l.inc("core.selected", float64(res.Stats.Selected))
			l.inc("core.high_confidence", float64(res.Stats.HighConfidence))
			l.inc("core.source_rows", float64(res.Stats.SourceInstances))
		}
	}
	if err == nil {
		err = checkLabels(res.Labels, res.Proba, len(t.task.XT))
	}
	if err != nil {
		return nil, fmt.Errorf("core.Run with %s on %s: %w", c.Name, t.name, err)
	}
	return res.Labels, nil
}
