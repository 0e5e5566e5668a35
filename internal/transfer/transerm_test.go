package transfer

import (
	"math"
	"sync"
	"testing"

	"transer/internal/core"
	"transer/internal/datagen"
	"transer/internal/obs"
)

// TestTransERAdapterMatchesCore: the Method adapter must forward to
// core.Run verbatim — identical labels and probabilities for the same
// configuration.
func TestTransERAdapterMatchesCore(t *testing.T) {
	task, _ := blobTask(140, 70, 0.05, 61)
	cfg := core.Config{K: 5, TC: 0.7, TL: 0.7, TP: 0.9, B: 3, Seed: 1}
	viaMethod, err := TransER{Config: cfg}.Run(task, factory())
	if err != nil {
		t.Fatalf("adapter: %v", err)
	}
	direct, err := core.Run(task.XS, task.YS, task.XT, factory(), cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	for i := range direct.Proba {
		if viaMethod.Proba[i] != direct.Proba[i] || viaMethod.Labels[i] != direct.Labels[i] {
			t.Fatalf("row %d: adapter (%d, %v) vs core (%d, %v)", i,
				viaMethod.Labels[i], viaMethod.Proba[i], direct.Labels[i], direct.Proba[i])
		}
	}
}

// TestTransERZeroConfigUsesDefaults: the zero-value Config must mean
// core.DefaultConfig(), not a zero-threshold run.
func TestTransERZeroConfigUsesDefaults(t *testing.T) {
	defaultsFor(t, "zero-value", core.Config{}, 62)
}

// TestTransERObsOnlyConfigUsesDefaults: a Config carrying nothing but
// an observability span still means core.DefaultConfig(); Obs is the
// one field the zero check ignores.
func TestTransERObsOnlyConfigUsesDefaults(t *testing.T) {
	defaultsFor(t, "Obs-only", core.Config{Obs: obs.NewDetachedSpan("transer")}, 63)
}

// defaultsFor checks that TransER under cfg reproduces core.Run under
// core.DefaultConfig() on a blob task drawn from seed.
func defaultsFor(t *testing.T, name string, cfg core.Config, seed int64) {
	t.Helper()
	task, _ := blobTask(140, 70, 0.05, seed)
	got, err := TransER{Config: cfg}.Run(task, factory())
	if err != nil {
		t.Fatalf("%s config: %v", name, err)
	}
	explicit, err := core.Run(task.XS, task.YS, task.XT, factory(), core.DefaultConfig())
	if err != nil {
		t.Fatalf("default config: %v", err)
	}
	for i := range explicit.Proba {
		if got.Proba[i] != explicit.Proba[i] {
			t.Fatalf("row %d: %s Config %v, DefaultConfig %v", i, name, got.Proba[i], explicit.Proba[i])
		}
	}
}

// selTask is a real-data task whose default selection keeps rows of
// both classes, and whose selection changes with K.
func selTask() *Task {
	task, _ := domainTask(datagen.DBLPACM(0.1), datagen.DBLPScholar(0.1))
	return task
}

// selectionVariants are configurations that differ from the defaults
// only in fields the SEL phase does not read.
func selectionVariants() []core.Config {
	with := func(f func(*core.Config)) core.Config {
		c := core.DefaultConfig()
		f(&c)
		return c
	}
	return []core.Config{
		{},
		core.DefaultConfig(),
		with(func(c *core.Config) { c.TP = 0.8 }),
		with(func(c *core.Config) { c.B = 1 }),
		with(func(c *core.Config) { c.Seed = 9 }),
		with(func(c *core.Config) { c.DisableGENTCL = true }),
		with(func(c *core.Config) { c.Workers = 3 }),
		with(func(c *core.Config) { c.Obs = obs.NewDetachedSpan("transer") }),
	}
}

// matchesCore reports whether a TransER result equals core.Run's under
// cfg in labels and in the bit patterns of its probabilities.
func matchesCore(t *testing.T, task *Task, cfg core.Config, c int, got *Result) bool {
	t.Helper()
	if cfg == (core.Config{}) {
		cfg = core.DefaultConfig()
	}
	cfg.Obs = nil
	want, err := core.Run(task.XS, task.YS, task.XT, standardClassifiers()[c].New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sameResult(got, &Result{Labels: want.Labels, Proba: want.Proba})
}

// TestTransERSelectsOnce: the four classifiers and every variant that
// leaves the selection key alone share one SEL phase per task, and
// each run, cold or as a memo hit, reproduces core.Run bit for bit.
// A memo hit still records the sel span, with a sel_cache child in
// place of the selector's sub-spans.
func TestTransERSelectsOnce(t *testing.T) {
	task := selTask()
	selections := countAdapts(t)
	for c, clf := range standardClassifiers() {
		for v, cfg := range selectionVariants() {
			res, err := TransER{Config: cfg}.Run(task, clf.New)
			if err != nil {
				t.Fatalf("%s variant %d: %v", clf.Name, v, err)
			}
			if !matchesCore(t, task, cfg, c, res) {
				t.Errorf("%s variant %d: result differs from core.Run", clf.Name, v)
			}
		}
	}
	if got := selections.Load(); got != 1 {
		t.Errorf("%d selections computed, want 1", got)
	}

	cold, hit := obs.NewDetachedSpan("cold"), obs.NewDetachedSpan("hit")
	fresh := freshTask(task)
	for _, sp := range []*obs.Span{cold, hit} {
		if _, err := (TransER{Config: core.Config{Obs: sp}}).Run(fresh, factory()); err != nil {
			t.Fatal(err)
		}
		sp.End()
	}
	if cold.Find("sel_query") == nil || cold.Find("sel_cache") != nil {
		t.Errorf("cold run: want selector sub-spans and no sel_cache")
	}
	sel := hit.Find("sel")
	if sel.Find("sel_cache") == nil || sel.Find("sel_query") != nil {
		t.Errorf("memo hit: want a sel_cache child and no selector sub-spans")
	}
	var selected bool
	for _, a := range sel.Attrs() {
		selected = selected || a.Key == "selected"
	}
	if !selected {
		t.Errorf("memo hit: sel span lost its selected attribute")
	}
}

// TestTransERSELMemoMisses: a change to a field the selector reads, or
// a copy of the task with other source rows, labels or target rows,
// computes a new selection even though the copies share the original's
// memo.
func TestTransERSELMemoMisses(t *testing.T) {
	task := selTask()
	run := func(task *Task, cfg core.Config) {
		t.Helper()
		res, err := TransER{Config: cfg}.Run(task, factory())
		if err != nil {
			t.Fatal(err)
		}
		want, err := TransER{Config: cfg}.Run(freshTask(task), factory())
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(res, want) {
			t.Errorf("result differs from a fresh task's")
		}
	}
	run(task, core.Config{})

	with := func(f func(*core.Config)) core.Config {
		c := core.DefaultConfig()
		f(&c)
		return c
	}
	xs := *task
	xs.XS = append([][]float64(nil), task.XS...)
	xs.XS[0] = append([]float64(nil), task.XS[0]...)
	xs.XS[0][0] = math.Nextafter(xs.XS[0][0], 2)
	ys := *task
	ys.YS = append([]int(nil), task.YS...)
	ys.YS[0] ^= 1
	xt := *task
	xt.XT = task.XT[:len(task.XT)-1]

	selections := countAdapts(t)
	for _, c := range []struct {
		name string
		task *Task
		cfg  core.Config
	}{
		{"K", task, with(func(c *core.Config) { c.K = 5 })},
		{"TC", task, with(func(c *core.Config) { c.TC = 0.8 })},
		{"EnableSimV", task, with(func(c *core.Config) { c.EnableSimV = true })},
		{"XS copy", &xs, core.Config{}},
		{"YS copy", &ys, core.Config{}},
		{"XT copy", &xt, core.Config{}},
	} {
		before := selections.Load()
		run(c.task, c.cfg)
		// One selection on the shared memo plus one on the fresh task.
		if got := selections.Load() - before; got != 2 {
			t.Errorf("%s: %d selections computed, want 1 (plus 1 fresh)", c.name, got-1)
		}
	}
}

// TestTransERSELMemoConcurrent: goroutines running every variant with
// every classifier on one shared task select once and reproduce the
// serial results bit for bit. On the smaller task SEL keeps nothing,
// so every run takes the full-source fallback while sharing the
// memoised selection, which it must not write to.
func TestTransERSELMemoConcurrent(t *testing.T) {
	for _, task := range []*Task{selTask(), adaptTask()} {
		variants, classifiers := selectionVariants(), standardClassifiers()
		want := make([][]*Result, len(variants))
		for v, cfg := range variants {
			for _, c := range classifiers {
				res, err := TransER{Config: cfg}.Run(freshTask(task), c.New)
				if err != nil {
					t.Fatal(err)
				}
				want[v] = append(want[v], res)
			}
		}
		selections := countAdapts(t)
		var wg sync.WaitGroup
		cells := len(variants) * len(classifiers)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range cells {
					cell := (k + g*cells/4) % cells
					v, c := cell/len(classifiers), cell%len(classifiers)
					cfg := variants[v]
					if cfg.Obs != nil {
						cfg.Obs = obs.NewDetachedSpan("transer")
					}
					res, err := TransER{Config: cfg}.Run(task, classifiers[c].New)
					if err != nil {
						t.Error(err)
						return
					}
					if !sameResult(res, want[v][c]) {
						t.Errorf("variant %d/%s: concurrent result differs from serial", v, classifiers[c].Name)
					}
				}
			}(g)
		}
		wg.Wait()
		if got := selections.Load(); got != 1 {
			t.Errorf("%d selections computed, want 1", got)
		}
	}
}
