package transfer

import (
	"transer/internal/core"
	"transer/internal/ml"
)

// TransER adapts the core TransER framework to the Method interface so
// the experiment harness can run it alongside the baselines. The zero
// value uses the paper's default configuration.
type TransER struct {
	// Config holds TransER parameters; a zero Config is replaced by
	// core.DefaultConfig().
	Config core.Config
}

// Name implements Method.
func (TransER) Name() string { return "TransER" }

// Run implements Method. The SEL phase reads only the task's matrices
// and the config's core.SelectionKey, so its selection is memoised on
// the task like a transform baseline's adapt step: the Table 2
// protocol's four classifiers, and sweeps that vary only t_p, b or
// the seed, share one selection per task.
func (c TransER) Run(t *Task, factory ml.Factory) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cfg := c.Config
	// The zero-value check must ignore the observability handle: a
	// Config carrying only a span still means "use the paper
	// defaults".
	obsSpan := cfg.Obs
	cfg.Obs = nil
	if cfg == (core.Config{}) {
		cfg = core.DefaultConfig()
	}
	cfg.Obs = obsSpan
	res, err := core.RunWithSelection(t.XS, t.YS, t.XT, factory, cfg, func(selCfg core.Config) ([]int, bool) {
		sel, computed, _ := memoised(t, selCfg.SelectionKey(), false, func() ([]int, error) {
			return core.SelectInstances(t.XS, t.YS, t.XT, selCfg), nil
		})
		return sel, !computed
	})
	if err != nil {
		return nil, err
	}
	return &Result{Labels: res.Labels, Proba: res.Proba, Classifier: res.Classifier}, nil
}
