package transfer

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"transer/internal/dataset"
	"transer/internal/ml"
)

// adapted is the classifier-independent output of a transform
// baseline's adapt step: the rows and labels its classifier trains on
// and the target rows that classifier scores. No training rows mark
// LocIT*'s collapsed selection, which labels every target a non-match.
type adapted struct {
	trainX [][]float64
	trainY []int
	score  [][]float64
}

// adapter is a transform baseline: a comparable configuration whose
// adapt step never reads the downstream classifier.
type adapter interface {
	adapt(t *Task) (*adapted, error)
}

// runAdapted is the Run of every transform baseline. The Table 2
// protocol runs each baseline once per classifier on one task, so the
// adapt step is memoised on the task and only fit/predict repeats.
// raw marks methods that also read the databases and pair lists.
func runAdapted(a adapter, raw bool, t *Task, factory ml.Factory) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	ad, err := t.adapt(a, raw)
	if err != nil {
		return nil, err
	}
	if len(ad.trainX) == 0 {
		n := len(t.XT)
		return &Result{Labels: make([]int, n), Proba: make([]float64, n)}, nil
	}
	clf, err := ml.FitWithFallback(factory, ad.trainX, ad.trainY)
	if err != nil {
		return nil, err
	}
	return resultFromProba(clf.PredictProba(ad.score)), nil
}

// memoKey identifies one memoised step: a comparable configuration
// value — a transform baseline's config, or TransER's
// core.SelectionKey — and a fingerprint of the task content the step
// reads.
type memoKey struct {
	cfg    any
	inputs [sha256.Size]byte
}

// memoEntry single-flights one step: concurrent runs on the same key
// wait for the first and share its output.
type memoEntry struct {
	once sync.Once
	out  any
	err  error
}

// memoMu guards every Task's memo map, including its lazy creation.
// It is held for the lookup only, never across a computed step.
var memoMu sync.Mutex

// adaptHook, when set, is called once per memoised step computed;
// tests use it to count them.
var adaptHook func()

// memoised returns the step keyed by cfg on t from the memo, running
// compute on the first request. computed reports whether this call
// ran it.
func memoised[T any](t *Task, cfg any, raw bool, compute func() (T, error)) (out T, computed bool, err error) {
	k := memoKey{cfg: cfg, inputs: fingerprint(t, raw)}
	memoMu.Lock()
	if t.memo == nil {
		t.memo = map[memoKey]*memoEntry{}
	}
	e := t.memo[k]
	if e == nil {
		e = &memoEntry{}
		t.memo[k] = e
	}
	memoMu.Unlock()
	e.once.Do(func() {
		if adaptHook != nil {
			adaptHook()
		}
		e.out, e.err = compute()
		computed = true
	})
	return e.out.(T), computed, e.err
}

// adapt returns a's adapt step on t from the memo, computing it on the
// first request.
func (t *Task) adapt(a adapter, raw bool) (*adapted, error) {
	ad, _, err := memoised(t, a, raw, func() (*adapted, error) { return a.adapt(t) })
	return ad, err
}

// fingerprint hashes the task content a memoised step reads: every
// section is length-prefixed and floats hash as IEEE bits, so +0.0
// and -0.0 differ. raw adds the databases' attribute values and the
// pair lists.
func fingerprint(t *Task, raw bool) [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	put := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	rows := func(x [][]float64) {
		put(len(x))
		for _, row := range x {
			put(len(row))
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			flush()
		}
	}
	rows(t.XS)
	put(len(t.YS))
	for _, y := range t.YS {
		put(y)
	}
	rows(t.XT)
	if raw {
		for _, db := range []*dataset.Database{t.SourceA, t.SourceB, t.TargetA, t.TargetB} {
			if db == nil {
				put(-1)
				continue
			}
			put(db.Schema.NumAttributes())
			put(len(db.Records))
			for _, r := range db.Records {
				put(len(r.Values))
				for _, v := range r.Values {
					put(len(v))
					buf = append(buf, v...)
				}
				flush()
			}
		}
		for _, ps := range [][]dataset.Pair{t.SourcePairs, t.TargetPairs} {
			put(len(ps))
			for _, p := range ps {
				put(p.A)
				put(p.B)
			}
		}
	}
	flush()
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}
