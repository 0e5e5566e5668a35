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

// memoKey identifies one adapt step: the method's configuration value
// and a fingerprint of the task content the method reads.
type memoKey struct {
	cfg    adapter
	inputs [sha256.Size]byte
}

// memoEntry single-flights one adapt step: concurrent runs on the same
// key wait for the first and share its output.
type memoEntry struct {
	once sync.Once
	out  *adapted
	err  error
}

// memoMu guards every Task's memo map, including its lazy creation.
// It is held for the lookup only, never across an adapt step.
var memoMu sync.Mutex

// adaptHook, when set, is called once per adapt step computed; tests
// use it to count them.
var adaptHook func()

// adapt returns a's adapt step on t from the memo, computing it on the
// first request.
func (t *Task) adapt(a adapter, raw bool) (*adapted, error) {
	k := memoKey{cfg: a, inputs: fingerprint(t, raw)}
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
		e.out, e.err = a.adapt(t)
	})
	return e.out, e.err
}

// fingerprint hashes the task content an adapt step reads as core's
// selection cache keys its inputs: every section is length-prefixed
// and floats hash as IEEE bits. raw adds the databases' attribute
// values and the pair lists.
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
