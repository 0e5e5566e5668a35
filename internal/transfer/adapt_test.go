package transfer

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"transer/internal/datagen"
	"transer/internal/dataset"
)

// adaptMethods are the transform baselines, sized for a small task.
func adaptMethods() []Method {
	return []Method{
		TCA{MaxLandmarks: 60, Seed: 1},
		DR{MaxWeightRef: 300, Seed: 1},
		LocIT{MaxTrainPoints: 100, Seed: 1},
		Coral{},
	}
}

// countAdapts installs adaptHook for the rest of the test and returns
// the running count of adapt steps computed.
func countAdapts(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	adaptHook = func() { n.Add(1) }
	t.Cleanup(func() { adaptHook = nil })
	return &n
}

// freshTask is a shallow copy of t without its adapt memo.
func freshTask(t *Task) *Task {
	cp := *t
	cp.memo = nil
	return &cp
}

// stratifiedHalf is a shallow copy of t whose source keeps every other
// row of each class, with the source pair list subset alike.
func stratifiedHalf(t *Task) *Task {
	cp := *t
	cp.XS, cp.YS, cp.SourcePairs = nil, nil, nil
	seen := map[int]int{}
	for i, y := range t.YS {
		seen[y]++
		if seen[y]%2 == 0 {
			continue
		}
		cp.XS = append(cp.XS, t.XS[i])
		cp.YS = append(cp.YS, t.YS[i])
		if t.SourcePairs != nil {
			cp.SourcePairs = append(cp.SourcePairs, t.SourcePairs[i])
		}
	}
	return &cp
}

// sameResult reports whether two results agree in labels and in the
// bit patterns of their probabilities.
func sameResult(a, b *Result) bool {
	if len(a.Labels) != len(b.Labels) || len(a.Proba) != len(b.Proba) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] || math.Float64bits(a.Proba[i]) != math.Float64bits(b.Proba[i]) {
			return false
		}
	}
	return true
}

func adaptTask() *Task {
	task, _ := domainTask(datagen.DBLPACM(0.03), datagen.DBLPScholar(0.03))
	return task
}

// TestAdaptOnce: the four classifiers of the Table 2 protocol share
// one adapt step per method and task, each still gets bitwise the
// result it gets on a fresh task, and a copy whose source rows differ
// misses the memo rather than reusing its original's adapted rows.
func TestAdaptOnce(t *testing.T) {
	task := adaptTask()
	adapts := countAdapts(t)
	for _, m := range adaptMethods() {
		before := adapts.Load()
		for _, c := range standardClassifiers() {
			res, err := m.Run(task, c.New)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), c.Name, err)
			}
			want, err := m.Run(freshTask(task), c.New)
			if err != nil {
				t.Fatalf("%s/%s on a fresh task: %v", m.Name(), c.Name, err)
			}
			if !sameResult(res, want) {
				t.Errorf("%s/%s: memoised result differs from a fresh task's", m.Name(), c.Name)
			}
		}
		// One adapt on the shared task plus one per fresh task.
		if got := adapts.Load() - before; got != 1+4 {
			t.Errorf("%s: %d adapt steps for four classifiers, want 1 (plus 4 fresh)", m.Name(), got-4)
		}

		half := stratifiedHalf(task)
		before = adapts.Load()
		res, err := m.Run(half, standardClassifiers()[0].New)
		if err != nil {
			t.Fatalf("%s on the subset copy: %v", m.Name(), err)
		}
		if adapts.Load() == before {
			t.Errorf("%s: copy with a swapped source hit its original's memo", m.Name())
		}
		want, err := m.Run(freshTask(half), standardClassifiers()[0].New)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(res, want) {
			t.Errorf("%s: subset copy's result differs from a fresh task's", m.Name())
		}
	}
}

// TestAdaptOnceConcurrent: goroutines running every method with every
// classifier on one shared task adapt once per method and reproduce
// the serial results bit for bit.
func TestAdaptOnceConcurrent(t *testing.T) {
	task := adaptTask()
	methods, classifiers := adaptMethods(), standardClassifiers()
	want := make([][]*Result, len(methods))
	for i, m := range methods {
		for _, c := range classifiers {
			res, err := m.Run(freshTask(task), c.New)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], res)
		}
	}
	adapts := countAdapts(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range len(methods) * len(classifiers) {
				// Each goroutine walks the grid from its own offset.
				cell := (k + g) % (len(methods) * len(classifiers))
				i, j := cell/len(classifiers), cell%len(classifiers)
				res, err := methods[i].Run(task, classifiers[j].New)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameResult(res, want[i][j]) {
					t.Errorf("%s/%s: concurrent result differs from serial", methods[i].Name(), classifiers[j].Name)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := adapts.Load(); got != int64(len(methods)) {
		t.Errorf("%d adapt steps for %d methods", got, len(methods))
	}
}

// TestMemoKeyCoversRawInputs: DR reads the attribute values and pair
// lists, so a copy that edits either misses the memo it shares with
// its original; Coral reads neither and hits.
func TestMemoKeyCoversRawInputs(t *testing.T) {
	task := adaptTask()
	factory := standardClassifiers()[2].New
	for _, m := range []Method{DR{MaxWeightRef: 300, Seed: 1}, Coral{}} {
		if _, err := m.Run(task, factory); err != nil {
			t.Fatal(err)
		}
	}
	valueEdited := *task // shares task's memo
	db := *task.TargetB
	db.Records = append([]dataset.Record(nil), db.Records...)
	rec := db.Records[0]
	rec.Values = append([]string(nil), rec.Values...)
	rec.Values[0] += "x"
	db.Records[0] = rec
	valueEdited.TargetB = &db
	pairsSwapped := *task
	pairsSwapped.TargetPairs = append([]dataset.Pair(nil), task.TargetPairs...)
	pairsSwapped.TargetPairs[0], pairsSwapped.TargetPairs[1] = task.TargetPairs[1], task.TargetPairs[0]

	adapts := countAdapts(t)
	for _, c := range []struct {
		name string
		task *Task
		m    Method
		want int64
	}{
		{"edited value", &valueEdited, DR{MaxWeightRef: 300, Seed: 1}, 1},
		{"swapped pairs", &pairsSwapped, DR{MaxWeightRef: 300, Seed: 1}, 1},
		{"edited value", &valueEdited, Coral{}, 0},
		{"swapped pairs", &pairsSwapped, Coral{}, 0},
	} {
		before := adapts.Load()
		if _, err := c.m.Run(c.task, factory); err != nil {
			t.Fatal(err)
		}
		if got := adapts.Load() - before; got != c.want {
			t.Errorf("%s on a copy with %s: %d adapt steps, want %d", c.m.Name(), c.name, got, c.want)
		}
	}
}

// BenchmarkAdaptOnceCell is one Table 2 cell on a cold task: every
// iteration builds a fresh Task and runs TCA with the four standard
// classifiers on MB → MSD at scale 0.05, so it measures the saving of
// adapting once per task, not reuse across iterations.
func BenchmarkAdaptOnceCell(b *testing.B) {
	base, _ := domainTask(datagen.MB(0.05), datagen.MSD(0.05))
	classifiers := standardClassifiers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := freshTask(base)
		for _, c := range classifiers {
			if _, err := (TCA{Seed: 1}).Run(task, c.New); err != nil {
				b.Fatal(err)
			}
		}
	}
}
