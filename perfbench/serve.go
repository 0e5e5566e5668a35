package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"transer/internal/core"
	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/ml"
	"transer/internal/ml/logreg"
	"transer/internal/model"
	"transer/internal/query"
	"transer/internal/serve"
	"transer/internal/stream"
	"transer/internal/testkit/streamdiff"
)

const (
	// modelScale is the training scale of the served model, as the
	// repository's model target trains it.
	modelScale = 0.25
	// storeScale sizes the entity store's dataset: its A side is
	// preloaded, and its B side supplies never-repeated ingests.
	storeScale = 4.0
	// nominalRPS is the open-loop rate the latency metrics are taken
	// at, well below the rate two connections saturate at.
	nominalRPS = 150
	// nominalShare is the share of the measuring time spent at the
	// nominal rate.
	nominalShare = 0.85
	// burstRequests is the length of one closed-loop burst, the serve
	// workload's run_s pass; burstCount bursts run after the open-loop
	// phase (the traced run makes every second one a traced burst).
	burstRequests = 1500
	burstCount    = 6
	// batchPairs and queryRecords size the batch and query requests.
	batchPairs   = 64
	queryRecords = 40
	// readLimit is the read p99 the max_rps ladder must stay under.
	readLimit = 50 * time.Millisecond
	// requestTimeout bounds each request; a timeout fails it.
	requestTimeout = 10 * time.Second
)

// Routes, in mix order. Ingest is the only write.
const (
	routeMatch = iota
	routeBatch
	routeQuery
	routeResolve
	routeIngest
	numRoutes
)

var routeNames = [numRoutes]string{"match", "batch", "query", "resolve", "ingest"}
var routePaths = [numRoutes]string{"/v1/match", "/v1/match/batch", "/v1/query", "/v1/resolve", "/v1/ingest"}

// routeMix is each route's share of requests, in percent.
var routeMix = [numRoutes]int{50, 10, 5, 15, 20}

// ladderFactors are the max_rps ladder's rates as multiples of the
// nominal rate.
var ladderFactors = []float64{1, 2, 4, 6, 8, 10}

// labelledPair is one record pair with its ground-truth label.
type labelledPair struct {
	a, b  dataset.Record
	match bool
}

// request is one pre-encoded request and what its answer is checked
// against.
type request struct {
	route int
	body  []byte
	lane  int
	due   time.Duration
	pairs []labelledPair // match, batch
	qa    []dataset.Record
	qb    []dataset.Record
	rec   dataset.Record // resolve, ingest
}

// serveState is everything the timed part of serve-mixed needs.
type serveState struct {
	matcher *model.Matcher
	store   *stream.Store
	cfg     stream.Config
	walPath string
	preload []dataset.Record
	// modelPairs and storeB are the record pools requests draw from.
	modelPairs []labelledPair
	storeB     []dataset.Record
	nextIngest int
	rng        *rand.Rand
	// nominal and bursts are the pre-encoded request lists of the
	// open-loop phase and of the closed-loop bursts.
	nominal []*request
	bursts  [][]*request
	// ingested lists the B records sent to /v1/ingest that were
	// admitted, in admission order.
	ingested []dataset.Record
}

// trainMatcher trains the served model: TransER from DBLP-ACM to
// DBLP-Scholar with logistic regression.
func trainMatcher(seed int64) (*model.Matcher, []labelledPair, error) {
	src, err := buildDomain("DBLP-ACM", modelScale, nil)
	if err != nil {
		return nil, nil, err
	}
	tgt, err := buildDomain("DBLP-Scholar", modelScale, nil)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	res, err := core.Run(src.X, src.Y, tgt.X, logreg.Factory(logreg.Config{}), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("training: %w", err)
	}
	pc, ok := res.Classifier.(ml.ParamClassifier)
	if !ok {
		return nil, nil, fmt.Errorf("trained classifier %T cannot be exported", res.Classifier)
	}
	art, err := model.New(src.Name+"→"+tgt.Name, pc, tgt.A.Schema, tgt.Scheme)
	if err != nil {
		return nil, nil, err
	}
	m, err := model.NewMatcher(art)
	if err != nil {
		return nil, nil, err
	}
	pairs := make([]labelledPair, len(tgt.Pairs))
	for i, p := range tgt.Pairs {
		pairs[i] = labelledPair{a: tgt.A.Records[p.A], b: tgt.B.Records[p.B], match: tgt.Y[i] == 1}
	}
	return m, pairs, nil
}

// newStore builds an entity store scoring like m, with a WAL at path,
// preloaded with records.
func newStore(m *model.Matcher, path string, records []dataset.Record) (*stream.Store, stream.Config, error) {
	cfg := stream.FromMatcher(m)
	st, err := stream.NewStore(cfg)
	if err != nil {
		return nil, cfg, err
	}
	wal, err := stream.OpenWAL(path)
	if err != nil {
		return nil, cfg, err
	}
	st.AttachWAL(wal)
	ctx := context.Background()
	for _, rec := range records {
		if _, err := st.Ingest(ctx, rec); err != nil {
			st.CloseWAL()
			return nil, cfg, fmt.Errorf("preloading the store: %w", err)
		}
	}
	return st, cfg, nil
}

// tagged copies records with ids prefixed by side, unique across the
// store's two sides.
func tagged(side string, recs []dataset.Record) []dataset.Record {
	out := make([]dataset.Record, len(recs))
	for i, r := range recs {
		out[i] = dataset.Record{ID: side + "/" + r.ID, Values: r.Values}
	}
	return out
}

func setupServe(r *runner, walName string) (*serveState, error) {
	m, pairs, err := trainMatcher(r.seed)
	if err != nil {
		return nil, err
	}
	b, _ := datagen.BuiltinByKey("DBLP-Scholar")
	data := b.Make(storeScale)
	s := &serveState{
		matcher:    m,
		walPath:    filepath.Join(r.scratch, walName),
		preload:    tagged("a", data.A.Records),
		modelPairs: pairs,
		storeB:     tagged("b", data.B.Records),
		rng:        rand.New(rand.NewSource(r.seed)),
	}
	s.rng.Shuffle(len(s.storeB), func(i, j int) { s.storeB[i], s.storeB[j] = s.storeB[j], s.storeB[i] })
	if s.store, s.cfg, err = newStore(m, s.walPath, s.preload); err != nil {
		return nil, err
	}
	nominalFor := float64(r.seconds) * nominalShare / float64(time.Second)
	if s.nominal, err = s.schedule(int(nominalRPS*nominalFor), nominalRPS); err != nil {
		return nil, err
	}
	for i := 0; i < burstCount; i++ {
		b, err := s.schedule(burstRequests, 0)
		if err != nil {
			return nil, err
		}
		s.bursts = append(s.bursts, b)
	}
	return s, nil
}

func payload(m *model.Matcher, rec dataset.Record) serve.RecordPayload {
	p := serve.RecordPayload{}
	for i, name := range m.AttributeNames() {
		p[name] = rec.Values[i]
	}
	return p
}

// drawPair draws a model-domain pair, matches and non-matches equally
// often so the served decisions have an F1 worth reading.
func (s *serveState) drawPair() labelledPair {
	want := s.rng.Intn(2) == 0
	for {
		p := s.modelPairs[s.rng.Intn(len(s.modelPairs))]
		if p.match == want {
			return p
		}
	}
}

// newRequest draws and encodes one request of the given route.
func (s *serveState) newRequest(route int) (*request, error) {
	rq := &request{route: route}
	var body any
	switch route {
	case routeMatch:
		p := s.drawPair()
		rq.pairs = []labelledPair{p}
		body = serve.MatchRequest{A: payload(s.matcher, p.a), B: payload(s.matcher, p.b)}
	case routeBatch:
		var br serve.BatchRequest
		for i := 0; i < batchPairs; i++ {
			p := s.drawPair()
			rq.pairs = append(rq.pairs, p)
			br.Pairs = append(br.Pairs, serve.MatchRequest{A: payload(s.matcher, p.a), B: payload(s.matcher, p.b)})
		}
		body = br
	case routeQuery:
		var qr serve.QueryRequest
		for i := 0; i < queryRecords; i++ {
			p := s.drawPair()
			rq.qa = append(rq.qa, p.a)
			rq.qb = append(rq.qb, p.b)
			qr.A = append(qr.A, payload(s.matcher, p.a))
			qr.B = append(qr.B, payload(s.matcher, p.b))
		}
		body = qr
	case routeResolve:
		rq.rec = s.storeB[s.rng.Intn(len(s.storeB))]
		body = stream.WireRecord{Attrs: payload(s.matcher, rq.rec)}
	case routeIngest:
		if s.nextIngest == len(s.storeB) {
			return nil, errors.New("the store's B side has no unused record left to ingest")
		}
		rq.rec = s.storeB[s.nextIngest]
		s.nextIngest++
		body = map[string]any{"records": []stream.WireRecord{{ID: rq.rec.ID, Attrs: payload(s.matcher, rq.rec)}}}
	}
	var err error
	rq.body, err = json.Marshal(body)
	return rq, err
}

// schedule draws n requests of the mix: exactly each route's share of
// n in a seeded random order, so runs differ in records and order but
// not in how much of each kind of work they do. Arrivals are a Poisson
// process at rate rps (rps 0: a closed-loop list with no due times).
// Every write goes to lane 0, so ingests reach the store in schedule
// order; reads are spread so both lanes carry half the requests.
func (s *serveState) schedule(n int, rps float64) ([]*request, error) {
	routes := make([]int, 0, n)
	for route, pct := range routeMix {
		for i := 0; i < n*pct/100; i++ {
			routes = append(routes, route)
		}
	}
	s.rng.Shuffle(len(routes), func(i, j int) { routes[i], routes[j] = routes[j], routes[i] })
	out := make([]*request, 0, len(routes))
	var at float64
	reads := 0
	for _, route := range routes {
		rq, err := s.newRequest(route)
		if err != nil {
			return nil, err
		}
		if route != routeIngest {
			// 3 of every 8 reads join the writes on lane 0: 20% + 30%.
			if reads%8 >= 3 {
				rq.lane = 1
			}
			reads++
		}
		if rps > 0 {
			at += s.rng.ExpFloat64() / rps
			rq.due = time.Duration(at * float64(time.Second))
		}
		out = append(out, rq)
	}
	return out, nil
}

func runServeMixed(r *runner) error {
	r.scales["model"] = modelScale
	r.scales["store"] = storeScale
	var s *serveState
	builds := 0
	build := func() error {
		if s != nil {
			if err := s.store.CloseWAL(); err != nil {
				return err
			}
		}
		builds++
		var err error
		s, err = setupServe(r, fmt.Sprintf("wal-%d.jsonl", builds))
		return err
	}
	if r.trace {
		if err := build(); err != nil {
			return err
		}
	} else if err := r.setup(build); err != nil {
		return err
	}
	defer s.store.CloseWAL()

	srv, err := serve.New(serve.Config{Registry: serve.StaticRegistry(s.matcher), Stream: s.store})
	if err != nil {
		return err
	}
	client, stop, err := startServer(srv.Handler())
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()
	shed0, err := client.shedTotal()
	if err != nil {
		return err
	}
	rt := startRuntimeDelta()

	var all []*request
	var outs []outcome
	record := func(reqs []*request, o []outcome) {
		all = append(all, reqs...)
		outs = append(outs, o...)
	}

	// Nominal open-loop phase: the latency metrics.
	nomOut := client.drive(s.nominal, true, time.Second)
	record(s.nominal, nomOut)
	nom := summarise(s.nominal, nomOut, true)

	// Closed-loop bursts: run_s. The traced run alternates plain bursts
	// with bursts whose outcomes are also summarised per route, the
	// bookkeeping tracing adds.
	var bursts, tracedBursts []float64
	for i, reqs := range s.bursts {
		runtime.GC()
		t0 := time.Now()
		o := client.drive(reqs, false, 0)
		if r.trace && i%2 == 1 {
			summarise(reqs, o, false)
			tracedBursts = append(tracedBursts, time.Since(t0).Seconds())
		} else {
			bursts = append(bursts, time.Since(t0).Seconds())
		}
		record(reqs, o)
	}
	fmt.Fprintf(r.stderr, "perfbench: serve-mixed: burst seconds %.3f traced %.3f\n", bursts, tracedBursts)

	var ladder []ladderRung
	if r.trace {
		if ladder, err = runLadder(s, client, record); err != nil {
			return err
		}
	}
	shed1, err := client.shedTotal()
	if err != nil {
		return err
	}
	if r.trace {
		rt.report(r.set)
	}
	stopped = true
	if err := stop(); err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}

	f1, err := checkServe(r, s, all, outs)
	if err != nil {
		return err
	}
	r.answer["nominal_reads"] = len(nom.readMS)
	r.answer["bursts"] = len(bursts)
	if !r.trace {
		r.set("run_s", median(bursts))
		r.set("p50_ms", median(nom.readMS))
		r.set("p97_ms", percentile(nom.readMS, 0.97))
		r.set("f1", f1)
		return nil
	}

	for route := 0; route < numRoutes; route++ {
		name := "serve." + routeNames[route]
		r.set(name+".p50_ms", median(nom.routeMS[route]))
		r.set(name+".p99_ms", percentile(nom.routeMS[route], 0.99))
		r.set(name+".requests", float64(len(nom.routeMS[route])+nom.routeFail[route]))
		r.set(name+".failed", float64(nom.routeFail[route]))
	}
	r.set("serve.read_p50_ms", median(nom.readMS))
	r.set("serve.read_p99_ms", percentile(nom.readMS, 0.99))
	r.set("serve.write_p50_ms", median(nom.routeMS[routeIngest]))
	r.set("serve.write_p99_ms", percentile(nom.routeMS[routeIngest], 0.99))
	r.set("serve.shed", float64(shed1-shed0))
	r.set("loadgen.late_p99_ms", percentile(nom.lateMS, 0.99))
	r.set("loadgen.late_max_ms", percentile(nom.lateMS, 1))
	maxRPS := 0.0
	for _, rung := range ladder {
		if !rung.OK {
			break
		}
		maxRPS = rung.RPS
	}
	r.set("serve.max_rps", maxRPS)
	r.answer["ladder"] = ladder
	r.set("trace.overhead_share", median(tracedBursts)/median(bursts)-1)
	return replayDirect(r, s, s.nominal, nom)
}

// ladderRung is one fixed rate of the max_rps ladder.
type ladderRung struct {
	RPS        float64 `json:"rps"`
	ReadP99MS  float64 `json:"read_p99_ms"`
	Failed     int     `json:"failed"`
	LateGrowMS float64 `json:"late_growth_ms"`
	OK         bool    `json:"ok"`
}

// runLadder drives the mix open-loop at each ladder rate in turn and
// stops at the first rate that misses the read latency limit, fails a
// request, or falls behind its schedule (median lateness over the last
// third of the rung more than 5 ms above the first third's).
func runLadder(s *serveState, c *serveClient, record func([]*request, []outcome)) ([]ladderRung, error) {
	const rungFor = time.Second
	var out []ladderRung
	for _, f := range ladderFactors {
		rps := nominalRPS * f
		reqs, err := s.schedule(int(rps*rungFor.Seconds()), rps)
		if err != nil {
			return nil, err
		}
		o := c.drive(reqs, true, time.Second)
		record(reqs, o)
		ps := summarise(reqs, o, true)
		third := len(ps.lateMS) / 3
		growth := 0.0
		if third > 0 {
			growth = median(ps.lateMS[len(ps.lateMS)-third:]) - median(ps.lateMS[:third])
		}
		p99 := percentile(ps.readMS, 0.99)
		ok := ps.failed == 0 && p99 < ms(readLimit) && growth <= 5
		out = append(out, ladderRung{RPS: rps, ReadP99MS: p99, Failed: ps.failed, LateGrowMS: growth, OK: ok})
		if !ok {
			break
		}
	}
	return out, nil
}

// checkServe checks every response and the final store, counting each
// request and each store check as an operation, and returns the F1 of
// the served match decisions against ground truth.
func checkServe(r *runner, s *serveState, reqs []*request, outs []outcome) (float64, error) {
	var conf confusion
	m := s.matcher
	for i, rq := range reqs {
		o := outs[i]
		if o.err == nil && o.status != http.StatusOK {
			o.err = fmt.Errorf("status %d: %s", o.status, strings.TrimSpace(string(o.body)))
		}
		if o.err == nil {
			o.err = checkResponse(m, rq, o.body, &conf)
		}
		if o.err == nil && rq.route == routeIngest {
			s.ingested = append(s.ingested, rq.rec)
		}
		if o.err != nil {
			o.err = fmt.Errorf("%s request %d: %w", routeNames[rq.route], i, o.err)
		}
		r.op(o.err)
	}

	ctx := context.Background()
	live, err := s.store.Fingerprint()
	if err != nil {
		return 0, err
	}
	universe := &dataset.Database{Name: "store", Schema: m.Schema}
	universe.Records = append(append(universe.Records, s.preload...), s.ingested...)
	want, err := streamdiff.BatchPartition(ctx, universe, s.cfg)
	if err != nil {
		return 0, err
	}
	got, err := partitionOf(s.store, universe)
	r.op(err)
	if err == nil {
		r.check(streamdiff.Equal(want, got), "store partition (%d groups) differs from the batch reference (%d groups)", len(got), len(want))
	}
	if err := s.store.CloseWAL(); err != nil {
		return 0, err
	}
	recovered, err := stream.Recover(s.cfg, "", s.walPath)
	if err != nil {
		return 0, fmt.Errorf("recovering the store from its WAL: %w", err)
	}
	rfp, err := recovered.Fingerprint()
	if err != nil {
		return 0, err
	}
	r.check(rfp == live, "store recovered from the WAL has fingerprint %s, the live store %s", rfp[:16], live[:16])
	st := s.store.Stats()
	r.answer["store_fingerprint"] = live
	r.answer["store_records"] = st.Records
	r.answer["store_entities"] = st.Entities
	r.answer["store_merges"] = st.Merges
	r.answer["model_fingerprint"] = m.Fingerprint()
	r.answer["match_f1"] = conf.f1()
	return conf.f1(), nil
}

// partitionOf is the store's partition in the canonical form of
// streamdiff, over indices into universe.
func partitionOf(st *stream.Store, universe *dataset.Database) ([][]int, error) {
	index := make(map[string]int, len(universe.Records))
	for i, rec := range universe.Records {
		index[rec.ID] = i
	}
	groups := [][]int{}
	for _, ids := range st.Partition() {
		g := make([]int, 0, len(ids))
		for _, id := range ids {
			i, ok := index[id]
			if !ok {
				return nil, fmt.Errorf("store holds record %q the benchmark never sent", id)
			}
			g = append(g, i)
		}
		sort.Ints(g)
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups, nil
}

// checkResponse checks one 200 response against the request: scores
// must equal the matcher's own on the same vector, query matches a
// direct query.Run, ingests one admitted record.
func checkResponse(m *model.Matcher, rq *request, body []byte, conf *confusion) error {
	switch rq.route {
	case routeMatch:
		var resp serve.MatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkScores(m, rq.pairs, []float64{resp.Probability}, conf)
	case routeBatch:
		var resp serve.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		probs := make([]float64, len(resp.Results))
		for i, res := range resp.Results {
			if res.Index != i {
				return fmt.Errorf("result %d has index %d", i, res.Index)
			}
			probs[i] = res.Probability
		}
		return checkScores(m, rq.pairs, probs, conf)
	case routeQuery:
		var resp serve.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		want, err := directQuery(m, rq)
		if err != nil {
			return err
		}
		if len(resp.Matches) != len(want.Matches) {
			return fmt.Errorf("%d matches, query.Run finds %d", len(resp.Matches), len(want.Matches))
		}
		for i, qm := range resp.Matches {
			w := want.Matches[i]
			if qm.A != w.A || qm.B != w.B || qm.Probability != w.Score {
				return fmt.Errorf("match %d is (%d,%d,%v), query.Run gives (%d,%d,%v)", i, qm.A, qm.B, qm.Probability, w.A, w.B, w.Score)
			}
		}
	case routeResolve:
		var resp serve.ResolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Matched != (resp.Score >= m.Artifact.Threshold) || resp.Matched != (len(resp.Matches) > 0) {
			return fmt.Errorf("resolve matched=%v with score %v and %d matches", resp.Matched, resp.Score, len(resp.Matches))
		}
	case routeIngest:
		var resp serve.IngestResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Count != 1 || len(resp.Results) != 1 || resp.Results[0].RecordID != rq.rec.ID {
			return fmt.Errorf("ingest of %s answered %d results", rq.rec.ID, resp.Count)
		}
	}
	return nil
}

// checkScores compares served probabilities with Matcher.Score on the
// same vectors, and tallies the decisions against ground truth.
func checkScores(m *model.Matcher, pairs []labelledPair, probs []float64, conf *confusion) error {
	if len(probs) != len(pairs) {
		return fmt.Errorf("%d probabilities for %d pairs", len(probs), len(pairs))
	}
	x := make([][]float64, len(pairs))
	for i, p := range pairs {
		x[i] = m.Vector(p.a, p.b)
	}
	want := m.Score(x, 1)
	for i, p := range pairs {
		if probs[i] != want[i] {
			return fmt.Errorf("pair %d served probability %v, Matcher.Score gives %v", i, probs[i], want[i])
		}
		pred, truth := 0, 0
		if m.Decide(probs[i]) {
			pred = 1
		}
		if p.match {
			truth = 1
		}
		conf.add([]int{pred}, []int{truth})
	}
	return nil
}

// directQuery runs a query request's join as the /v1/query handler
// does, without HTTP.
func directQuery(m *model.Matcher, rq *request) (*query.Result, error) {
	side := func(name string, recs []dataset.Record) *dataset.Database {
		db := &dataset.Database{Name: name, Schema: m.Schema}
		for i, rec := range recs {
			db.Records = append(db.Records, dataset.Record{ID: fmt.Sprint(name, i), Values: rec.Values})
		}
		return db
	}
	scheme := m.Scheme
	return query.Run(context.Background(), query.Job{
		A: side("a", rq.qa), B: side("b", rq.qb),
		Scheme: &scheme, Scorer: m, Threshold: m.Artifact.Threshold,
	})
}

// replayDirect replays the nominal phase's requests without HTTP: the
// model's Vector and Score for match and batch, query.Run for query,
// and the store's Ingest and Resolve on a second, identically preloaded
// store with a WAL. serve.overhead_ms is the mean send-to-response
// time of the requests less their mean direct time.
func replayDirect(r *runner, s *serveState, reqs []*request, nom phaseStats) error {
	st, _, err := newStore(s.matcher, filepath.Join(r.scratch, "replay.jsonl"), s.preload)
	if err != nil {
		return err
	}
	defer st.CloseWAL()
	ctx := context.Background()
	l := newLayers()
	m := s.matcher
	var direct time.Duration
	var ingests, resolves, candidates, merges float64
	t0 := time.Now()
	for _, rq := range reqs {
		switch rq.route {
		case routeMatch, routeBatch:
			x := make([][]float64, len(rq.pairs))
			direct += l.top("model.vector_ms", func() {
				for i, p := range rq.pairs {
					x[i] = m.Vector(p.a, p.b)
				}
			})
			direct += l.top("model.score_ms", func() { m.Score(x, 0) })
		case routeQuery:
			direct += l.top("query.direct_ms", func() { _, err = directQuery(m, rq) })
		case routeResolve:
			direct += l.top("stream.resolve_ms", func() { _, err = st.Resolve(ctx, rq.rec) })
			resolves++
		case routeIngest:
			var res stream.IngestResult
			direct += l.top("stream.ingest_ms", func() { res, err = st.Ingest(ctx, rq.rec) })
			ingests++
			candidates += float64(res.Candidates)
			merges += float64(len(res.Merges))
		}
		if err != nil {
			return fmt.Errorf("direct replay of a %s request: %w", routeNames[rq.route], err)
		}
	}
	wall := time.Since(t0)
	perCall := func(name string, n float64) {
		if n > 0 {
			r.set(name, ms(l.busy[name])/n)
		}
	}
	var nMatch float64
	for _, rq := range reqs {
		if rq.route == routeMatch || rq.route == routeBatch {
			nMatch++
		}
	}
	perCall("model.vector_ms", nMatch)
	perCall("model.score_ms", nMatch)
	perCall("stream.ingest_ms", ingests)
	perCall("stream.resolve_ms", resolves)
	if ingests > 0 {
		r.set("stream.candidates_per_ingest", candidates/ingests)
	}
	r.set("stream.merges", merges)
	if nom.ok > 0 {
		r.set("serve.overhead_ms", (nom.serviceMS-ms(direct))/float64(nom.ok))
	}
	r.set("trace.unattributed_share", 1-l.covered.Seconds()/wall.Seconds())
	return nil
}
