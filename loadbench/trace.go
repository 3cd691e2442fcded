package main

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"snap1/internal/engine"
	"snap1/internal/isa"
	"snap1/internal/kbfile"
	"snap1/internal/machine"
	"snap1/internal/partition"
	"snap1/internal/perfmon"
	"snap1/internal/semnet"
)

// traceRequests is how many requests of the measured stream the traced
// replay times, after replaying the warm-up untimed. A fixed count, so
// the simulated-time counts repeat exactly for a seed.
const traceRequests = 2000

// span is one timed call across a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for none
	Req    int    `json:"req"`    // replay index of the request
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// snapdEngineOptions are the engine options snapd's flag defaults
// select, so each in-process instance serves exactly as snapd does.
func snapdEngineOptions(writes bool) []engine.Option {
	return []engine.Option{
		engine.WithReplicas(4),
		engine.WithMaxBatch(8),
		engine.WithQueueCap(256),
		engine.WithCacheCap(128),
		engine.WithResultCache(1024),
		engine.WithQueryTimeout(10 * time.Second),
		engine.WithRetryPolicy(engine.RetryPolicy{MaxAttempts: 3}),
		engine.WithFusion(8),
		engine.WithOptLevel(2),
		engine.WithWrites(writes),
		engine.WithMachineOptions(
			machine.WithClusters(16),
			machine.WithMarkerUnits(2, 0),
			machine.WithPartition("semantic"),
			machine.WithDeterministic(true),
		),
		engine.WithMonitor(perfmon.NewCollector(4096)),
	}
}

// replay is the request sequence every traced instance receives: the
// warm-up, then the first traceRequests of the measured schedule, each
// create followed by its probe read, as the open loop sends them.
type replay struct {
	reqs  []request
	first int // index of the first timed request
}

func newReplay(p plan) replay {
	var r replay
	add := func(q request) {
		r.reqs = append(r.reqs, q)
		if q.probe != "" {
			r.reqs = append(r.reqs, request{class: classProbe, text: q.probe})
		}
	}
	for _, q := range p.warm {
		add(q)
	}
	r.first = len(r.reqs)
	for _, ph := range p.phases {
		for _, q := range ph.reqs {
			if len(r.reqs)-r.first >= traceRequests {
				return r
			}
			add(q)
		}
	}
	return r
}

// timings are one instance's per-request durations (0 where the layer
// did not run for that request).
type timings []time.Duration

// layerRun is everything the traced passes measured.
type layerRun struct {
	rttPlain, rttTraced, handler timings // HTTP instances
	compile, submit              timings // engine instance
	assemble, optimize, run      timings // standalone machine instance
	delta                        []time.Duration
	compileMiss                  []bool // the engine's compile cache missed
	executed                     []bool // the engine ran the query (result-cache miss)
	steps                        []int64
	vt                           [5][]float64 // total, broadcast, comm, sync, collect; µs per run
	parse, newEngine, loadKB     []time.Duration
	part                         []time.Duration
}

// traceRun replays the plan through one instance per layer, in process,
// and returns the per-layer metrics together with snapd's counter
// deltas from the measured window.
func traceRun(ctx context.Context, w workload, p plan, kbPath, workdir string, seed int64, sd statsDelta, rep e2eReport) (map[string]metric, error) {
	t := &tracer{epoch: time.Now()}
	rp := newReplay(p)
	lr := &layerRun{}
	for _, pass := range []func(context.Context, *tracer, replay, string, bool, *layerRun) error{
		httpPass, enginePass, machinePass,
	} {
		if err := pass(ctx, t, rp, kbPath, w.writes, lr); err != nil {
			return nil, err
		}
	}
	spanPath := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := t.write(spanPath); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans over %d timed requests (after %d warm-up) written to %s\n",
		len(t.spans), len(rp.reqs)-rp.first, rp.first, spanPath)
	return layerMetrics(lr, rp, sd, rep), nil
}

// parseKB reads the knowledge base file and times kbfile.Parse.
func parseKB(path string, lr *layerRun) (*semnet.KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	start := time.Now()
	kb, err := kbfile.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	lr.parse = append(lr.parse, time.Since(start))
	return kb, nil
}

func newEngine(kbPath string, writes bool, lr *layerRun) (*engine.Engine, error) {
	kb, err := parseKB(kbPath, lr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	e, err := engine.New(kb, snapdEngineOptions(writes)...)
	if err != nil {
		return nil, err
	}
	lr.newEngine = append(lr.newEngine, time.Since(start))
	return e, nil
}

// spanHeader carries the client span's index and the request's replay
// index to the handler wrapper, as "span,request".
const spanHeader = "X-Loadbench-Span"

// httpInstance is one engine served through engine.NewServer on
// loopback, with a one-connection client.
type httpInstance struct {
	e      *engine.Engine
	srv    *http.Server
	served chan error
	client *http.Client
	base   string
	t      *tracer // nil: untraced
	rtt    timings
	// handler is the wrapped handler's span per request (traced only);
	// the server goroutine writes it before the answer is flushed.
	handler timings
}

func newHTTPInstance(kbPath string, writes bool, n int, t *tracer, lr *layerRun) (*httpInstance, error) {
	e, err := newEngine(kbPath, writes, lr)
	if err != nil {
		return nil, err
	}
	hi := &httpInstance{e: e, t: t, rtt: make(timings, n), handler: make(timings, n), served: make(chan error, 1)}
	h := engine.NewServer(e)
	if t != nil {
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			ps, rs, _ := strings.Cut(r.Header.Get(spanHeader), ",")
			parent, _ := strconv.Atoi(ps)
			req, _ := strconv.Atoi(rs)
			s := t.begin("server.handler", parent, req)
			inner.ServeHTTP(rw, r)
			hi.handler[req] = t.end(s)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return nil, err
	}
	hi.srv = &http.Server{Handler: h}
	go func() { hi.served <- hi.srv.Serve(ln) }()
	hi.base = "http://" + ln.Addr().String()
	hi.client = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	return hi, nil
}

func (hi *httpInstance) close(ctx context.Context) {
	hi.client.CloseIdleConnections()
	_ = hi.srv.Shutdown(ctx) // every request has been answered
	<-hi.served
	hi.e.Close()
}

// send posts replay request i and times the round trip.
func (hi *httpInstance) send(ctx context.Context, i int, q *request) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, hi.base+q.path(), strings.NewReader(q.text))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "text/plain")
	cs := -1
	if hi.t != nil {
		cs = hi.t.begin("http.client", -1, i)
		hreq.Header.Set(spanHeader, strconv.Itoa(cs)+","+strconv.Itoa(i))
	}
	start := time.Now()
	resp, err := hi.client.Do(hreq)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	hi.rtt[i] = time.Since(start)
	if cs >= 0 {
		hi.t.end(cs)
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("traced replay: %s answered %d (%v)", q.path(), resp.StatusCode, err)
	}
	return nil
}

// httpPass sends every replay request to two served engines, one with
// its handler wrapped in a server.handler span whose parent is the
// client's http.client span. The two alternate which goes first, so
// their difference, the tracing overhead, carries no warm-up or drift.
func httpPass(ctx context.Context, t *tracer, rp replay, kbPath string, writes bool, lr *layerRun) error {
	n := len(rp.reqs)
	plain, err := newHTTPInstance(kbPath, writes, n, nil, lr)
	if err != nil {
		return err
	}
	defer plain.close(ctx)
	traced, err := newHTTPInstance(kbPath, writes, n, t, lr)
	if err != nil {
		return err
	}
	defer traced.close(ctx)
	for i := range rp.reqs {
		pair := [2]*httpInstance{plain, traced}
		if i%2 == 1 {
			pair[0], pair[1] = traced, plain
		}
		for _, hi := range pair {
			if err := hi.send(ctx, i, &rp.reqs[i]); err != nil {
				return err
			}
		}
	}
	lr.rttPlain, lr.rttTraced, lr.handler = plain.rtt, traced.rtt, traced.handler
	return nil
}

// enginePass calls Engine.Compile and Engine.Submit (SubmitWrite for a
// write) directly, and reads the engine's counters around each request
// to learn whether its compile cache missed and whether it executed the
// query or answered from the result cache.
func enginePass(ctx context.Context, t *tracer, rp replay, kbPath string, writes bool, lr *layerRun) error {
	e, err := newEngine(kbPath, writes, lr)
	if err != nil {
		return err
	}
	defer e.Close()
	n := len(rp.reqs)
	lr.compile, lr.submit = make(timings, n), make(timings, n)
	lr.executed, lr.compileMiss = make([]bool, n), make([]bool, n)
	for i := range rp.reqs {
		q := &rp.reqs[i]
		before := e.Stats()
		s := t.begin("engine.Compile", -1, i)
		prog, err := e.Compile(q.text)
		lr.compile[i] = t.end(s)
		if err != nil {
			return fmt.Errorf("traced compile: %w", err)
		}
		if q.class == classWrite {
			s = t.begin("engine.SubmitWrite", -1, i)
			_, err = e.SubmitWrite(ctx, prog)
		} else {
			s = t.begin("engine.Submit", -1, i)
			_, err = e.Submit(ctx, prog)
		}
		lr.submit[i] = t.end(s)
		if err != nil {
			return fmt.Errorf("traced submit: %w", err)
		}
		after := e.Stats()
		lr.compileMiss[i] = after.CompileMisses > before.CompileMisses
		lr.executed[i] = after.ResultMisses > before.ResultMisses
	}
	return nil
}

// keyLRU mirrors the engine's optimizer memo: an LRU set of program
// hashes with the compile cache's capacity.
type keyLRU struct {
	cap   int
	order *list.List
	byKey map[uint64]*list.Element
}

func newKeyLRU(capacity int) *keyLRU {
	return &keyLRU{cap: capacity, order: list.New(), byKey: make(map[uint64]*list.Element)}
}

// touch reports whether k was resident, and makes it most recent.
func (c *keyLRU) touch(k uint64) bool {
	if el, ok := c.byKey[k]; ok {
		c.order.MoveToFront(el)
		return true
	}
	c.byKey[k] = c.order.PushFront(k)
	if c.order.Len() > c.cap {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.byKey, tail.Value.(uint64))
	}
	return false
}

// machinePass runs the work layers standalone, only where the engine
// instance did: isa.Assemble on its compile-cache misses, isa.Optimize
// on its optimizer-memo misses, Machine.Run on the queries it executed,
// and for writes the writer run plus Machine.ApplyDelta on a replica.
func machinePass(ctx context.Context, t *tracer, rp replay, kbPath string, writes bool, lr *layerRun) error {
	kb, err := parseKB(kbPath, lr)
	if err != nil {
		return err
	}
	if writes {
		kb.EnableDeltaLog(0)
	}
	kb.Preprocess()
	cfg := snapdMachineConfig(kb)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := partition.Semantic(kb, cfg.Clusters, cfg.NodesPerCluster); err != nil {
			return err
		}
		lr.part = append(lr.part, time.Since(start))
	}
	wm, err := machine.New(cfg)
	if err != nil {
		return err
	}
	defer wm.Close()
	start := time.Now()
	if err := wm.LoadKB(kb); err != nil {
		return err
	}
	lr.loadKB = append(lr.loadKB, time.Since(start))
	m := wm
	if writes {
		if m, err = wm.Clone(); err != nil {
			return err
		}
		defer m.Close()
	}

	asm := isa.NewAssembler(kb)
	progs := make(map[string]*isa.Program)
	opts := make(map[uint64]*isa.Optimized)
	memo := newKeyLRU(128)
	n := len(rp.reqs)
	lr.assemble, lr.optimize, lr.run = make(timings, n), make(timings, n), make(timings, n)
	for i := range rp.reqs {
		q := &rp.reqs[i]
		prog := progs[q.text]
		if prog == nil || lr.compileMiss[i] {
			s := t.begin("isa.Assemble", -1, i)
			prog, err = asm.Assemble(strings.NewReader(q.text))
			d := t.end(s)
			if err != nil {
				return fmt.Errorf("traced assemble: %w", err)
			}
			if lr.compileMiss[i] {
				lr.assemble[i] = d
			}
			progs[q.text] = prog
		}
		if q.class == classWrite {
			wm.ClearMarkers()
			s := t.begin("machine.RunWrite", -1, i)
			_, err := wm.RunContext(ctx, prog)
			t.end(s)
			if err != nil {
				return fmt.Errorf("traced write: %w", err)
			}
			to := kb.Generation()
			recs, ok := kb.DeltaRange(m.KBGeneration(), to)
			if !ok {
				return errors.New("traced write: delta log truncated")
			}
			s = t.begin("machine.ApplyDelta", -1, i)
			err = m.ApplyDelta(recs, to)
			lr.delta = append(lr.delta, t.end(s))
			if err != nil {
				return fmt.Errorf("traced delta apply: %w", err)
			}
			continue
		}
		if !lr.executed[i] {
			continue
		}
		h := prog.Hash()
		opt := opts[h]
		if !memo.touch(h) || opt == nil {
			s := t.begin("isa.Optimize", -1, i)
			opt = isa.Optimize(prog, isa.OptConfig{Level: isa.OptFull})
			lr.optimize[i] = t.end(s)
			opts[h] = opt
		}
		m.ClearMarkers()
		s := t.begin("machine.Run", -1, i)
		var res *machine.Result
		if opt.Changed() {
			res, err = m.RunOptimized(ctx, opt.Program)
			if errors.Is(err, machine.ErrOptAmbiguous) {
				m.ClearMarkers()
				res, err = m.RunContext(ctx, prog)
			}
		} else {
			res, err = m.RunContext(ctx, prog)
		}
		lr.run[i] = t.end(s)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		if i >= rp.first {
			pr := res.Profile
			lr.steps = append(lr.steps, pr.PropSteps)
			for k, v := range []int64{int64(res.Time), int64(pr.Overhead.Broadcast), int64(pr.Overhead.Communication),
				int64(pr.Overhead.Synchronization), int64(pr.Overhead.Collection)} {
				lr.vt[k] = append(lr.vt[k], float64(v)/1e6) // ps to µs
			}
		}
	}
	return nil
}

// layerMetrics reduces the traced passes and snapd's counter deltas to
// the per-layer metric set. Self times subtract, per request, the
// spans a layer's call covers in the layer below, and report the median
// over the timed requests.
func layerMetrics(lr *layerRun, rp replay, sd statsDelta, rep e2eReport) map[string]metric {
	var httpSelf, serverSelf, compile, submitSelf, rttT, rttP []float64
	var assemble, optimize, run []float64
	var runNs float64
	for i := rp.first; i < len(rp.reqs); i++ {
		rttT = append(rttT, us(lr.rttTraced[i]))
		rttP = append(rttP, us(lr.rttPlain[i]))
		httpSelf = append(httpSelf, us(lr.rttTraced[i]-lr.handler[i]))
		serverSelf = append(serverSelf, us(lr.handler[i]-lr.compile[i]-lr.submit[i]))
		compile = append(compile, us(lr.compile[i]))
		if rp.reqs[i].class != classWrite {
			submitSelf = append(submitSelf, us(lr.submit[i]-lr.optimize[i]-lr.run[i]))
		}
		if lr.assemble[i] > 0 {
			assemble = append(assemble, us(lr.assemble[i]))
		}
		if lr.optimize[i] > 0 {
			optimize = append(optimize, us(lr.optimize[i]))
		}
		if lr.run[i] > 0 {
			run = append(run, us(lr.run[i]))
			runNs += float64(lr.run[i])
		}
	}
	var steps float64
	for _, s := range lr.steps {
		steps += float64(s)
	}
	nsPerStep := 0.0
	if steps > 0 {
		nsPerStep = runNs / steps
	}
	var delta []float64
	for _, d := range lr.delta {
		delta = append(delta, us(d))
	}
	msOf := func(ds []time.Duration) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = ms(d)
		}
		return percentile(xs, 50)
	}
	b, a := sd.before, sd.after
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	meanUs := func(x, y engine.LatencyHist) float64 {
		return ratio(y.TotalMicros-x.TotalMicros, y.Count-x.Count)
	}
	overhead := percentile(rttT, 50) - percentile(rttP, 50)
	fmt.Printf("trace overhead: in-process http p50 %.2f us traced, %.2f us untraced (%+.2f us)\n",
		percentile(rttT, 50), percentile(rttP, 50), overhead)
	fmt.Printf("trace: fusion coalesced %d of %d queries over the window; with at most nproc connections it sees little work\n",
		a.FusedQueries-b.FusedQueries, a.BatchedQueries-b.BatchedQueries)

	m := map[string]metric{
		"http.self_us":              {percentile(httpSelf, 50), "us"},
		"server.self_us":            {percentile(serverSelf, 50), "us"},
		"engine.compile_us":         {percentile(compile, 50), "us"},
		"isa.assemble_us":           {percentile(assemble, 50), "us"},
		"engine.compile_hit_ratio":  {ratio(a.CompileHits-b.CompileHits, a.CompileHits-b.CompileHits+a.CompileMisses-b.CompileMisses), "ratio"},
		"isa.optimize_us":           {percentile(optimize, 50), "us"},
		"engine.opt_fallbacks":      {float64(a.OptFallbacks - b.OptFallbacks), "count"},
		"engine.submit_self_us":     {percentile(submitSelf, 50), "us"},
		"engine.result_hit_ratio":   {ratio(a.ResultHits-b.ResultHits, a.ResultHits-b.ResultHits+a.ResultMisses-b.ResultMisses), "ratio"},
		"engine.queue_wait_us":      {meanUs(b.QueueWait, a.QueueWait), "us"},
		"engine.batch_mean":         {ratio(a.BatchedQueries-b.BatchedQueries, a.Batches-b.Batches), "count"},
		"engine.steal_ratio":        {ratio(a.Steals-b.Steals, a.Batches-b.Batches), "ratio"},
		"engine.run_us":             {meanUs(b.Run, a.Run), "us"},
		"machine.run_us":            {percentile(run, 50), "us"},
		"machine.prop_steps":        {mean(int64s(lr.steps)), "count"},
		"machine.ns_per_step":       {nsPerStep, "ns"},
		"machine.vtime_us":          {mean(lr.vt[0]), "us"},
		"machine.vt_broadcast_us":   {mean(lr.vt[1]), "us"},
		"machine.vt_comm_us":        {mean(lr.vt[2]), "us"},
		"machine.vt_sync_us":        {mean(lr.vt[3]), "us"},
		"machine.vt_collect_us":     {mean(lr.vt[4]), "us"},
		"engine.fused_ratio":        {ratio(a.FusedQueries-b.FusedQueries, a.BatchedQueries-b.BatchedQueries), "ratio"},
		"engine.shed":               {float64(a.Overloaded - b.Overloaded), "count"},
		"engine.retries":            {float64(a.Retries - b.Retries), "count"},
		"engine.write_us":           {meanUs(b.Write, a.Write), "us"},
		"engine.deltas_applied":     {float64(a.DeltasApplied - b.DeltasApplied), "count"},
		"engine.full_reloads":       {float64(a.FullReloads - b.FullReloads), "count"},
		"engine.result_gen_evicted": {float64(a.ResultGenEvicted - b.ResultGenEvicted), "count"},
		"semnet.delta_apply_us":     {percentile(delta, 50), "us"},
		"kbfile.parse_ms":           {msOf(lr.parse), "ms"},
		"partition.ms":              {msOf(lr.part), "ms"},
		"machine.loadkb_ms":         {msOf(lr.loadKB), "ms"},
		"engine.new_ms":             {msOf(lr.newEngine), "ms"},
		"loadgen.late_p99_ms":       {rep.lateP99, "ms"},
		"trace.overhead_us":         {overhead, "us"},
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("layer %-27s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return m
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func int64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
