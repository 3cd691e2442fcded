// Command loadbench is the repository's end-to-end benchmark. It
// generates a seeded MUC-4-style knowledge base and request streams,
// launches a real snapd on that knowledge base, drives one named
// workload open loop over HTTP, checks every answer against a solo
// unoptimized lockstep run, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same run is followed by an in-process traced replay of the same
// streams, and the metrics are the per-layer ones. See README.md.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash loadbench/run.sh --workload point-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"snap1/internal/engine"
	"snap1/internal/kbfile"
	"snap1/internal/kbgen"
)

// setupRepeats is how many times a -trace 0 run launches snapd to
// measure setup_s; the last launch serves the run.
const setupRepeats = 7

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadbench: ")
	code, err := run()
	if err != nil {
		log.Print(err)
	}
	os.Exit(code)
}

func run() (int, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wname := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed of the knowledge base and request streams")
	seconds := flag.Int("seconds", 10, "measured window, seconds")
	traced := flag.Int("trace", 0, "1 adds the in-process traced replay and reports per-layer metrics")
	snapdBin := flag.String("snapd", "", "snapd binary")
	workdir := flag.String("workdir", ".bench_build/loadbench", "scratch directory for the knowledge base, logs and spans")
	flag.Parse()

	w, ok := workloadByName(*wname)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *wname, strings.Join(names, ", "))
	}
	if *snapdBin == "" || *seconds < 1 || *traced < 0 || *traced > 1 {
		return 2, fmt.Errorf("need -snapd, -seconds >= 1 and -trace 0 or 1")
	}
	runDir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(runDir)

	nproc := runtime.NumCPU()
	window := time.Duration(*seconds) * time.Second

	// Inputs: the knowledge base file snapd loads and the request plan.
	g, err := kbgen.Generate(kbgen.Params{Nodes: kbNodes, Seed: *seed, WithDomain: true})
	if err != nil {
		return 1, err
	}
	kbPath := filepath.Join(runDir, "kb.kb")
	if err := writeKB(kbPath, g); err != nil {
		return 1, err
	}
	v := newVocab(g)
	p := buildPlan(w, &v, *seed, window)

	repeats := setupRepeats
	if *traced == 1 {
		repeats = 1
	}
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	printProvenance(w, *seed, *seconds, nproc, repeats, g, kbPath)

	// Setup: launch snapd repeatedly, keep the last one serving.
	var setups []float64
	var d *daemon
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		// A port taken between reserving and binding it fails a launch;
		// a fresh port is tried twice more.
		for try := 0; ; try++ {
			d, took, err = startSnapd(*snapdBin, kbPath, w.writes, nproc, filepath.Join(runDir, "snapd.log"))
			if err == nil || try == 2 {
				break
			}
		}
		if err != nil {
			return 1, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()

	ctx := context.Background()
	lg := newLoadgen(d.addr, nproc)
	defer lg.close()
	all := lg.run(ctx, -1, p.warm)
	before, err := d.stats(ctx)
	if err != nil {
		return 1, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return 1, err
	}
	var measured []outcome
	for i, ph := range p.phases {
		measured = append(measured, lg.run(ctx, i, ph.reqs)...)
	}
	after, err := d.stats(ctx)
	if err != nil {
		return 1, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return 1, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return 1, err
	}
	lg.close()
	d.stop()
	if own, err := peakRSSMB("/proc/self/status"); err == nil {
		fmt.Printf("loadbench peak rss %.1f MB over the window\n", own)
	}

	// The oracle runs after the window, so it shares no CPU with it.
	all = append(all, measured...)
	kbRef, err := loadKBFile(kbPath)
	if err != nil {
		return 1, err
	}
	o, err := newOracle(kbRef)
	if err != nil {
		return 1, err
	}
	verd := o.check(all)
	o.close()

	rep := report(w, p, measured, setups, rss, (cpu1-cpu0)*1e6/float64(len(measured)), verd)
	res := result{
		Correct:   verd.mismatches == 0 && verd.stale == 0,
		Attempted: len(measured),
		Failed:    rep.failed,
		Metrics:   rep.endToEnd,
	}
	if *traced == 1 {
		layers, err := traceRun(ctx, w, p, kbPath, *workdir, *seed, statsDelta{before, after}, rep)
		if err != nil {
			return 1, err
		}
		res.Metrics = layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d answer(s) differ from the reference, %d read(s) missed an acknowledged write",
			verd.mismatches, verd.stale)
	}
	return 0, nil
}

func writeKB(path string, g *kbgen.Generated) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := kbfile.Write(f, g.KB); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func printProvenance(w workload, seed int64, seconds, nproc, repeats int, g *kbgen.Generated, kbPath string) {
	fmt.Printf("env: nproc %d, GOMAXPROCS loadbench %d snapd %d, %s %s/%s, connections %d\n",
		nproc, runtime.GOMAXPROCS(0), nproc, runtime.Version(), runtime.GOOS, runtime.GOARCH, nproc)
	fmt.Printf("provenance: seed %d, commit %s, source sha256 %s\n", seed, gitCommit(), sourceDigest())
	fmt.Printf("kb: %d nodes, %d links generated (kbgen, domain on), snapd flags %s\n",
		g.KB.NumNodes(), g.KB.NumLinks(), strings.Join(snapdFlags("<addr>", filepath.Base(kbPath), w.writes), " "))
	fmt.Printf("run: %ds window, %s warm-up, setup repeats %d, latency limit %v, ladder %v req/s, nominal %g req/s",
		seconds, warmFor, repeats, w.limit, w.ladder, w.ladder[w.nominal])
	if w.writeRate > 0 {
		fmt.Printf(", writes %g/s", w.writeRate)
	}
	fmt.Println()
}

// gitCommit reads HEAD of a git checkout in the working directory; a
// plain source tree has none.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

// sourceDigest hashes the Go sources and module files under the
// working directory, so a report names the code it measured even
// outside a git checkout.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just do not count
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// e2eReport is a run's end-to-end findings.
type e2eReport struct {
	failed   int
	endToEnd map[string]metric
	lateP99  float64 // ms, generator lateness at the nominal rate
}

// report prints the per-phase table and the class metrics, and returns
// the end-to-end metric set.
func report(w workload, p plan, measured []outcome, setups []float64, rss, cpuUs float64, verd verdict) e2eReport {
	byPhase := make([][]*outcome, len(p.phases))
	var light, lightSvc, heavy, write, probe []float64
	var late []float64
	nonOK := 0
	for i := range measured {
		o := &measured[i]
		if !o.ok() {
			nonOK++
		}
		byPhase[o.phase] = append(byPhase[o.phase], o)
		if o.phase != w.nominal {
			continue
		}
		if o.req.class != classProbe {
			late = append(late, ms(o.late()))
		}
		if !o.ok() {
			continue
		}
		switch o.req.class {
		case classLight:
			light = append(light, ms(o.latency()))
			lightSvc = append(lightSvc, ms(o.service()))
		case classHeavy:
			heavy = append(heavy, ms(o.latency()))
		case classWrite:
			write = append(write, ms(o.latency()))
		case classProbe:
			probe = append(probe, ms(o.latency()))
		}
	}

	fmt.Printf("%-22s %6s %6s %6s %9s %9s %9s %9s %9s %s\n", "phase", "sent", "ok", "failed", "p50_ms", "p99_ms", "late_p50", "late_p99", "svc_p50", "backlog")
	var steps []step
	for i, ph := range p.phases {
		var lat []float64
		var lateD []time.Duration
		var svc []float64
		sent, ok := 0, 0
		for _, o := range byPhase[i] {
			sent++
			if o.ok() {
				ok++
			}
			if o.req.class == classProbe {
				continue
			}
			lateD = append(lateD, o.late())
			if o.req.class == classLight && o.ok() {
				lat = append(lat, ms(o.latency()))
				svc = append(svc, ms(o.service()))
			}
		}
		lateMs := make([]float64, len(lateD))
		for k, dd := range lateD {
			lateMs[k] = ms(dd)
		}
		s := step{
			rate:    ph.rate,
			p99:     time.Duration(percentile(lat, 99) * float64(time.Millisecond)),
			failed:  sent - ok,
			growing: lateGrowing(lateD),
		}
		steps = append(steps, s)
		fmt.Printf("%-22s %6d %6d %6d %9.3f %9.3f %9.3f %9.3f %9.3f %v\n", ph.name, sent, ok, sent-ok,
			percentile(lat, 50), percentile(lat, 99), percentile(lateMs, 50), percentile(lateMs, 99), percentile(svc, 50), s.growing)
	}

	failed := nonOK + verd.mismatches + verd.stale
	if failed > len(measured) {
		failed = len(measured)
	}
	fmt.Printf("oracle: %d answers checked, %d mismatches, %d stale reads\n", verd.checked, verd.mismatches, verd.stale)
	for _, e := range verd.errs {
		fmt.Printf("oracle: %s\n", e)
	}
	fmt.Printf("requests: %d sent, %d failed, failed_frac %.6f\n", len(measured), failed, float64(failed)/float64(len(measured)))
	fmt.Printf("light at %g req/s: %d samples; from due p50 %.4f ms, p99 %.4f ms; from send p50 %.4f ms, p99 %.4f ms\n",
		w.ladder[w.nominal], len(light), percentile(light, 50), percentile(light, 99), percentile(lightSvc, 50), percentile(lightSvc, 99))
	if len(w.ladder) > 1 {
		fmt.Printf("max_qps %g req/s (limit p99 <= %v)\n", maxQPS(steps, w.limit), w.limit)
	}
	if len(heavy) > 0 {
		fmt.Printf("heavy: %d samples, heavy_p50_ms %.4f, heavy_p90_ms %.4f\n", len(heavy), percentile(heavy, 50), percentile(heavy, 90))
	}
	if len(write) > 0 {
		fmt.Printf("writes: %d samples, write_p50_ms %.4f, write_p99_ms %.4f; %d read-after-write probes, p50 %.4f ms\n",
			len(write), percentile(write, 50), percentile(write, 99), len(probe), percentile(probe, 50))
	}
	lateP99 := percentile(late, 99)
	fmt.Printf("loadgen: late_p99_ms %.4f over %d scheduled requests at %g req/s\n", lateP99, len(late), w.ladder[w.nominal])
	fmt.Printf("setup_s samples %v, rss_mb %.2f, snapd cpu_us per request %.2f\n", setups, rss, cpuUs)
	if own, err := peakRSSMB("/proc/self/status"); err == nil {
		fmt.Printf("loadbench peak rss %.1f MB with the oracle\n", own)
	}

	return e2eReport{
		failed:  failed,
		lateP99: lateP99,
		endToEnd: map[string]metric{
			"setup_s":       {percentile(setups, 50), "s"},
			"rss_mb":        {rss, "MB"},
			"p50_ms":        {percentile(lightSvc, 50), "ms"},
			"server_cpu_us": {cpuUs, "us"},
		},
	}
}

// statsDelta is the change of snapd's counters over the measured
// window.
type statsDelta struct{ before, after engine.Stats }
