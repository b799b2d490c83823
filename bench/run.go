package main

// One run: one workload, one seed.  Build, generate, boot, load,
// measure in rounds, optionally trace, crash-check, stop, report.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	minRounds   = 5    // every end-to-end figure is a median over at least this many equal rounds
	maxRounds   = 9    // more rounds, not longer ones, when a round is a single pass
	setups      = 7    // setup_s is the median over this many boots and loads
	seedsPerSet = 10   // seeds per workload in a -repeat set: what the driver runs
	loadBatch   = 5000 // triples per /insert while loading
	floorProbes = 300  // /healthz round trips behind nsserve.http_floor_us
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root
	outDir   string // bench/.out: binaries, trace and set files, and each run's scratch directory
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// spreads are the inter-quartile ranges, as a share of the median,
	// of the round-based figures; printed, not part of the result line.
	spreads map[string]float64
	note    string
}

// buildBinaries compiles nsserve and nscoord into outDir/bin with the
// go command on PATH.  With a warm build cache this is a staleness
// check of about a second; it runs every time so that a run never
// measures binaries older than the sources beside it.
func buildBinaries(cfg runConfig) (binDir string, seconds float64, err error) {
	binDir = filepath.Join(cfg.outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/nsserve", "./cmd/nscoord")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binDir, time.Since(t0).Seconds(), nil
}

// deployment is one booted and loaded system under test.
type deployment struct {
	front   *child   // takes /query and /insert
	servers []*child // the nsserve processes
	coord   *child   // nil on a single node
	dataDir string
}

func (d *deployment) children() []*child {
	if d.coord != nil {
		return append([]*child{d.coord}, d.servers...)
	}
	return d.servers
}

// deploy boots the workload's servers with default flags (except
// -addr, -log-level error and what the workload names) and loads the
// graph over /insert.  The returned time is setup_s: process start to
// last batch acknowledged.
func deploy(sup *supervisor, sp spec, binDir, scratch string, batches []string) (*deployment, float64, error) {
	d := &deployment{}
	t0 := time.Now()
	nsserve := filepath.Join(binDir, "nsserve")
	switch {
	case sp.shards > 0:
		var urls []string
		for i := 0; i < sp.shards; i++ {
			c, err := sup.spawn("shard"+strconv.Itoa(i), nsserve, "-log-level", "error", "-shard", fmt.Sprintf("%d/%d", i, sp.shards))
			if err != nil {
				return d, 0, err
			}
			d.servers = append(d.servers, c)
			urls = append(urls, c.url())
		}
		c, err := sup.spawn("nscoord", filepath.Join(binDir, "nscoord"), "-log-level", "error", "-shards", strings.Join(urls, ","))
		if err != nil {
			return d, 0, err
		}
		d.coord, d.front = c, c
	case sp.durable:
		dir, err := os.MkdirTemp(scratch, "data-")
		if err != nil {
			return d, 0, err
		}
		d.dataDir = dir
		c, err := sup.spawn("nsserve", nsserve, "-log-level", "error", "-data-dir", dir, "-fsync", "batch")
		if err != nil {
			return d, 0, err
		}
		d.servers, d.front = []*child{c}, c
	default:
		c, err := sup.spawn("nsserve", nsserve, "-log-level", "error")
		if err != nil {
			return d, 0, err
		}
		d.servers, d.front = []*child{c}, c
	}
	loader := newClient(1, nil)
	defer loader.close()
	if err := loader.load(d.front.url(), batches); err != nil {
		return d, 0, err
	}
	return d, time.Since(t0).Seconds(), nil
}

func (d *deployment) teardown(sup *supervisor) error {
	var first error
	for _, c := range d.children() {
		if err := sup.stop(c, false); err != nil && first == nil {
			first = err
		}
	}
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
	return first
}

// cpuOf sums the CPU time consumed so far by the given children.
func cpuOf(cs []*child) time.Duration {
	var total time.Duration
	for _, c := range cs {
		cpu, _, _ := procStat(c.pid) // a child that died shows up as failed requests
		total += cpu
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		out = append(out, ms(s.latency))
	}
	sort.Float64s(out)
	return out
}

func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// passOps lays out one pass: the rotation's reads with, for a writing
// workload, one insert after every writeEvery of them.
func passOps(base string, rot []query, writeEvery int) []op {
	var ops []op
	for i, q := range rot {
		ops = append(ops, queryOp(base, q))
		if writeEvery > 0 && (i+1)%writeEvery == 0 {
			ops = append(ops, op{url: base + "/insert", insert: true, shape: "insert"})
		}
	}
	return ops
}

// planRounds splits a phase that has time for fit passes over the
// rotation into rounds of whole passes, so that every round does the
// same work: at least minRounds rounds, and when a round is a single
// pass, up to maxRounds of them.  A traced run takes one round.
func planRounds(fit float64, traced bool) (rounds, passesPerRound int) {
	total := max(1, int(fit))
	if traced {
		return 1, total
	}
	passesPerRound = max(1, total/minRounds)
	return min(max(total/passesPerRound, minRounds), maxRounds), passesPerRound
}

func runWorkload(sup *supervisor, cfg runConfig) (*result, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	m := make(map[string]float64) // per-layer metrics by name
	res := &result{Metrics: map[string]metric{}, spreads: map[string]float64{}}

	binDir, buildS, err := buildBinaries(cfg)
	if err != nil {
		return nil, err
	}
	m["bench.build_s"] = buildS

	// Inputs and expected answers; none of this is set-up time.
	t0 := time.Now()
	w, err := buildWorld(sp, cfg.seed)
	if err != nil {
		return nil, err
	}
	oracleChecked, err := oracleSpotCheck(sp, cfg.seed)
	if err != nil {
		return nil, err
	}
	m["bench.oracle_s"] = time.Since(t0).Seconds()
	batches := insertBatches(w.social.G, loadBatch)
	// Data directories live here; the supervisor removes it on the exit
	// paths that skip the deferred calls below.
	scratch, err := sup.tempDir(cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// The deployment that is measured; its set-up is the first sample
	// of setup_s, the rest follow the closed loop.
	dep, setup0, err := deploy(sup, sp, binDir, scratch, batches)
	// Error paths leave through here; teardown is idempotent.
	defer func() { _ = dep.teardown(sup) }()
	if err != nil {
		return nil, err
	}
	setupS := []float64{setup0}
	base := dep.front.url()
	writes := &writeStream{body: w.insert}
	cl := newClient(sp.clients, writes)
	defer cl.close()
	ops := passOps(base, w.rotation, sp.writeEvery)

	// Warm-up: the first pass fills the plan cache, the second sizes
	// the rounds.
	warm, passTime := cl.closedLoop(ops, sp.clients, 1)
	if n := countFailed(warm); n > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %s", n, len(warm), cl.firstErr)
	}
	_, passTime = cl.closedLoop(ops, sp.clients, 1)

	// A traced run reports no round medians: it spends half its time
	// on one round of each phase, for the counters and the client's
	// diagnostics, and the rest on the traced pass and the layer timers.
	closedShare, openShare := 0.4, 0.6
	if cfg.trace {
		closedShare, openShare = 0.2, 0.3
	}
	before, err := scrape(cl, dep)
	if err != nil {
		return nil, err
	}
	var coords []*child
	if dep.coord != nil {
		coords = []*child{dep.coord}
	}
	cpuBefore, coordCPUBefore := cpuOf(dep.servers), cpuOf(coords)
	ackedBefore := len(writes.acknowledged())
	var all []sample

	// Closed loop: capacity.
	rounds, passes := planRounds(cfg.seconds*closedShare/passTime.Seconds(), cfg.trace)
	var qps []float64
	for r := 0; r < rounds; r++ {
		ss, elapsed := cl.closedLoop(ops, sp.clients, passes)
		qps = append(qps, float64(len(ss))/elapsed.Seconds())
		all = append(all, ss...)
	}

	// Set-up time, again and again, beside the idle main deployment.
	// These boots are timed here, right after the closed loop has kept
	// both CPUs busy for seconds, because on this kind of VM the same
	// boot takes up to 1.8x longer after an idle stretch (idle vCPUs
	// are slow to wake), and a mix of the two states made setup_s
	// bimodal.  A traced run does not report setup_s and skips them.
	for !cfg.trace && len(setupS) < setups {
		d, s, err := deploy(sup, sp, binDir, scratch, batches)
		if terr := d.teardown(sup); err == nil {
			err = terr
		}
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}

	// Open loop: latency at the workload's frozen rate, one schedule
	// split into rounds afterwards.
	rounds, passes = planRounds(cfg.seconds*openShare*sp.openRate/float64(len(ops)), cfg.trace)
	perRound := passes * len(ops)
	open, dropped := cl.openLoop(ops, sp.clients, sp.openRate, rounds*perRound)
	all = append(all, open...)
	var p50, p95 []float64
	for r := 0; r < rounds; r++ {
		lat := latenciesMS(open[r*perRound : (r+1)*perRound])
		p50 = append(p50, percentile(lat, 0.50))
		p95 = append(p95, percentile(lat, 0.95))
	}

	after, err := scrape(cl, dep)
	if err != nil {
		return nil, err
	}
	serverCPU := cpuOf(dep.servers) - cpuBefore
	coordCPU := cpuOf(coords) - coordCPUBefore
	var rss int64
	for _, c := range dep.servers {
		_, r, _ := procStat(c.pid)
		rss += r
	}

	res.Attempted = len(all)
	res.Failed = countFailed(all)
	clientMetrics(m, all, open, ops, dropped)
	processMetrics(m, before, after, len(all), serverCPU, coordCPU, rss, sp)
	if sp.durable {
		if triples := float64(2 * (len(writes.acknowledged()) - ackedBefore)); triples > 0 {
			m["durable.wal_bytes_per_triple"] = float64(after.front.Durable.WALBytes-before.front.Durable.WALBytes) / triples
		}
		m["durable.wal_syncs"] = float64(after.front.Durable.WALSyncs)
		m["durable.snapshots"] = float64(after.front.Durable.Snapshots)
	}

	if cfg.trace {
		n, err := tracedRun(cfg, sp, w, dep, cl, ops, scratch, m)
		if err != nil {
			return nil, err
		}
		res.Attempted += n
	}

	// Crash check: kill -9 the durable server, reopen its directory in
	// process, and require every acknowledged write and every answer.
	if sp.durable {
		acked := writes.acknowledged()
		if err := sup.stop(dep.front, true); err != nil {
			return nil, err
		}
		m["durable.disk_bytes_per_triple"] = float64(dirBytes(dep.dataDir)) / float64(w.social.G.Len()+2*len(acked))
		rec, err := recoverDurable(dep.dataDir, w, acked)
		if err != nil {
			return nil, err
		}
		m["durable.recover_s"] = rec
	}
	if err := dep.teardown(sup); err != nil {
		return nil, err
	}

	e2e := map[string]metric{
		"setup_s": {median(setupS), "s"},
		"qps":     {median(qps), "ops/s"},
		"p50_ms":  {median(p50), "ms"},
		"p95_ms":  {median(p95), "ms"},
	}
	res.spreads["setup_s"], res.spreads["qps"] = spread(setupS), spread(qps)
	res.spreads["p50_ms"], res.spreads["p95_ms"] = spread(p50), spread(p95)

	res.Correct = res.Failed == 0
	res.note = fmt.Sprintf("%d triples, %d-query rotation, %d reference-evaluator checks, set-ups %.3f s, first failure: %q",
		w.social.G.Len(), len(w.rotation), oracleChecked, setupS, cl.firstErr)
	if cfg.trace {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{m[d.name], d.unit}
		}
	} else {
		res.Metrics = e2e
	}
	return res, nil
}

// scraped is one /metrics reading of every server of a deployment.
type scraped struct {
	front   serverMetrics   // the server clients talk to
	servers []serverMetrics // the nsserve processes
}

func scrape(cl *client, d *deployment) (scraped, error) {
	var s scraped
	var err error
	if s.front, err = cl.metrics(d.front.url()); err != nil {
		return s, err
	}
	for _, c := range d.servers {
		sm, err := cl.metrics(c.url())
		if err != nil {
			return s, err
		}
		s.servers = append(s.servers, sm)
	}
	return s, nil
}

// clientMetrics fills the generator's own diagnostics.  Latency
// figures are the open loop's, counts cover both phases.
func clientMetrics(m map[string]float64, all, open []sample, ops []op, dropped int) {
	okN, bytes := 0, 0
	for _, s := range all {
		if s.ok {
			okN++
		}
		bytes += s.bytes
	}
	m["client.sent"] = float64(len(all) - dropped)
	m["client.ok"] = float64(okN)
	m["client.failed"] = float64(len(all) - okN)
	m["client.dropped"] = float64(dropped)
	m["client.fail_ratio"] = float64(len(all)-okN) / float64(len(all))
	m["client.resp_bytes_per_op"] = float64(bytes) / float64(len(all))
	lat := latenciesMS(open)
	m["client.mean_ms"] = mean(lat)
	m["client.p99_ms"] = percentile(lat, 0.99)
	m["client.max_ms"] = lat[len(lat)-1]
	late := make([]float64, 0, len(open))
	byShape := map[string][]float64{}
	for _, s := range open {
		late = append(late, ms(s.late))
		sh := ops[s.op].shape
		byShape[sh] = append(byShape[sh], ms(s.latency))
	}
	m["client.late_p95_ms"] = percentile(sortedCopy(late), 0.95)
	for _, sh := range []string{"star", "chain", "tree", "flower"} {
		m["client."+sh+"_p50_ms"] = percentile(sortedCopy(byShape[sh]), 0.50)
	}
}

// processMetrics turns before/after /metrics readings and /proc
// deltas of the timed phases into per-layer metrics.
func processMetrics(m map[string]float64, before, after scraped, ops int, serverCPU, coordCPU time.Duration, rss int64, sp spec) {
	var hits, misses float64
	for i := range after.servers {
		a, b := after.servers[i], before.servers[i]
		hits += float64(a.PlanCache.Hits - b.PlanCache.Hits)
		misses += float64(a.PlanCache.Misses - b.PlanCache.Misses)
		m["nsserve.plan_cache_evictions"] += float64(a.PlanCache.Evictions - b.PlanCache.Evictions)
		m["nsserve.requests_503"] += float64(a.Requests["503"] - b.Requests["503"])
		m["nsserve.requests_504"] += float64(a.Requests["504"] - b.Requests["504"])
		m["nsserve.governor_trips"] += float64(a.GovernorTrips - b.GovernorTrips)
		m["nsserve.pool_saturations"] += float64(a.PoolSaturations - b.PoolSaturations)
		m["nsserve.planner_replans"] += float64(a.PlannerReplans - b.PlannerReplans)
	}
	if hits+misses > 0 {
		m["nsserve.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	cpuPerOp := func(d time.Duration) float64 { return ms(d) / float64(ops) }
	m["nsserve.rss_mb"] = float64(rss) / (1 << 20)
	if sp.shards > 0 {
		m["shard.cpu_ms_per_op"] = cpuPerOp(serverCPU)
		m["nscoord.cpu_ms_per_op"] = cpuPerOp(coordCPU)
		for i, a := range after.front.Cluster.Shards {
			b := before.front.Cluster.Shards[i]
			m["cluster.retries"] += float64(a.Retries - b.Retries)
			m["cluster.hedges"] += float64(a.Hedges - b.Hedges)
			m["cluster.hedges_wasted"] += float64(a.HedgesWasted - b.HedgesWasted)
			m["cluster.ejections"] += float64(a.Ejections - b.Ejections)
		}
	} else {
		m["nsserve.cpu_ms_per_op"] = cpuPerOp(serverCPU)
	}
}
