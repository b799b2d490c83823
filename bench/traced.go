package main

// The traced run: what --trace 1 adds after the untraced phases.

import (
	"fmt"
	"path/filepath"
	"time"
)

const (
	// The traced pass is repeated: at least minTracedPasses times, and
	// until tracedRequests requests are traced, so that a query's
	// residual is a median and a 24-query rotation is not judged on 24
	// requests.
	minTracedPasses = 3
	tracedRequests  = 120
	// maxNegativeResidual bounds trace.negative_residual_ratio — the time
	// by which replayed layers outlast their requests, as a share of all
	// request time — on a single node.  Above it the layers sum to more
	// than the requests they are meant to explain, and the run fails.
	// On the cluster the ratio is reported only: there the replay is a
	// second gather against the live shards, 97 % of the request, and
	// the noise of the two alone gave 0.012–0.038 over ten seeds.
	maxNegativeResidual = 0.05
)

// tracedRun fills the per-layer metrics that need the layer timers and
// the traced passes, writes trace-<workload>.json and returns how many
// requests it sent.
func tracedRun(cfg runConfig, sp spec, w *world, dep *deployment, cl *client, ops []op, scratch string, m map[string]float64) (requests int, err error) {
	budget := time.Duration(cfg.seconds * 0.5 * float64(time.Second))
	c1 := newClient(1, cl.writes)
	defer c1.close()

	floor, err := c1.httpFloor(dep.servers[0].url(), floorProbes)
	if err != nil {
		return 0, err
	}
	m["nsserve.http_floor_us"] = float64(floor) / float64(time.Microsecond)

	preps, err := engineLayers(w.social.G, w.rotation, budget/2, m)
	if err != nil {
		return 0, err
	}
	var twin *clusterTwin
	if sp.shards > 0 {
		var urls []string
		for _, c := range dep.servers {
			urls = append(urls, c.url())
		}
		if twin, err = newClusterTwin(urls); err != nil {
			return 0, err
		}
		defer twin.close()
		if err := twin.clusterLayers(preps, budget/4, m); err != nil {
			return 0, err
		}
	}
	if sp.durable {
		if m["durable.commit_us"], err = durableCommitUS(scratch, 200); err != nil {
			return 0, err
		}
	}

	// Untraced passes at concurrency 1 are what the traced ones are
	// compared with.
	passes := max(minTracedPasses, (tracedRequests+len(ops)-1)/len(ops))
	plain, _ := c1.closedLoop(ops, 1, passes)

	tr := &tracer{origin: time.Now()}
	var traced []sample
	// Per query and pass, µs: the request, and the request minus the sum
	// of its replayed layers — its self time, not clamped at zero: a
	// mean of clamped values would be biased upward wherever the layers
	// are nearly all of the request.
	requestUS := make([][]float64, len(preps))
	residualUS := make([][]float64, len(preps))
	// nsserve parses and plans only on a plan-cache miss, so the miss
	// counter is read around every request; nscoord does both for
	// every query.
	var misses int64
	if twin == nil {
		sm, err := c1.metrics(dep.front.url())
		if err != nil {
			return 0, err
		}
		misses = sm.PlanCache.Misses
	}
	for pass := 0; pass < passes; pass++ {
		prep := 0 // index into preps: ops holds inserts too
		for i, o := range ops {
			s := sample{op: i, due: time.Now()}
			s.bytes, s.ok = c1.do(o)
			s.latency = time.Since(s.due)
			traced = append(traced, s)
			trace := fmt.Sprintf("%s-%d-%d-%03d", sp.name, cfg.seed, pass, i)
			id := tr.add(trace, 0, "request", s.due, s.latency, map[string]any{"shape": o.shape, "ok": s.ok, "bytes": s.bytes})
			planned := twin != nil
			if twin == nil {
				sm, err := c1.metrics(dep.front.url())
				if err != nil {
					return 0, err
				}
				planned = sm.PlanCache.Misses > misses
				misses = sm.PlanCache.Misses
			}
			if o.insert {
				continue
			}
			layers, err := replayLayers(w.social.G, twin, preps[prep], w.rotation[prep].Text, planned)
			if err != nil {
				return 0, err
			}
			// Children are laid end to end from the request's start: they
			// ran after it, on this process, and only their durations are
			// measurements.
			at := s.due
			for _, l := range layers {
				cid := tr.add(trace, id, l.name, at, l.dur, map[string]any{"replayed": true})
				for _, sc := range l.scans {
					tr.add(trace, cid, "cluster.scan", at.Add(sc.start.Sub(l.start)), sc.end.Sub(sc.start), map[string]any{"bytes": sc.bytes})
				}
				at = at.Add(l.dur)
			}
			requestUS[prep] = append(requestUS[prep], float64(s.latency)/float64(time.Microsecond))
			residualUS[prep] = append(residualUS[prep], float64(s.latency-at.Sub(s.due))/float64(time.Microsecond))
			prep++
		}
	}
	residual, negative := residualSummary(requestUS, residualUS)
	name := "nsserve.residual_us"
	if twin != nil {
		name = "nscoord.residual_us"
	}
	m[name] = residual
	m["trace.negative_residual_ratio"] = negative
	if twin == nil && negative > maxNegativeResidual {
		return 0, fmt.Errorf("traced run: the replayed layers outlast their requests by %.3f of the request time (more than %g): layers must not sum to more than the request",
			negative, maxNegativeResidual)
	}
	if failed := countFailed(plain) + countFailed(traced); failed > 0 {
		return 0, fmt.Errorf("traced run: %d requests failed: %s", failed, c1.firstErr)
	}
	plainMean, tracedMean := mean(latenciesMS(plain)), mean(latenciesMS(traced))
	m["trace.overhead_pct"] = (tracedMean - plainMean) / plainMean * 100
	return len(plain) + len(traced), tr.flush(filepath.Join(cfg.outDir, "trace-"+sp.name+".json"))
}
