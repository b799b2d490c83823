package cluster

import (
	"sync/atomic"

	"repro/internal/obs"
)

// shard is the coordinator's per-shard state: address, health-prober
// verdict and the counters behind /metrics.  Everything is atomic —
// scan goroutines, the prober and /metrics snapshots touch it
// concurrently.
type shard struct {
	index int
	base  string // base URL, e.g. "http://127.0.0.1:9001"

	// healthy is the prober's verdict; an unhealthy (ejected) shard is
	// skipped by Gather until readmitted.  Starts true: a shard is
	// innocent until probed.
	healthy     atomic.Bool
	consecFails atomic.Int64 // consecutive failed probes
	consecOKs   atomic.Int64 // consecutive successful probes

	scans        atomic.Int64 // scan attempts sent (primaries + hedges)
	scanErrors   atomic.Int64 // attempts that failed (any cause)
	scanBytes    atomic.Int64 // response-body bytes read, failed attempts included
	retries      atomic.Int64 // re-sends after a failed attempt
	hedges       atomic.Int64 // hedge requests launched
	hedgeWins    atomic.Int64 // hedges that produced the winning response
	hedgesWasted atomic.Int64 // hedges made moot by the primary finishing
	ejections    atomic.Int64
	readmissions atomic.Int64
	probes       atomic.Int64
	probeFails   atomic.Int64

	// latency records successful scan attempts; its quantile drives
	// the hedging delay for this shard.
	latency obs.Histogram
}

// state renders the prober verdict for /metrics and error blocks.
func (sh *shard) state() string {
	if sh.healthy.Load() {
		return "healthy"
	}
	return "ejected"
}

// stats snapshots the shard's counters.
func (sh *shard) stats() obs.ShardStats {
	return obs.ShardStats{
		Shard:        sh.index,
		Addr:         sh.base,
		State:        sh.state(),
		Scans:        sh.scans.Load(),
		ScanErrors:   sh.scanErrors.Load(),
		ScanBytes:    sh.scanBytes.Load(),
		Retries:      sh.retries.Load(),
		Hedges:       sh.hedges.Load(),
		HedgeWins:    sh.hedgeWins.Load(),
		HedgesWasted: sh.hedgesWasted.Load(),
		Ejections:    sh.ejections.Load(),
		Readmissions: sh.readmissions.Load(),
		Probes:       sh.probes.Load(),
		ProbeFails:   sh.probeFails.Load(),
		ScanLatency:  sh.latency.Snapshot(),
	}
}
