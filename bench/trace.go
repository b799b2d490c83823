package main

// Spans of the traced pass.  They are recorded from the benchmark's
// own code, around its calls into each layer: the request span is a
// real HTTP round trip, its children are the same query's layers
// replayed in process on an identical graph right after it (the
// servers stay untouched).  Spans are kept in memory and written to
// trace.json when the run ends.

import (
	"encoding/json"
	"os"
	"time"
)

type span struct {
	Trace   string         `json:"trace_id"` // one per query of the pass
	ID      int            `json:"span_id"`
	Parent  int            `json:"parent_id"` // 0: a root
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"` // since the traced pass began
	DurUS   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(trace string, parent int, name string, start time.Time, dur time.Duration, attrs map[string]any) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		StartUS: float64(start.Sub(t.origin)) / float64(time.Microsecond),
		DurUS:   float64(dur) / float64(time.Microsecond),
		Attrs:   attrs,
	})
	return id
}

func (t *tracer) flush(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// residualSummary takes, per query, the request times of the traced
// passes and the requests' self times (request minus the sum of its
// replayed layers, negative when the replay outlasted the request).
// A query's figures are the medians over its passes, so that one slow
// replay or one fast request does not decide the sign of its residual.
// It returns the mean residual per query and the negative residuals'
// share of all request time.  That ratio weighs each negative residual
// by its size: where one layer is nearly all of the request (the
// gather on the cluster, the evaluation of a CONSTRUCT) a faithful
// replay outlasts the request half the time, by little, so a count of
// negative residuals would be near one half by construction; only a
// replay that outlasts its request by much is wrong.
func residualSummary(request, residual [][]float64) (meanResidual, negativeRatio float64) {
	var sum, negative, total float64
	for i := range request {
		r := median(residual[i])
		sum += r
		negative += max(0, -r)
		total += median(request[i])
	}
	return sum / float64(len(request)), negative / total
}
