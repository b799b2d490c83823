# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build vet test bench experiments fuzz cover clean ci fmt-check race staticcheck governor-race bench-module fuzz-smoke bench-smoke obs-smoke crash-smoke cluster-smoke load-smoke trace-smoke

all: build vet test

# Exactly what .github/workflows/ci.yml runs.
ci: fmt-check vet staticcheck build test bench-module fuzz-smoke bench-smoke obs-smoke crash-smoke cluster-smoke trace-smoke load-smoke race governor-race

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Gated: runs when a staticcheck binary is on PATH, skips (loudly)
# otherwise, so `make ci` works on boxes without network or the tool.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" >&2; \
	fi

# bench/ is a module of its own: `go build ./... && go test ./...`
# neither builds nor tests it, and it compiles against the engine
# entry points listed at the top of bench/layers.go.
bench-module:
	go vet -C bench . && go test -C bench .

# Mirrors the CI fuzz-smoke steps: ten seconds each on the /scan frame
# decoder and the /query result writer, from the committed seed corpora.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzDecodeScanFrame -fuzztime 10s ./internal/cluster/
	go test -run '^$$' -fuzz FuzzResultsJSON -fuzztime 10s ./internal/exec/

# The GOMAXPROCS matrix of the race-matrix CI job: serialized
# schedules and real pools both have to be race-clean.  -count=1
# because the test cache does not key on GOMAXPROCS.
race:
	for procs in 1 4; do \
		GOMAXPROCS=$$procs go test -race -count=1 -timeout 10m \
			./internal/rdf/... ./internal/sparql/ ./internal/plan/ ./internal/exec/ ./internal/views/ \
			./internal/cluster/ ./internal/workload/ ./internal/obs/ ./internal/serve/ \
			./cmd/nsserve/ ./cmd/nscoord/ \
			|| exit 1; \
	done

# Mirrors the CI bench-smoke step: the handler-level served-query
# benchmark must still run (one iteration at one and at two
# processors: serial, and with a worker pool), and nsbench -json must emit
# well-formed JSON lines.  The jq half is gated on jq like staticcheck
# is on its binary.
bench-smoke:
	go test -run '^$$' -bench BenchmarkServeQuery -cpu 1,2 -benchtime 1x ./cmd/nsserve/
	@if command -v jq >/dev/null 2>&1; then \
		go run ./cmd/nsbench -json -run E17 \
		| jq -es 'length > 0 and all(.[]; has("experiment") and has("name") and has("ns_per_op") and has("allocs_per_op") and has("bytes_per_op"))' > /dev/null \
		|| { echo "nsbench -json output malformed" >&2; exit 1; }; \
		jq -es '[.[] | select(.experiment == "E25")] | length >= 15 and ([.[] | select(.experiment == "E25" and .name == "join-merge")] | length >= 1) and ([.[] | select(.experiment == "E25" and .name == "join-hash")] | length >= 1)' BENCH_rowengine.json > /dev/null \
		|| { echo "BENCH_rowengine.json missing E25 storage-ablation rows" >&2; exit 1; }; \
		jq -es '[.[] | select(.experiment == "E26")] | length >= 6 and ([.[] | select(.experiment == "E26" and .name == "insert-durable")] | length >= 3) and ([.[] | select(.experiment == "E26" and .name == "insert-durable" and .params.fsync == "always")] | length >= 1) and ([.[] | select(.experiment == "E26" and .name == "scan-durable")] | length >= 1)' BENCH_rowengine.json > /dev/null \
		|| { echo "BENCH_rowengine.json missing E26 durability-ablation rows" >&2; exit 1; }; \
		jq -es '[.[] | select(.experiment == "E28")] | length >= 9 and ([.[] | select(.experiment == "E28" and .name == "greedy")] | length >= 3) and ([.[] | select(.experiment == "E28" and .name == "dp")] | length >= 3) and ([.[] | select(.experiment == "E28" and .name == "dp-adaptive")] | length >= 3) and ([.[] | select(.experiment == "E28" and .params.workload == "star")] | length >= 3) and ([.[] | select(.experiment == "E28" and .params.workload == "chain")] | length >= 3)' BENCH_rowengine.json > /dev/null \
		|| { echo "BENCH_rowengine.json missing E28 planner-ablation rows" >&2; exit 1; }; \
		jq -es '[.[] | select(.experiment == "E29")] | length >= 3 and ([.[] | select(.experiment == "E29" and .name == "trace-off")] | length >= 1) and ([.[] | select(.experiment == "E29" and .name == "trace-sampled")] | length >= 1) and ([.[] | select(.experiment == "E29" and .name == "trace-on")] | length >= 1)' BENCH_rowengine.json > /dev/null \
		|| { echo "BENCH_rowengine.json missing E29 tracing-ablation rows" >&2; exit 1; }; \
		jq -es '[.[] | select(.experiment == "E30")] | length >= 9 and ([.[] | select(.experiment == "E30" and .name == "static-parallel")] | length >= 3) and ([.[] | select(.experiment == "E30" and .name == "staged-adaptive")] | length >= 3) and ([.[] | select(.experiment == "E30" and .name == "serial-adaptive")] | length >= 3) and ([.[] | select(.experiment == "E30" and .params.workload == "star")] | length >= 3) and ([.[] | select(.experiment == "E30" and .params.workload == "chain")] | length >= 3)' BENCH_rowengine.json > /dev/null \
		|| { echo "BENCH_rowengine.json missing E30 staged-execution rows" >&2; exit 1; }; \
	else \
		echo "jq not installed; skipping bench smoke" >&2; \
	fi

# Mirrors the CI obs-smoke step: boot nsserve, insert a triple, run a
# profiled query and check the profile block and /metrics with jq; one
# more insert must leave the cached plan a hit, not a miss or a
# refresh.  Gated on jq like bench-smoke is.
obs-smoke:
	@if command -v jq >/dev/null 2>&1; then \
		go build -o /tmp/nsserve-smoke ./cmd/nsserve || exit 1; \
		/tmp/nsserve-smoke -addr 127.0.0.1:18321 -log-level warn & \
		pid=$$!; \
		trap "kill $$pid 2>/dev/null" EXIT; \
		for i in $$(seq 1 50); do \
			curl -sf http://127.0.0.1:18321/healthz > /dev/null && break; \
			sleep 0.1; \
		done; \
		curl -sf http://127.0.0.1:18321/healthz \
		| jq -e '.status == "ok" and .triples == 0 and (.go | startswith("go"))' > /dev/null \
		|| { echo "obs-smoke: /healthz malformed" >&2; exit 1; }; \
		printf 'a p b .\nb p c .\n' \
		| curl -sf --data-binary @- http://127.0.0.1:18321/insert > /dev/null \
		|| { echo "obs-smoke: /insert failed" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=SELECT ?x ?y WHERE { ?x p ?y }' \
			--data-urlencode 'profile=1' http://127.0.0.1:18321/query \
		| jq -e '.profile.op == "query" and .profile.rows_out == 2 and (.profile.children | length > 0)' > /dev/null \
		|| { echo "obs-smoke: profile=1 block malformed" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=SELECT ?x ?y WHERE { ?x p ?y }' \
			--data-urlencode 'profile=1' http://127.0.0.1:18321/query > /dev/null \
		|| { echo "obs-smoke: repeat query failed" >&2; exit 1; }; \
		printf 'c p d .\n' \
		| curl -sf --data-binary @- http://127.0.0.1:18321/insert > /dev/null \
		|| { echo "obs-smoke: second /insert failed" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=SELECT ?x ?y WHERE { ?x p ?y }' http://127.0.0.1:18321/query \
		| jq -e '.results.bindings | length == 3' > /dev/null \
		|| { echo "obs-smoke: post-insert query wrong" >&2; exit 1; }; \
		curl -sf http://127.0.0.1:18321/metrics \
		| jq -e '.requests["200"] >= 2 and .in_flight == 0 and .latency.query.count >= 1 and .governor_trips == 0' > /dev/null \
		|| { echo "obs-smoke: /metrics malformed" >&2; exit 1; }; \
		curl -sf http://127.0.0.1:18321/metrics \
		| jq -e '.plan_cache.misses == 1 and .plan_cache.hits >= 2 and .plan_cache.refreshes == 0 and .store.triples == 3 and .store.epoch >= 3' > /dev/null \
		|| { echo "obs-smoke: plan cache did not survive the insert, or store counters missing" >&2; exit 1; }; \
		prom=$$(curl -sf -H 'Accept: text/plain' http://127.0.0.1:18321/metrics); \
		echo "$$prom" | grep -q '^ns_requests_total{code="200"}' \
		|| { echo "obs-smoke: Prometheus exposition missing ns_requests_total" >&2; exit 1; }; \
		echo "$$prom" | grep -q '^ns_request_duration_seconds_bucket{' \
		|| { echo "obs-smoke: Prometheus exposition missing latency histogram" >&2; exit 1; }; \
		echo "$$prom" | grep -q '^# TYPE ns_traces_started_total counter' \
		|| { echo "obs-smoke: Prometheus exposition missing traces counters" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=ASK { ?x p ?y . ?y p ?z }' http://127.0.0.1:18321/query \
		| jq -e '.boolean == true' > /dev/null \
		|| { echo "obs-smoke: true ASK not answered true" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=ASK { ?x p a }' http://127.0.0.1:18321/query \
		| jq -e '.boolean == false' > /dev/null \
		|| { echo "obs-smoke: false ASK not answered false" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=ASK { ?x p ?y . ?y p ?z }' \
			--data-urlencode 'profile=1' http://127.0.0.1:18321/query \
		| jq -e '[.profile | .. | objects | select(has("op")) | .op] as $$ops | ($$ops | index("search")) == null and ($$ops | index("triple")) != null' > /dev/null \
		|| { echo "obs-smoke: ASK profile is not a row-operator tree" >&2; exit 1; }; \
		{ echo 's type T .'; for i in $$(seq 1 40); do echo "s p x$$i ."; done; } \
		| curl -sf --data-binary @- http://127.0.0.1:18321/insert > /dev/null \
		|| { echo "obs-smoke: bind-join /insert failed" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=SELECT * WHERE { ?x type T . ?x p ?y }' \
			--data-urlencode 'profile=1' http://127.0.0.1:18321/query \
		| jq -e '([.profile | .. | objects | select(.op? == "bindjoin")] | length >= 1) and (.results.bindings | length == 40)' > /dev/null \
		|| { echo "obs-smoke: a typed subject against 43 p-triples did not bind-join to 40 rows" >&2; exit 1; }; \
		kill $$pid; \
	else \
		echo "jq not installed; skipping obs smoke" >&2; \
	fi

# Mirrors the CI crash-recovery smoke step: boot nsserve on a durable
# data dir with fsync=always, insert triples, kill -9 the process,
# restart it on the same directory and assert the query results and the
# /metrics recovery counters survived the crash.  Gated on jq.
crash-smoke:
	@if command -v jq >/dev/null 2>&1; then \
		go build -o /tmp/nsserve-crash ./cmd/nsserve || exit 1; \
		dir=$$(mktemp -d); \
		/tmp/nsserve-crash -addr 127.0.0.1:18322 -data-dir $$dir -fsync always -log-level warn & \
		pid=$$!; \
		trap 'kill -9 $$pid 2>/dev/null; rm -rf $$dir' EXIT; \
		for i in $$(seq 1 50); do \
			curl -sf http://127.0.0.1:18322/healthz > /dev/null && break; \
			sleep 0.1; \
		done; \
		curl -sf http://127.0.0.1:18322/healthz \
		| jq -e '.backend == "durable" and .wal_generation == 1' > /dev/null \
		|| { echo "crash-smoke: /healthz missing durable backend" >&2; exit 1; }; \
		printf 'a p b .\nb p c .\n' \
		| curl -sf --data-binary @- http://127.0.0.1:18322/insert > /dev/null \
		|| { echo "crash-smoke: /insert failed" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=SELECT ?x ?y WHERE { ?x p ?y }' http://127.0.0.1:18322/query \
		| jq -e '.results.bindings | length == 2' > /dev/null \
		|| { echo "crash-smoke: pre-crash query wrong" >&2; exit 1; }; \
		kill -9 $$pid; \
		wait $$pid 2>/dev/null; \
		/tmp/nsserve-crash -addr 127.0.0.1:18322 -data-dir $$dir -fsync always -log-level warn & \
		pid=$$!; \
		trap 'kill -9 $$pid 2>/dev/null; rm -rf $$dir' EXIT; \
		for i in $$(seq 1 50); do \
			curl -sf http://127.0.0.1:18322/healthz > /dev/null && break; \
			sleep 0.1; \
		done; \
		curl -sfG --data-urlencode 'q=SELECT ?x ?y WHERE { ?x p ?y }' http://127.0.0.1:18322/query \
		| jq -e '.results.bindings | length == 2' > /dev/null \
		|| { echo "crash-smoke: triples lost across kill -9" >&2; exit 1; }; \
		curl -sf http://127.0.0.1:18322/metrics \
		| jq -e '.durable.recovered_wal_records >= 1 and .durable.recovered_snapshot_triples == 0 and .durable.generation == 1 and .store.triples == 2' > /dev/null \
		|| { echo "crash-smoke: /metrics recovery counters wrong" >&2; exit 1; }; \
		echo "crash-smoke: kill -9 recovery OK"; \
	else \
		echo "jq not installed; skipping crash smoke" >&2; \
	fi

# Mirrors the CI cluster-smoke step: two sharded nsserve processes
# behind an nscoord; insert through the coordinator, query across the
# shard split, repeat the query (a plan-cache hit), insert once more
# and see the new row, kill -9 one shard and assert the degraded
# answer is still 200 with partial:true and the dead shard named.
# Gated on jq.
cluster-smoke:
	@if command -v jq >/dev/null 2>&1; then \
		go build -o /tmp/nsserve-cluster ./cmd/nsserve || exit 1; \
		go build -o /tmp/nscoord-cluster ./cmd/nscoord || exit 1; \
		/tmp/nsserve-cluster -addr 127.0.0.1:18323 -shard 0/2 -log-level warn & s0=$$!; \
		/tmp/nsserve-cluster -addr 127.0.0.1:18324 -shard 1/2 -log-level warn & s1=$$!; \
		/tmp/nscoord-cluster -addr 127.0.0.1:18325 \
			-shards http://127.0.0.1:18323,http://127.0.0.1:18324 \
			-probe-interval 200ms -scan-timeout 2s -query-timeout 10s -log-level warn & co=$$!; \
		trap "kill -9 $$s0 $$s1 $$co 2>/dev/null" EXIT; \
		for port in 18323 18324 18325; do \
			for i in $$(seq 1 50); do \
				curl -sf http://127.0.0.1:$$port/readyz > /dev/null && break; \
				sleep 0.1; \
			done; \
		done; \
		seq 0 99 | awk '{printf "<s%d> <knows> <o%d> .\n", $$1, $$1}' \
		| curl -sf --data-binary @- http://127.0.0.1:18325/insert \
		| jq -e '.added == 100 and (.partial | not)' > /dev/null \
		|| { echo "cluster-smoke: /insert through the coordinator failed" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=(?x knows ?y)' --data-urlencode 'syntax=paper' \
			http://127.0.0.1:18325/query \
		| jq -e '(.results.bindings | length == 100) and (.partial | not)' > /dev/null \
		|| { echo "cluster-smoke: healthy cluster query wrong" >&2; exit 1; }; \
		curl -sfG --data-urlencode 'q=(?x knows ?y)' --data-urlencode 'syntax=paper' \
			http://127.0.0.1:18325/query > /dev/null \
		&& curl -sf http://127.0.0.1:18325/metrics \
		| jq -e '.plan_cache.hits >= 1 and .plan_cache.misses == 1' > /dev/null \
		|| { echo "cluster-smoke: repeated query not served from the plan cache" >&2; exit 1; }; \
		echo '<s100> <knows> <o100> .' \
		| curl -sf --data-binary @- http://127.0.0.1:18325/insert \
		| jq -e '.added == 1' > /dev/null \
		&& curl -sfG --data-urlencode 'q=(?x knows ?y)' --data-urlencode 'syntax=paper' \
			http://127.0.0.1:18325/query \
		| jq -e '(.results.bindings | length == 101) and any(.results.bindings[]; .x.value == "s100")' > /dev/null \
		|| { echo "cluster-smoke: cached plan served a stale answer after an insert" >&2; exit 1; }; \
		kill -9 $$s0; \
		curl -sfG --data-urlencode 'q=(?x knows ?y)' --data-urlencode 'syntax=paper' \
			http://127.0.0.1:18325/query \
		| jq -e '.partial == true and (.shards | length == 1) and .shards[0].shard == 0 and (.results.bindings | length > 0) and (.results.bindings | length < 100)' > /dev/null \
		|| { echo "cluster-smoke: degraded query not 200+partial" >&2; exit 1; }; \
		curl -sf http://127.0.0.1:18325/metrics \
		| jq -e '.cluster.queries >= 2 and .cluster.partial_responses >= 1' > /dev/null \
		|| { echo "cluster-smoke: /metrics cluster block wrong" >&2; exit 1; }; \
		echo "cluster-smoke: degraded scatter-gather OK"; \
	else \
		echo "jq not installed; skipping cluster smoke" >&2; \
	fi

# Mirrors the CI trace-smoke step: two sharded nsserve processes with
# always-on tracing behind an nscoord; run a query through the
# coordinator, capture the NS-Trace-Id response header and assert the
# stitched /debug/traces tree holds the coordinator pipeline (gather,
# rpc.scan) AND the per-shard scan spans fetched from each shard's
# ring, annotated with their shard index.  Gated on jq.
trace-smoke:
	@if command -v jq >/dev/null 2>&1; then \
		go build -o /tmp/nsserve-trace ./cmd/nsserve || exit 1; \
		go build -o /tmp/nscoord-trace ./cmd/nscoord || exit 1; \
		/tmp/nsserve-trace -addr 127.0.0.1:18327 -shard 0/2 -trace-sample 1 -log-level warn & s0=$$!; \
		/tmp/nsserve-trace -addr 127.0.0.1:18328 -shard 1/2 -trace-sample 1 -log-level warn & s1=$$!; \
		/tmp/nscoord-trace -addr 127.0.0.1:18329 \
			-shards http://127.0.0.1:18327,http://127.0.0.1:18328 \
			-trace-sample 1 -probe-interval 200ms -scan-timeout 2s -query-timeout 10s -log-level warn & co=$$!; \
		trap "kill -9 $$s0 $$s1 $$co 2>/dev/null" EXIT; \
		for port in 18327 18328 18329; do \
			for i in $$(seq 1 50); do \
				curl -sf http://127.0.0.1:$$port/readyz > /dev/null && break; \
				sleep 0.1; \
			done; \
		done; \
		seq 0 49 | awk '{printf "<s%d> <knows> <o%d> .\n", $$1, $$1}' \
		| curl -sf --data-binary @- http://127.0.0.1:18329/insert > /dev/null \
		|| { echo "trace-smoke: /insert through the coordinator failed" >&2; exit 1; }; \
		tid=$$(curl -sfG --data-urlencode 'q=(?x knows ?y)' --data-urlencode 'syntax=paper' \
			-o /dev/null -D - http://127.0.0.1:18329/query \
			| tr -d '\r' | awk 'tolower($$1) == "ns-trace-id:" {print $$2}'); \
		[ -n "$$tid" ] || { echo "trace-smoke: no NS-Trace-Id on the query response" >&2; exit 1; }; \
		curl -sf "http://127.0.0.1:18329/debug/traces?id=$$tid" > /tmp/trace-smoke.json \
		|| { echo "trace-smoke: /debug/traces fetch failed" >&2; exit 1; }; \
		jq -e '([.spans[] | select(.name == "gather")] | length >= 1) and ([.spans[] | select(.name == "rpc.scan")] | length >= 2) and ([.spans[] | select(.name == "scan" and .attrs.shard != null)] | length >= 2) and ([.spans[] | select(.name == "query" and .attrs.qid != null)] | length >= 1)' /tmp/trace-smoke.json > /dev/null \
		|| { echo "trace-smoke: stitched trace malformed" >&2; cat /tmp/trace-smoke.json >&2; exit 1; }; \
		curl -sf "http://127.0.0.1:18329/debug/traces" \
		| jq -e '.traces | length >= 1' > /dev/null \
		|| { echo "trace-smoke: /debug/traces listing empty" >&2; exit 1; }; \
		echo "trace-smoke: stitched coordinator+shard trace OK"; \
	else \
		echo "jq not installed; skipping trace smoke" >&2; \
	fi

# Mirrors the CI load-smoke step: boot nsserve, drive it with nsload
# (open-loop, mixed-shape SPARQL workload, graph inserted first) and
# assert the latency report and the server-side counter deltas with
# jq.  Gated on jq like the other smokes.
load-smoke:
	@if command -v jq >/dev/null 2>&1; then \
		go build -o /tmp/nsserve-load ./cmd/nsserve || exit 1; \
		go build -o /tmp/nsload-smoke ./cmd/nsload || exit 1; \
		/tmp/nsserve-load -addr 127.0.0.1:18326 -log-level warn & \
		pid=$$!; \
		trap "kill $$pid 2>/dev/null" EXIT; \
		for i in $$(seq 1 50); do \
			curl -sf http://127.0.0.1:18326/healthz > /dev/null && break; \
			sleep 0.1; \
		done; \
		/tmp/nsload-smoke -url http://127.0.0.1:18326 -insert -people 400 -queries 60 \
			-qps 80 -duration 3s > /tmp/nsload-report.json \
		|| { echo "load-smoke: nsload failed" >&2; cat /tmp/nsload-report.json >&2; exit 1; }; \
		jq -e '.completed > 0 and .errors == 0 and .achieved_qps > 0 and .p50_ms > 0 and .p95_ms >= .p50_ms and .p99_ms >= .p95_ms' /tmp/nsload-report.json > /dev/null \
		|| { echo "load-smoke: latency report malformed" >&2; cat /tmp/nsload-report.json >&2; exit 1; }; \
		jq -e '(.server | has("planner_replans")) and .server.planner_replans >= 0 and .server.requests_200 >= .completed and .server.governor_trips == 0' /tmp/nsload-report.json > /dev/null \
		|| { echo "load-smoke: server counter deltas wrong" >&2; cat /tmp/nsload-report.json >&2; exit 1; }; \
		kill $$pid; \
		echo "load-smoke: open-loop latency report OK"; \
	else \
		echo "jq not installed; skipping load smoke" >&2; \
	fi

# The query-governor fault-injection suites under the race detector;
# mirrors the governor-race CI job.
governor-race:
	go test -race -timeout 5m \
		-run 'TestBudget|TestUnknownPattern|TestCappedEvalRowsFault|TestEvalRowsFault|TestEvalBudgetFault|TestDeadlineStops|TestTreeBindFault' \
		./internal/sparql/
	go test -race -timeout 5m -run 'Governor|Fault|Budget|Ctx|Insert' ./internal/exec/ ./internal/views/
	go test -race -timeout 5m ./internal/serve/ ./cmd/nsserve/

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# One benchmark per experiment of EXPERIMENTS.md.
bench:
	go test -bench=. -benchmem .

# Regenerate every experiment with PASS/FAIL checks.
experiments:
	go run ./cmd/nsbench

# Short fuzz pass over both parsers, the /scan frame decoder and the
# /query result writer.
fuzz:
	go test -fuzz=FuzzParseQuery -fuzztime=30s ./internal/parser/
	go test -fuzz=FuzzParseSPARQL -fuzztime=30s ./internal/parser/
	go test -run '^$$' -fuzz=FuzzDecodeScanFrame -fuzztime=30s ./internal/cluster/
	go test -run '^$$' -fuzz=FuzzResultsJSON -fuzztime=30s ./internal/exec/

cover:
	go test -cover ./...

clean:
	go clean ./...
