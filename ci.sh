#!/bin/sh
# ci.sh — the repository's tier-1 gate plus an observability smoke
# test. Run from the repo root; exits non-zero on the first failure.
#
#   ./ci.sh         tier-1 gate: gofmt, vet, build, test, race, smokes
#   ./ci.sh bench   benchmark trajectory: run the tier-1 benchmarks,
#                   write BENCH_<commit>.json (jade-bench/v1), and fail
#                   if any benchmark regressed >20% vs BENCH_baseline.json
set -eu

if [ "${1:-}" = "bench" ]; then
    commit=$(git rev-parse --short HEAD)
    out="BENCH_${commit}.json"
    echo "== bench (writing $out) =="
    baseline_args=""
    if [ -f BENCH_baseline.json ]; then
        baseline_args="-baseline BENCH_baseline.json -tolerance 0.20"
    else
        echo "bench: no BENCH_baseline.json, recording only (no gate)" >&2
    fi
    # The tier-1 benchmark set: the event engine and processor hot
    # paths, the paper's table experiments end to end, and the
    # work-free sweep over cached task graphs. -benchtime is kept
    # short; the 20% gate absorbs the extra noise.
    {
        go test -run '^$' -bench '^Benchmark(Engine|Processor)' \
            -benchmem -benchtime 0.2s ./internal/sim
        go test -run '^$' -bench '^BenchmarkTable([1-9]|1[0-4])$' \
            -benchmem -benchtime 0.2s .
        # The PGAS pair bounds the simulator's cost on the irregular
        # SpMV gather and the event count aggregation removes.
        go test -run '^$' -bench '^BenchmarkPgas(SpMV|Aggregation)$' \
            -benchmem -benchtime 0.2s .
        # The 26-cell work-free sweep through ExecuteRuns (capture once,
        # replay the shared plan per cell); it is fast, so a longer
        # benchtime buys stability without slowing the gate.
        go test -run '^$' -bench '^BenchmarkSweepGraphReplay$' \
            -benchmem -benchtime 2s .
        # The granularity pass: the task-size sweep end to end and the
        # fusion toggle pair (fused replay must stay close to plain
        # replay — the pass itself is a one-time op-stream rewrite).
        go test -run '^$' -bench '^Benchmark(GranularitySweep|Fusion(On|Off))$' \
            -benchmem -benchtime 0.2s .
        # The serving pair backs the observability-overhead claim:
        # spans + logging + SLO tracking on (observed) must track the
        # bare serving path.
        go test -run '^$' -bench '^BenchmarkServeJob$' \
            -benchmem -benchtime 1s ./internal/serve
    } | go run ./internal/tools/benchjson -commit "$commit" -o "$out" $baseline_args
    echo "bench OK: $out"
    exit 0
fi

echo "== gofmt =="
unformatted=$(gofmt -l . 2>/dev/null)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== fuzz: report encoder =="
# The reflection-free report appender against encoding/json on
# reflection-filled jade-metrics/v1 and jadebench/v1 values, starting
# from the committed seed corpus (internal/experiments/testdata/fuzz).
go test -run '^$' -fuzz '^FuzzReportJSON$' -fuzztime 10s ./internal/experiments

echo "== fuzz: event engine order =="
# Byte-built schedules with nested rescheduling, bursts and ties on the
# engine (fresh and reset) against the reference simulator, starting
# from the committed seed corpus (internal/sim/testdata/fuzz).
go test -run '^$' -fuzz '^FuzzEngineOrder$' -fuzztime 5s ./internal/sim

echo "== bench short tests =="
# bench/ is a module of its own, so ./... above does not see it. Its
# short tests check every workload's output against golden.json and
# that the tracing decorators are transparent — which also proves the
# frozen benchmark still compiles against this tree.
(cd bench && go test -short .)

echo "== go test -race (concurrent packages) =="
# The packages with real goroutine concurrency: the native machine,
# the runtime that drives it, the bounded LRU store every cache and
# retention table is built on, the jaded server/queue (including the
# panic-isolation, deadline and breaker paths), the parallel experiment
# fan-out, the graph cache shared by concurrent runs, and the fault
# injector. The
# pgas machine and the spmv app ride along: both run inside the
# parallel fan-out, so their determinism must hold under -race too.
# The differential table (experiments.TestReplayMatchesDirect) runs its
# rows in parallel over shared replay plans, so concurrent Replay of
# one graph is exercised under -race here as well. The routing tier
# (hedged attempts racing each other, health transitions under
# concurrent requests) and the load generator's worker pool join the
# set. The graph package's timed-replay allocation guard builds only
# without -race (the detector instruments allocation); go test runs it.
go test -race ./internal/lru ./internal/native ./internal/jade ./internal/jade/graph ./internal/serve ./internal/experiments ./internal/fault ./internal/fuse ./internal/pgas ./internal/apps/spmv ./internal/router ./internal/load
# Native workers complete tasks, and release staged segments early,
# while the main program registers more: the only place the dependence
# engine runs concurrently. Both packages take well under a second per
# run, so repeat them to give the scheduler more interleavings.
go test -race -count=20 ./internal/native ./internal/jade
# Pooled machines, with the replay runtime and fault injector their
# free list holds, pass between goroutines across Runner calls: repeat
# the pooled, reset and reused-runtime differentials for more
# interleavings.
go test -race -count=5 -run 'Pooled|ResetMatches|ReusedRuntime' ./internal/experiments

echo "== jadebench -json smoke =="
# The emitted document must parse and carry the jadebench/v1 keys;
# jsoncheck avoids a jq/python dependency.
go run ./cmd/jadebench -experiment table4 -scale small -json |
    go run ./internal/tools/jsoncheck schema scale experiments runs
# The documented fault command: runs.1 is water/ipsc, which models
# message loss, so its echoed fault block keeps the drop rate.
go run ./cmd/jadebench -experiment table4 -scale small -json -fault seed=7,drop=0.05,straggle=2 |
    go run ./internal/tools/jsoncheck schema runs.1.fault.drop_pct

echo "== jadebench serial vs parallel =="
# -experiment all is one planned fan-out over every distinct cell of
# the registry, so serial and default-width output must be identical.
# Each worker resets and reuses its own machines, so which machine a
# cell runs on depends on scheduling; the -json pair (every run's full
# metrics, proc_busy included) proves that leaks into no output.
cmpdir=$(mktemp -d)
go build -o "$cmpdir/jadebench" ./cmd/jadebench
"$cmpdir/jadebench" -experiment all -scale small -markdown -parallel 1 >"$cmpdir/serial.md"
"$cmpdir/jadebench" -experiment all -scale small -markdown >"$cmpdir/parallel.md"
cmp "$cmpdir/serial.md" "$cmpdir/parallel.md"
"$cmpdir/jadebench" -experiment all -scale small -json -parallel 1 >"$cmpdir/serial.json"
"$cmpdir/jadebench" -experiment all -scale small -json -parallel 3 >"$cmpdir/parallel.json"
cmp "$cmpdir/serial.json" "$cmpdir/parallel.json"
rm -rf "$cmpdir"

echo "== jadebench pgas smoke =="
# The three-machine comparison document must parse and carry the
# jade-pgas/v1 keys: the app × machine grid, the SpMV aggregation
# study, and the which-optimizations-transfer table.
go run ./cmd/jadebench -pgas-report -scale small |
    go run ./internal/tools/jsoncheck schema scale procs cells.0.app \
        spmv_aggregation.msg_count_on spmv_aggregation.neutral_apps.0 \
        transfers.0.optimization

echo "== jadebench granularity smoke =="
# The task-size sweep document must parse and carry the
# jade-granularity/v1 keys; the semantic halves of the acceptance bar
# (fusion on sends fewer messages at the finest size; the pass moves
# the crossover strictly left) are pinned by the targeted tests.
go run ./cmd/jadebench -granularity-report -scale small |
    go run ./internal/tools/jsoncheck schema scale procs task_sizes_sec.0 \
        cells.0.machine cells.0.msg_count cells.0.exec_time_sec \
        crossovers.0.machine crossovers.0.crossover_work_sec
go test -run '^TestGranularity(FinestSizeMessageCut|PassMovesCrossover)$' ./internal/experiments

echo "== jadebench cell-trace smoke =="
# The simulated-event stream's consumers end to end, on one registered
# cell per machine plus three variant cells (a head-steal DASH cell, a
# fused granularity cell on PGAS, and an iPSC cell losing 20% of its
# transmissions, whose retransmits the consumers and the machine kit's
# message conservation check must carry): event log, hot-object report,
# Gantt chart and Perfetto export of the run the table reports. Each
# entry names the experiment, the cell, the machine and, when another
# entry already runs on that machine, its output file. jadebench -cell
# exits 1 when the recorded schedule fails check.Validate or a task's
# lifecycle fails check.EventOrdering, and 2 on a cell index out of
# range.
trdir=$(mktemp -d)
go build -o "$trdir/jadebench" ./cmd/jadebench
go build -o "$trdir/jsoncheck" ./internal/tools/jsoncheck
for cell in "table4 2 dash" "table9 2 ipsc" "pgas-compare 8 pgas" "extension-portability 10 cluster" \
    "ablation-steal 10 dash" "granularity-sweep 42 pgas" "fault-sweep 39 ipsc ipsc-drop20"; do
    set -- $cell
    out="$trdir/${4:-$3}"
    "$trdir/jadebench" -experiment "$1" -cell "$2" -log -hot 5 \
        -perfetto "$out.json" >"$out.txt"
    grep -q "\"machine\":\"$3\"" "$out.txt" ||
        { echo "jadebench: $1 cell $2 did not run on $3" >&2; exit 1; }
    "$trdir/jsoncheck" traceEvents.0.ph displayTimeUnit <"$out.json"
done
grep -q '"drop_pct":0.2' "$trdir/ipsc-drop20.txt" ||
    { echo "jadebench: fault-sweep cell 39 is not the 20% drop cell" >&2; exit 1; }
status=0
"$trdir/jadebench" -experiment table4 -cell 9999 >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] ||
    { echo "jadebench: -cell 9999 exited $status, want 2" >&2; exit 1; }
rm -rf "$trdir"

echo "== jaded smoke =="
# Start the server on an ephemeral port, submit the same small sync
# job twice, and check the second response is served from the cache.
tmp=$(mktemp -d)
jaded_pid=""
router_pid=""
cleanup() {
    [ -n "$jaded_pid" ] && kill "$jaded_pid" 2>/dev/null || true
    [ -n "$jaded_pid" ] && wait "$jaded_pid" 2>/dev/null || true
    [ -n "$router_pid" ] && kill "$router_pid" 2>/dev/null || true
    [ -n "$router_pid" ] && wait "$router_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/jaded" ./cmd/jaded
go build -o "$tmp/jsoncheck" ./internal/tools/jsoncheck
go build -o "$tmp/promcheck" ./internal/tools/promcheck
# The observability plane is on for the whole smoke: structured JSON
# logs on stderr, span capture, and pprof.
"$tmp/jaded" -addr 127.0.0.1:0 -workers 1 \
    -log-level debug -log-format json -spans -pprof \
    >"$tmp/jaded.log" 2>"$tmp/jaded.stderr" &
jaded_pid=$!

# Scrape the chosen address from the startup line.
addr=""
i=0
while [ $i -lt 50 ]; do
    addr=$(sed -n 's#^jaded: listening on http://##p' "$tmp/jaded.log")
    [ -n "$addr" ] && break
    kill -0 "$jaded_pid" 2>/dev/null || { cat "$tmp/jaded.log" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || { echo "jaded: never reported an address" >&2; exit 1; }

curl -fsS "http://$addr/healthz" | "$tmp/jsoncheck" status uptime_sec
curl -fsS "http://$addr/v1/experiments" >"$tmp/catalog.json"
"$tmp/jsoncheck" schema count experiments.0.id <"$tmp/catalog.json"

spec='{"schema":"jade-job/v1","experiments":["table4"],"scale":"small"}'
curl -fsS -X POST -d "$spec" "http://$addr/v1/jobs?sync=1" >"$tmp/first.json"
"$tmp/jsoncheck" schema status spec_hash result.schema result.experiments.0.id <"$tmp/first.json"
curl -fsS -X POST -d "$spec" "http://$addr/v1/jobs?sync=1" >"$tmp/second.json"
"$tmp/jsoncheck" schema status spec_hash cache_hit result.schema <"$tmp/second.json"
grep -q '"cache_hit": true' "$tmp/second.json" ||
    { echo "jaded: repeat submission was not a cache hit" >&2; exit 1; }

curl -fsS "http://$addr/metricz" |
    "$tmp/jsoncheck" schema cache_hits queue_depth experiment_latency_sec.table4

echo "== jaded observability smoke =="
# A caller-supplied trace ID must round-trip: echoed in the response
# header, stamped into the job's jade-span/v1 trace, and correlated in
# the structured access log.
trace_id="ci-trace-0001"
curl -fsS -D "$tmp/trace.hdr" -H "X-Jade-Trace: $trace_id" \
    -X POST -d '{"schema":"jade-job/v1","experiments":["fig10"],"scale":"small"}' \
    "http://$addr/v1/jobs?sync=1" >"$tmp/traced.json"
grep -qi "^X-Jade-Trace: $trace_id" "$tmp/trace.hdr" ||
    { echo "jaded: trace ID not echoed in the response header" >&2; cat "$tmp/trace.hdr" >&2; exit 1; }
grep -q "\"trace_id\": \"$trace_id\"" "$tmp/traced.json" ||
    { echo "jaded: trace ID missing from the status document" >&2; exit 1; }
job_id=$(sed -n 's/^  "id": "\(job-[0-9]*\)",$/\1/p' "$tmp/traced.json")
[ -n "$job_id" ] || { echo "jaded: no job id in the traced response" >&2; exit 1; }
curl -fsS "http://$addr/v1/jobs/$job_id/trace" >"$tmp/span.json"
"$tmp/jsoncheck" schema trace_id job_id root.name root.children.0.name <"$tmp/span.json"
grep -q "\"trace_id\": \"$trace_id\"" "$tmp/span.json" ||
    { echo "jaded: span doc carries the wrong trace ID" >&2; exit 1; }
for phase in queue_wait execute finish; do
    grep -q "\"name\": \"$phase\"" "$tmp/span.json" ||
        { echo "jaded: span doc missing phase $phase" >&2; cat "$tmp/span.json" >&2; exit 1; }
done
curl -fsS "http://$addr/v1/jobs/$job_id/trace?format=perfetto" | grep -q '"traceEvents"' ||
    { echo "jaded: perfetto trace export failed" >&2; exit 1; }
grep -q "\"trace_id\":\"$trace_id\"" "$tmp/jaded.stderr" ||
    { echo "jaded: access log does not correlate the trace ID" >&2; cat "$tmp/jaded.stderr" >&2; exit 1; }

# The Prometheus rendering of /metricz must be valid 0.0.4 text and
# carry the serving families.
curl -fsS "http://$addr/metricz?format=prom" |
    "$tmp/promcheck" jaded_jobs_accepted_total jaded_jobs_completed_total \
        jaded_result_cache_hits_total jaded_queue_depth jaded_workers \
        jaded_job_latency_seconds

# pprof answers when enabled.
curl -fsS "http://$addr/debug/pprof/cmdline" >/dev/null ||
    { echo "jaded: pprof endpoint missing" >&2; exit 1; }

echo "== jaded chaos smoke =="
# A job whose spec injects a panic must fail cleanly (panic isolation)
# while the server stays healthy and keeps serving subsequent jobs.
chaos='{"schema":"jade-job/v1","runs":[{"app":"water","machine":"ipsc","fault":{"seed":1,"panic":true}}],"scale":"small"}'
curl -sS -X POST -d "$chaos" "http://$addr/v1/jobs?sync=1" >"$tmp/chaos.json"
grep -q '"status": "failed"' "$tmp/chaos.json" ||
    { echo "jaded: injected panic did not fail the job" >&2; cat "$tmp/chaos.json" >&2; exit 1; }
grep -q 'panicked' "$tmp/chaos.json" ||
    { echo "jaded: failed job does not report the panic" >&2; cat "$tmp/chaos.json" >&2; exit 1; }
curl -fsS "http://$addr/healthz" | "$tmp/jsoncheck" status uptime_sec
curl -fsS -X POST -d "$spec" "http://$addr/v1/jobs?sync=1" >"$tmp/postchaos.json"
grep -q '"status": "done"' "$tmp/postchaos.json" ||
    { echo "jaded: server unhealthy after injected panic" >&2; cat "$tmp/postchaos.json" >&2; exit 1; }

echo "== jaderouter smoke =="
# The routing tier in front of three embedded jaded backends, with span
# capture on: its catalog must be byte-identical to jaded's (its job
# front is a serve.Server), a routed submission must name its serving
# backend in the header and the document alike and carry a trace ID,
# an async job must round-trip through the front's job table with its
# routing attempts in the job's trace, and the router must export the
# jaderouter_* metric families.
go build -o "$tmp/jaderouter" ./cmd/jaderouter
"$tmp/jaderouter" -addr 127.0.0.1:0 -embed 3 -workers 1 -spans \
    >"$tmp/router.log" 2>"$tmp/router.stderr" &
router_pid=$!

raddr=""
i=0
while [ $i -lt 50 ]; do
    raddr=$(sed -n 's#^jaderouter: listening on http://\([^ ]*\).*#\1#p' "$tmp/router.log")
    [ -n "$raddr" ] && break
    kill -0 "$router_pid" 2>/dev/null || { cat "$tmp/router.log" "$tmp/router.stderr" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$raddr" ] || { echo "jaderouter: never reported an address" >&2; exit 1; }

curl -fsS "http://$raddr/healthz" | "$tmp/jsoncheck" schema status backends
curl -fsS "http://$raddr/v1/experiments" >"$tmp/router-catalog.json"
cmp "$tmp/catalog.json" "$tmp/router-catalog.json" ||
    { echo "jaderouter: catalog differs from jaded's" >&2; exit 1; }
curl -fsS -D "$tmp/routed.hdr" -X POST -d "$spec" \
    "http://$raddr/v1/jobs?sync=1" >"$tmp/routed.json"
"$tmp/jsoncheck" schema status spec_hash result.schema <"$tmp/routed.json"
grep -qi '^X-Jade-Backend: jaded-' "$tmp/routed.hdr" ||
    { echo "jaderouter: response does not name its backend" >&2; cat "$tmp/routed.hdr" >&2; exit 1; }
grep -qi '^X-Jade-Trace: ' "$tmp/routed.hdr" ||
    { echo "jaderouter: response carried no trace ID" >&2; cat "$tmp/routed.hdr" >&2; exit 1; }
backend=$(tr -d '\r' <"$tmp/routed.hdr" | sed -n 's/^X-Jade-Backend: //p')
[ -n "$backend" ] && grep -q "^  \"backend\": \"$backend\",\$" "$tmp/routed.json" ||
    { echo "jaderouter: document's backend is not X-Jade-Backend ($backend)" >&2; head -c 600 "$tmp/routed.json" >&2; exit 1; }
# An async submission gets 202 and a job ID from the front, which
# routes the job and answers the poll from its own table.
async_spec='{"schema":"jade-job/v1","experiments":["table2"],"scale":"small"}'
code=$(curl -sS -o "$tmp/async.json" -w '%{http_code}' -X POST -d "$async_spec" "http://$raddr/v1/jobs")
[ "$code" = 202 ] ||
    { echo "jaderouter: async submit returned $code, want 202" >&2; cat "$tmp/async.json" >&2; exit 1; }
async_id=$(sed -n 's/^  "id": "\([^"]*\)",$/\1/p' "$tmp/async.json")
[ -n "$async_id" ] || { echo "jaderouter: no job id in the 202" >&2; cat "$tmp/async.json" >&2; exit 1; }
i=0
while [ $i -lt 100 ]; do
    curl -fsS "http://$raddr/v1/jobs/$async_id" >"$tmp/polled.json"
    grep -q -e '"status": "done"' -e '"status": "failed"' "$tmp/polled.json" && break
    sleep 0.1
    i=$((i + 1))
done
grep -q '"status": "done"' "$tmp/polled.json" ||
    { echo "jaderouter: async job $async_id did not finish" >&2; cat "$tmp/polled.json" >&2; exit 1; }
"$tmp/jsoncheck" schema id status result.schema <"$tmp/polled.json"
curl -fsS "http://$raddr/v1/jobs/$async_id/trace" >"$tmp/async-trace.json"
grep -q '"name": "attempt:' "$tmp/async-trace.json" ||
    { echo "jaderouter: job $async_id's trace has no attempt: span" >&2; cat "$tmp/async-trace.json" >&2; exit 1; }
curl -fsS "http://$raddr/metricz" |
    "$tmp/jsoncheck" schema counters.routed counters.failovers backends
curl -fsS "http://$raddr/metricz?format=prom" |
    "$tmp/promcheck" jaderouter_routed_total jaderouter_failovers_total \
        jaderouter_ejections_total jaderouter_stale_served_total \
        jaderouter_backend_state jaderouter_uptime_seconds
kill "$router_pid" 2>/dev/null || true
wait "$router_pid" 2>/dev/null || true
router_pid=""

echo "== jadeload chaos smoke =="
# The availability claim, pinned: replay a seeded Zipf workload against
# a 1-node baseline and a 3-node routed cluster, hanging the hottest
# key's primary mid-run in the cluster. Hedges must win against the
# hung node, at least one request must fail over to a replica, and no
# request may fail — cached keys keep answering (stale at worst) with
# zero non-stale errors. The schedule is a pure function of the seed,
# so these counters are assertions, not observations.
go build -o "$tmp/jadeload" ./cmd/jadeload
"$tmp/jadeload" -backends 3 -requests 120 -concurrency 8 \
    -experiments "table1,table2,table3,table5" -kill hang@40 -seed 42 \
    -probe-interval 50ms >"$tmp/load.json"
"$tmp/jsoncheck" schema workload.seed workload.kills.0.mode \
    topologies.0.backends topologies.0.counts.total topologies.0.latency.p95_sec \
    topologies.1.killed.0 topologies.1.router.hedge_wins topologies.1.health \
    <"$tmp/load.json"
if grep -q '"failed": [1-9]' "$tmp/load.json"; then
    echo "jadeload: requests failed under the hang" >&2; cat "$tmp/load.json" >&2; exit 1
fi
grep -q '"hedge_wins": [1-9]' "$tmp/load.json" ||
    { echo "jadeload: no hedge wins against the hung primary" >&2; cat "$tmp/load.json" >&2; exit 1; }
grep -q '"failovers": [1-9]' "$tmp/load.json" ||
    { echo "jadeload: no failovers recorded under the hang" >&2; cat "$tmp/load.json" >&2; exit 1; }

# Same workload with a hard-down kill and fast probes: the dead node
# must be ejected by the health checker, and still nothing may fail.
"$tmp/jadeload" -backends 3 -requests 120 -concurrency 8 \
    -experiments "table1,table2,table3,table5" -kill down@60 -seed 42 \
    -probe-interval 25ms -probe-timeout 20ms -single-only >"$tmp/down.json"
"$tmp/jsoncheck" schema topologies.0.router.ejections <"$tmp/down.json"
if grep -q '"failed": [1-9]' "$tmp/down.json"; then
    echo "jadeload: requests failed under the down kill" >&2; cat "$tmp/down.json" >&2; exit 1
fi
grep -q '"ejections": [1-9]' "$tmp/down.json" ||
    { echo "jadeload: dead backend was never ejected" >&2; cat "$tmp/down.json" >&2; exit 1; }
grep -q '"failovers": [1-9]' "$tmp/down.json" ||
    { echo "jadeload: no failovers recorded after the ejection" >&2; cat "$tmp/down.json" >&2; exit 1; }

echo "CI OK"
