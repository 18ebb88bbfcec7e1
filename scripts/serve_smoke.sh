#!/usr/bin/env bash
# serve-smoke: end-to-end check of the coverd service (the CI target behind
# `make serve-smoke`). It starts a real coverd daemon on a random port,
# uploads a hardgen instance through `covercli -server`, solves it remotely,
# and diffs the output byte for byte against a local in-process
# SolveSetCover run with identical flags — the determinism-over-the-wire
# contract. A replay leg requires covercli -replay (load once, serve every
# pass from a replay plan) to print the same output on SCB1, SCB2 and text
# copies of the instance. A tracing leg then solves under a known W3C
# traceparent and asserts the trace ID surfaces in the access log, the job
# snapshot and the debug listener's recent-trace list. Finally it checks
# the daemon shuts down cleanly on SIGTERM.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PID=""
cleanup() {
	[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

echo "serve-smoke: building coverd, covercli, hardgen"
go build -o "$WORK/coverd" ./cmd/coverd
go build -o "$WORK/covercli" ./cmd/covercli
go build -o "$WORK/hardgen" ./cmd/hardgen

# A D_SC hard instance (theta=0 gives a non-trivial optimum) in the binary
# codec; the ground-truth annotations go to stderr.
"$WORK/hardgen" -kind sc -n 1024 -m 24 -alpha 3 -theta 0 -seed 7 -format binary \
	> "$WORK/hard.scb" 2> "$WORK/hardgen.truth"

echo "serve-smoke: starting coverd on a random port"
"$WORK/coverd" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
	-log-requests -debug-addr 127.0.0.1:0 -debug-addr-file "$WORK/debug.addr" \
	> "$WORK/coverd.log" 2>&1 &
PID=$!
for _ in $(seq 100); do
	[ -s "$WORK/addr" ] && break
	kill -0 "$PID" 2>/dev/null || { echo "serve-smoke: coverd died:"; cat "$WORK/coverd.log"; exit 1; }
	sleep 0.1
done
[ -s "$WORK/addr" ] || { echo "serve-smoke: coverd never bound:"; cat "$WORK/coverd.log"; exit 1; }
ADDR="$(cat "$WORK/addr")"
echo "serve-smoke: coverd is on $ADDR"

# Identical flags, local vs remote, on both local code paths: the default
# adversarial order (locally file-streamed) and -order random (locally
# in-memory). covercli mirrors each path's output shape remotely, so both
# must diff clean.
for ORDER in adversarial random; do
	FLAGS=(-in "$WORK/hard.scb" -algo alg1 -alpha 3 -order "$ORDER" -seed 7)
	"$WORK/covercli" "${FLAGS[@]}" > "$WORK/local.$ORDER.out"
	"$WORK/covercli" -server "http://$ADDR" "${FLAGS[@]}" > "$WORK/remote.$ORDER.out"
	if ! diff -u "$WORK/local.$ORDER.out" "$WORK/remote.$ORDER.out"; then
		echo "serve-smoke: FAIL — remote solve differs from in-process SolveSetCover (-order $ORDER)"
		exit 1
	fi
	echo "serve-smoke: remote output == local output (-order $ORDER):"
	sed 's/^/  /' "$WORK/remote.$ORDER.out"
done

# Replay leg: covercli -replay takes coverd's plan path locally; on every
# codec its stdout must equal the honest file-streamed run diffed above.
"$WORK/covercli" -in "$WORK/hard.scb" -convert "$WORK/hard.scb2" -to scb2 > /dev/null
"$WORK/covercli" -in "$WORK/hard.scb" -convert "$WORK/hard.txt" -to text > /dev/null
for FILE in hard.scb hard.scb2 hard.txt; do
	"$WORK/covercli" -in "$WORK/$FILE" -algo alg1 -alpha 3 -order adversarial -seed 7 -replay \
		> "$WORK/replay.$FILE.out"
	if ! diff -u "$WORK/local.adversarial.out" "$WORK/replay.$FILE.out"; then
		echo "serve-smoke: FAIL — covercli -replay on $FILE differs from the honest local run"
		exit 1
	fi
done
echo "serve-smoke: covercli -replay output == honest local output (scb1, scb2, text)"

# Re-solving the same request must hit the result cache (stats come back
# as JSON; a crude grep keeps this dependency-free).
"$WORK/covercli" -server "http://$ADDR" "${FLAGS[@]}" > /dev/null
if command -v curl > /dev/null; then
	STATS="$(curl -fsS "http://$ADDR/v1/stats")"
	echo "$STATS" | grep -q '"cache_hits":1' || {
		echo "serve-smoke: FAIL — expected one cache hit in stats: $STATS"
		exit 1
	}
	echo "$STATS" | grep -q '"instances":1' || {
		echo "serve-smoke: FAIL — expected one resident instance (dedup): $STATS"
		exit 1
	}
	echo "serve-smoke: stats OK (1 cache hit, 1 resident instance after 2 uploads)"

	# Metrics smoke: the Prometheus exposition must parse line by line, and
	# the scheduler counters must move across one more (seed-changed, so
	# uncached) remote solve.
	metric() { echo "$1" | awk -v n="$2" '$1 == n { print $2 }'; }
	BEFORE="$(curl -fsS "http://$ADDR/metrics")"
	BAD="$(echo "$BEFORE" | grep -Ev '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* |[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?(Inf|[0-9][0-9eE.+-]*))$)' || true)"
	if [ -n "$BAD" ]; then
		echo "serve-smoke: FAIL — unparseable /metrics lines:"
		echo "$BAD" | sed 's/^/  /'
		exit 1
	fi
	"$WORK/covercli" -server "http://$ADDR" -in "$WORK/hard.scb" -algo alg1 -alpha 3 -seed 8 > /dev/null
	AFTER="$(curl -fsS "http://$ADDR/metrics")"
	SUB_BEFORE="$(metric "$BEFORE" coverd_jobs_submitted_total)"
	SUB_AFTER="$(metric "$AFTER" coverd_jobs_submitted_total)"
	PASSES_BEFORE="$(metric "$BEFORE" coverd_solve_passes_total)"
	PASSES_AFTER="$(metric "$AFTER" coverd_solve_passes_total)"
	if [ "${SUB_AFTER:-0}" -le "${SUB_BEFORE:-0}" ] || [ "${PASSES_AFTER:-0}" -le "${PASSES_BEFORE:-0}" ]; then
		echo "serve-smoke: FAIL — metrics did not move across a solve" \
			"(submitted $SUB_BEFORE -> $SUB_AFTER, passes $PASSES_BEFORE -> $PASSES_AFTER)"
		exit 1
	fi
	echo "$AFTER" | grep -q '^coverd_http_requests_total{route="POST /v1/solve",code="200"}' || {
		echo "serve-smoke: FAIL — no http request family in /metrics"
		exit 1
	}
	echo "$AFTER" | grep -q '^coverd_registry_resident_bytes' || {
		echo "serve-smoke: FAIL — no registry family in /metrics"
		exit 1
	}
	echo "serve-smoke: metrics OK (submitted $SUB_BEFORE -> $SUB_AFTER, passes $PASSES_BEFORE -> $PASSES_AFTER)"
	echo "$AFTER" | grep -q '^coverd_build_info{' || {
		echo "serve-smoke: FAIL — no coverd_build_info gauge in /metrics"
		exit 1
	}

	# Tracing leg: solve under a known client traceparent; the trace ID must
	# come back in the job snapshot, the access log, GET /v1/traces/{id} and
	# the debug listener's recent-trace list — one ID across every plane.
	TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
	TRACEPARENT="00-$TRACE_ID-00f067aa0ba902b7-01"
	DEBUG_ADDR="$(cat "$WORK/debug.addr")"
	HASH="$(curl -fsS --data-binary @"$WORK/hard.scb" "http://$ADDR/v1/instances" \
		| sed -n 's/.*"hash":"\([^"]*\)".*/\1/p')"
	JOB="$(curl -fsS -H "traceparent: $TRACEPARENT" -H 'Content-Type: application/json' \
		-d "{\"instance\":\"$HASH\",\"wait\":true,\"seed\":11}" "http://$ADDR/v1/solve")"
	echo "$JOB" | grep -q "\"trace_id\":\"$TRACE_ID\"" || {
		echo "serve-smoke: FAIL — job snapshot missing the propagated trace id: $JOB"
		exit 1
	}
	# The root span ends just after the response bytes leave, so the trace
	# can commit to the flight recorder a beat after curl returns.
	TRACE_JSON=""
	for _ in $(seq 50); do
		TRACE_JSON="$(curl -fsS "http://$ADDR/v1/traces/$TRACE_ID" 2>/dev/null || true)"
		[ -n "$TRACE_JSON" ] && break
		sleep 0.1
	done
	for SPAN in admission queue pin plan solve; do
		echo "$TRACE_JSON" | grep -q "\"name\":\"$SPAN\"" || {
			echo "serve-smoke: FAIL — recorded trace missing span \"$SPAN\": $TRACE_JSON"
			exit 1
		}
	done
	echo "$TRACE_JSON" | grep -q '"name":"pass"' || {
		echo "serve-smoke: FAIL — solve span has no per-pass events: $TRACE_JSON"
		exit 1
	}
	curl -fsS "http://$DEBUG_ADDR/debug/traces" | grep -q "$TRACE_ID" || {
		echo "serve-smoke: FAIL — trace id absent from /debug/traces"
		exit 1
	}
	curl -fsS "http://$DEBUG_ADDR/debug/bundle" | grep -q '"stats"' || {
		echo "serve-smoke: FAIL — /debug/bundle has no stats section"
		exit 1
	}
	grep 'msg=request' "$WORK/coverd.log" | grep -q "trace_id=$TRACE_ID" || {
		echo "serve-smoke: FAIL — access log missing trace_id=$TRACE_ID"
		exit 1
	}
	grep 'msg="job finished"' "$WORK/coverd.log" | grep -q "trace_id=$TRACE_ID" || {
		echo "serve-smoke: FAIL — job lifecycle log missing trace_id=$TRACE_ID"
		exit 1
	}
	echo "serve-smoke: tracing OK (trace $TRACE_ID in job, access log, lifecycle log, recorder, debug endpoints)"
fi

echo "serve-smoke: asking coverd to shut down"
kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
PID=""
if [ "$STATUS" -ne 0 ]; then
	echo "serve-smoke: FAIL — coverd exited $STATUS:"
	cat "$WORK/coverd.log"
	exit 1
fi
grep -q "bye" "$WORK/coverd.log" || {
	echo "serve-smoke: FAIL — no clean-shutdown marker:"
	cat "$WORK/coverd.log"
	exit 1
}
grep -q 'msg="coverd stopped"' "$WORK/coverd.log" || {
	echo "serve-smoke: FAIL — no structured shutdown log:"
	cat "$WORK/coverd.log"
	exit 1
}
echo "serve-smoke: OK"
