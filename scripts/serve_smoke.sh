#!/usr/bin/env bash
# serve-smoke: end-to-end check of the coverd service (the CI target behind
# `make serve-smoke`). It starts a real coverd daemon on a random port,
# uploads a hardgen instance through `covercli -server`, solves it remotely
# with every solver and arrival order covercli can reach, and diffs each
# output byte for byte against a local run with identical flags — the
# determinism-over-the-wire contract. A codec leg requires the honest
# file-streamed run and covercli -replay (load once, serve every pass from
# a replay plan) to print that same output on SCB1, SCB2 and text copies of
# the instance, and both to reject a text copy whose set lines are out of
# id order. A trace leg requires covercli -trace, run locally with -replay
# and remotely, to keep stdout unchanged and print the same pass record. A
# tracing leg then solves under a known W3C traceparent and asserts the
# trace ID surfaces in the access log, the job snapshot and the debug
# listener's recent-trace list, and that the job snapshot's trace holds one
# entry per pass. Normalization legs
# then require -alpha 0 to mean the same locally and remotely and
# out-of-range -alpha/-eps to exit 2 on both paths. Finally it checks the
# daemon shuts down cleanly on SIGTERM.
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

# Identical flags, local vs remote, for every solver covercli can reach
# and every arrival order. setcover (alg1) in the default adversarial order
# is locally file-streamed, every other row is solved in memory through the
# solver catalog; covercli prints both shapes with one printer remotely, so
# every row must diff clean. No two rows share a cache key.
for ALGO in alg1 progressive storeall greedy exact; do
	for ORDER in adversarial random random-each-pass; do
		FLAGS=(-in "$WORK/hard.scb" -algo "$ALGO" -alpha 3 -order "$ORDER" -seed 7)
		"$WORK/covercli" "${FLAGS[@]}" > "$WORK/local.$ALGO.$ORDER.out"
		"$WORK/covercli" -server "http://$ADDR" "${FLAGS[@]}" > "$WORK/remote.$ALGO.$ORDER.out"
		if ! diff -u "$WORK/local.$ALGO.$ORDER.out" "$WORK/remote.$ALGO.$ORDER.out"; then
			echo "serve-smoke: FAIL — remote solve differs from the local one (-algo $ALGO -order $ORDER)"
			exit 1
		fi
		echo "serve-smoke: remote output == local output (-algo $ALGO -order $ORDER):"
		sed 's/^/  /' "$WORK/remote.$ALGO.$ORDER.out"
	done
done

# Codec leg: the honest run streams the file through stream.Open and
# -replay takes coverd's load-and-plan path; on every codec both must print
# the local output diffed above.
"$WORK/covercli" -in "$WORK/hard.scb" -convert "$WORK/hard.scb2" -to scb2 > /dev/null
"$WORK/covercli" -in "$WORK/hard.scb" -convert "$WORK/hard.txt" -to text > /dev/null
for FILE in hard.scb hard.scb2 hard.txt; do
	for REPLAY in false true; do
		"$WORK/covercli" -in "$WORK/$FILE" -algo alg1 -alpha 3 -order adversarial -seed 7 -replay="$REPLAY" \
			> "$WORK/file.$FILE.$REPLAY.out"
		if ! diff -u "$WORK/local.alg1.adversarial.out" "$WORK/file.$FILE.$REPLAY.out"; then
			echo "serve-smoke: FAIL — covercli -in $FILE -replay=$REPLAY differs from the local run"
			exit 1
		fi
	done
done
echo "serve-smoke: covercli -replay output == honest local output (scb1, scb2, text)"
echo "serve-smoke: honest file-streamed output == local output (scb1, scb2, text)"

# Text sets are listed in id order: with its set lines reversed the text
# copy is malformed, and the honest stream and the decoded -replay path must
# both reject it, naming the misplaced set id.
awk 'NR == 1 { print; next } { line[NR] = $0 } END { for (i = NR; i > 1; i--) print line[i] }' \
	"$WORK/hard.txt" > "$WORK/hard.reversed.txt"
for REPLAY in false true; do
	STATUS=0
	"$WORK/covercli" -in "$WORK/hard.reversed.txt" -algo alg1 -alpha 3 -seed 7 -replay="$REPLAY" \
		> /dev/null 2> "$WORK/reversed.err" || STATUS=$?
	if [ "$STATUS" -ne 1 ] || ! grep -q 'set id' "$WORK/reversed.err"; then
		echo "serve-smoke: FAIL — covercli -replay=$REPLAY on reversed text exited $STATUS, want 1 naming a set id:"
		cat "$WORK/reversed.err"
		exit 1
	fi
done
echo "serve-smoke: reversed text rejected, naming a set id (honest and -replay)"

# Trace leg: covercli -trace prints the solve's pass record on stderr and
# leaves stdout alone. A local -replay run and a remote run (a seed no leg
# above used, so the server solves instead of answering from its cache)
# must print the untraced stdout, and the same grid-kernel and pass lines
# once the pass durations are stripped.
TFLAGS=(-in "$WORK/hard.scb" -algo alg1 -alpha 3 -seed 13)
"$WORK/covercli" "${TFLAGS[@]}" > "$WORK/untraced.out"
"$WORK/covercli" -trace -replay "${TFLAGS[@]}" > "$WORK/traced.local.out" 2> "$WORK/traced.local.err"
"$WORK/covercli" -trace -server "http://$ADDR" "${TFLAGS[@]}" > "$WORK/traced.remote.out" 2> "$WORK/traced.remote.err"
passlines() {
	grep -E '^trace: (grid kernel|pass )' "$1" | sed -E 's/^(trace: pass [0-9]+( \(replayed\))?): [^,]+, /\1: /'
}
for WHERE in local remote; do
	if ! diff -u "$WORK/untraced.out" "$WORK/traced.$WHERE.out"; then
		echo "serve-smoke: FAIL — covercli -trace ($WHERE) changed stdout"
		exit 1
	fi
	passlines "$WORK/traced.$WHERE.err" > "$WORK/traced.$WHERE.passes"
done
if ! grep -q '^trace: pass ' "$WORK/traced.local.passes" ||
	! diff -u "$WORK/traced.local.passes" "$WORK/traced.remote.passes"; then
	echo "serve-smoke: FAIL — covercli -trace pass lines differ local vs remote (or are missing):"
	cat "$WORK/traced.local.err" "$WORK/traced.remote.err"
	exit 1
fi
echo "serve-smoke: covercli -trace stdout == untraced stdout, same pass record local and remote:"
sed 's/^/  /' "$WORK/traced.remote.passes"

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
	# uncached) remote solve. A label value is a quoted string and may hold
	# braces (the route label of GET /v1/traces/{id}).
	metric() { echo "$1" | awk -v n="$2" '$1 == n { print $2 }'; }
	BEFORE="$(curl -fsS "http://$ADDR/metrics")"
	BAD="$(echo "$BEFORE" | grep -Ev '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* |[a-zA-Z_:][a-zA-Z0-9_:]*(\{([^"}]|"([^"\\]|\\.)*")*\})? (NaN|[-+]?(Inf|[0-9][0-9eE.+-]*))$)' || true)"
	if [ -n "$BAD" ]; then
		echo "serve-smoke: FAIL — unparseable /metrics lines:"
		echo "$BAD" | sed 's/^/  /'
		exit 1
	fi
	"$WORK/covercli" -server "http://$ADDR" -in "$WORK/hard.scb" -algo alg1 -alpha 3 -seed 8 > /dev/null
	AFTER="$(curl -fsS "http://$ADDR/metrics")"
	SUB_BEFORE="$(metric "$BEFORE" coverd_jobs_submitted_total)"
	SUB_AFTER="$(metric "$AFTER" coverd_jobs_submitted_total)"
	PASSES_BEFORE="$(metric "$BEFORE" coverd_solve_pass_duration_seconds_count)"
	PASSES_AFTER="$(metric "$AFTER" coverd_solve_pass_duration_seconds_count)"
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
	# The passes cross the wire once, in the job snapshot's trace: one
	# entry per pass the result reports.
	RESULT_PASSES="$(echo "$JOB" | sed -n 's/.*"result":{[^}]*"passes":\([0-9]*\).*/\1/p')"
	TRACE_PASSES="$(echo "$JOB" | grep -o '{"pass":[0-9]*' | wc -l)"
	if [ -z "$RESULT_PASSES" ] || [ "$TRACE_PASSES" -ne "$RESULT_PASSES" ]; then
		echo "serve-smoke: FAIL — job trace has $TRACE_PASSES passes, result reports '$RESULT_PASSES': $JOB"
		exit 1
	fi
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
	echo "serve-smoke: tracing OK (trace $TRACE_ID in job, access log, lifecycle log, recorder, debug endpoints;" \
		"job trace has $TRACE_PASSES of $RESULT_PASSES passes)"
fi

# Normalization legs, after the stats check because they upload a second
# instance: covercli normalizes its flags through the solver catalog before
# either path, so -alpha 0 selects the catalog's default α on both sides,
# and an out-of-range -alpha or -eps exits 2 locally and remotely alike,
# before anything is loaded or uploaded.
ALPHA0=(-gen planted -n 32768 -m 64 -opt 2 -order random -seed 3 -alpha 0)
"$WORK/covercli" "${ALPHA0[@]}" > "$WORK/local.alpha0.out"
"$WORK/covercli" -server "http://$ADDR" "${ALPHA0[@]}" > "$WORK/remote.alpha0.out"
if ! diff -u "$WORK/local.alpha0.out" "$WORK/remote.alpha0.out"; then
	echo "serve-smoke: FAIL — -alpha 0 means different things locally and remotely"
	exit 1
fi
echo "serve-smoke: remote output == local output (-alpha 0):"
sed 's/^/  /' "$WORK/remote.alpha0.out"
for BAD in "-alpha -1" "-eps 2"; do
	for SERVER in "" "http://$ADDR"; do
		STATUS=0
		# $BAD is deliberately unquoted: it is a flag and its value.
		# shellcheck disable=SC2086
		"$WORK/covercli" -server "$SERVER" $BAD -gen planted -n 256 -m 32 \
			> "$WORK/bad.out" 2>&1 || STATUS=$?
		if [ "$STATUS" -ne 2 ]; then
			echo "serve-smoke: FAIL — covercli $BAD (server '$SERVER') exited $STATUS, want 2:"
			cat "$WORK/bad.out"
			exit 1
		fi
	done
done
echo "serve-smoke: out-of-range -alpha/-eps exit 2 locally and remotely"

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
