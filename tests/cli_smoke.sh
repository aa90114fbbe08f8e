#!/usr/bin/env bash
# CLI smoke test for mmd_partition: pins the documented exit-code contract
# (tools/mmd_partition.cpp header) and the verify-before-write rule.
#
#   0  strictly balanced partition produced
#   2  bad input (unreadable / malformed graph file, bad usage)
#   3  deadline exceeded or cancelled (--timeout-ms)
#
# With a second argument it also pins trace_replay's strict argument
# parsing (malformed numeric flags and over-cap thread counts exit 2
# instead of silently running a different benchmark or aborting).
#
# Usage: cli_smoke.sh <path-to-mmd_partition> [path-to-trace_replay]
set -u

bin="${1:?usage: cli_smoke.sh <mmd_partition> [trace_replay]}"
replay="${2:-}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fails=0
check() {  # check <name> <expected-exit> <actual-exit>
  if [ "$3" -ne "$2" ]; then
    echo "FAIL: $1: expected exit $2, got $3" >&2
    fails=$((fails + 1))
  else
    echo "ok: $1 (exit $3)"
  fi
}

# A well-formed 3x3 grid-ish graph: 9 vertices, 12 edges, weights+costs.
good="$tmp/good.graph"
{
  echo "9 12 011"
  echo "1.0 2 1.0 4 1.0"
  echo "1.0 1 1.0 3 1.0 5 1.0"
  echo "1.0 2 1.0 6 1.0"
  echo "1.0 1 1.0 5 1.0 7 1.0"
  echo "1.0 2 1.0 4 1.0 6 1.0 8 1.0"
  echo "1.0 3 1.0 5 1.0 9 1.0"
  echo "1.0 4 1.0 8 1.0"
  echo "1.0 5 1.0 7 1.0 9 1.0"
  echo "1.0 6 1.0 8 1.0"
} > "$good"

# 1. Good input, quiet run -> exit 0 and the partition file appears.
"$bin" -k 3 --quiet -o "$tmp/out.part" "$good"
check "good input" 0 $?
[ -s "$tmp/out.part" ] || { echo "FAIL: no partition written" >&2; fails=$((fails + 1)); }

# 2. Good input with --verify -> still 0 (certificate passes).
"$bin" -k 3 --quiet --verify -o "$tmp/out2.part" "$good"
check "good input --verify" 0 $?

# 3. Missing file -> exit 2.
"$bin" -k 3 --quiet "$tmp/nope.graph" 2> /dev/null
check "missing file" 2 $?

# 4. Malformed file (non-numeric weight) -> exit 2, and the ParseError
#    message names the offending line.
bad="$tmp/bad.graph"
printf '2 1 011\nheavy 2 1.0\n1.0 1 1.0\n' > "$bad"
err="$("$bin" -k 2 --quiet "$bad" 2>&1 > /dev/null)"
check "malformed file" 2 $?
case "$err" in
  *"line 2"*) echo "ok: parse error names line 2" ;;
  *) echo "FAIL: parse error lacks line number: $err" >&2; fails=$((fails + 1)) ;;
esac

# 5. Bad usage (k missing) -> exit 2.
"$bin" --quiet "$good" 2> /dev/null
check "bad usage" 2 $?

# 6. Expired deadline -> exit 3, and verify-before-write means no output
#    file may appear.
"$bin" -k 3 --quiet --timeout-ms 0 -o "$tmp/late.part" "$good" 2> /dev/null
check "expired deadline" 3 $?
[ -e "$tmp/late.part" ] && { echo "FAIL: deadline run wrote output" >&2; fails=$((fails + 1)); }

# 7. Deadline in fast mode -> exit 3 as well (degraded or thrown, never 0).
"$bin" -k 3 --fast --quiet --timeout-ms 0 -o "$tmp/fast.part" "$good" 2> /dev/null
check "expired deadline --fast" 3 $?

# 8. Threaded + fork-depth run stays exit 0 (bit-identical stack).
"$bin" -k 3 --threads 4 --fork-depth 2 --quiet -o "$tmp/thr.part" "$good"
check "threads=4 fork-depth=2" 0 $?
cmp -s "$tmp/out.part" "$tmp/thr.part" || {
  echo "FAIL: threaded partition differs from serial" >&2
  fails=$((fails + 1))
}

# 9. --serve JSONL session: load, two decompose calls (cold then warm,
#    identical after stripping the "warm" field), stats, evict, decompose
#    after evict -> not_found, malformed request -> in-band bad_request
#    (session survives), shutdown -> exit 0.
serve_out="$tmp/serve.out"
{
  echo '{"op":"load","graph":"g","path":"'"$good"'"}'
  echo '{"op":"decompose","graph":"g","k":3,"include_partition":true}'
  echo '{"op":"decompose","graph":"g","k":3,"include_partition":true}'
  echo '{"op":"stats"}'
  echo '{"op":"evict","graph":"g"}'
  echo '{"op":"decompose","graph":"g","k":3}'
  echo 'this is not json'
  echo '{"op":"nonsense"}'
  echo '{"op":"shutdown"}'
} | "$bin" --serve > "$serve_out"
check "--serve session" 0 $?

serve_line() { sed -n "${1}p" "$serve_out"; }
expect_contains() {  # expect_contains <name> <line-no> <needle>
  case "$(serve_line "$2")" in
    *"$3"*) echo "ok: serve $1" ;;
    *) echo "FAIL: serve $1: line $2 lacks '$3': $(serve_line "$2")" >&2
       fails=$((fails + 1)) ;;
  esac
}

[ "$(wc -l < "$serve_out")" -eq 9 ] || {
  echo "FAIL: serve session: expected 9 response lines" >&2
  fails=$((fails + 1))
}
expect_contains "load ok" 1 '"ok":true,"op":"load"'
expect_contains "cold decompose ok" 2 '"status":"ok"'
expect_contains "cold decompose is cold" 2 '"warm":false'
expect_contains "warm decompose is warm" 3 '"warm":true'
expect_contains "strict balance" 2 '"strict":true'
# Responses must be byte-identical modulo the warm flag (the service may
# change latency, never bytes).
cold="$(serve_line 2 | sed 's/"warm":false/"warm":X/')"
warm="$(serve_line 3 | sed 's/"warm":true/"warm":X/')"
if [ "$cold" != "$warm" ]; then
  echo "FAIL: warm response differs from cold beyond the warm flag" >&2
  fails=$((fails + 1))
else
  echo "ok: serve warm == cold (modulo warm flag)"
fi
expect_contains "stats" 4 '"cache_hits":1'
expect_contains "evict" 5 '"existed":true'
expect_contains "decompose after evict" 6 '"status":"not_found"'
expect_contains "malformed line survives" 7 '"status":"bad_request"'
expect_contains "unknown op" 8 '"status":"bad_request"'
expect_contains "shutdown" 9 '"ok":true,"op":"shutdown"'

# 10. --serve with a malformed graph file: the load fails in-band with the
#     ParseError line number, the session keeps serving, EOF exits 0.
err_out="$(printf '{"op":"load","graph":"b","path":"%s"}\n{"op":"stats"}\n' "$bad" | "$bin" --serve)"
check "--serve malformed load, EOF exit" 0 $?
case "$err_out" in
  *'"ok":false'*'line 2'*'"op":"stats"'*) echo "ok: serve load error in-band, session survived" ;;
  *) echo "FAIL: serve malformed-load session: $err_out" >&2; fails=$((fails + 1)) ;;
esac

# 11. --repartition one-shot: base solve + delta re-solve on one context;
#     --verify certifies the final (drifted) weights before writing.
deltas="$tmp/drift.deltas"
echo "0:3.5 4:2.0 8:0.25" > "$deltas"
"$bin" -k 3 --quiet --verify --repartition "$deltas" -o "$tmp/rep.part" "$good"
check "--repartition one-shot" 0 $?
[ -s "$tmp/rep.part" ] || { echo "FAIL: no repartition output written" >&2; fails=$((fails + 1)); }

# 12. Malformed deltas file -> exit 2 (bad input), nothing written.
printf '0:1.5 nonsense\n' > "$tmp/bad.deltas"
"$bin" -k 3 --quiet --repartition "$tmp/bad.deltas" -o "$tmp/rep2.part" "$good" 2> /dev/null
check "malformed deltas file" 2 $?
[ -e "$tmp/rep2.part" ] && { echo "FAIL: malformed-deltas run wrote output" >&2; fails=$((fails + 1)); }

# 13. The chain lives on DecomposeContext only; combining --fast with the
#     --repartition demo is bad usage -> exit 2.
"$bin" -k 3 --fast --quiet --repartition "$deltas" "$good" 2> /dev/null
check "--fast --repartition is bad usage" 2 $?

# 14. --serve repartition op: first call binds the chain (full solve,
#     migration_cost -1), a delta follow-up answers with the incremental
#     fields, a missing k is bad_request, unknown graph is not_found, a
#     delta index past 2^31 - 1 is bad_request (not wrapped onto vertex
#     0); the server survives all of it and EOF exits 0.
rep_out="$tmp/serve_rep.out"
{
  echo '{"op":"load","graph":"g","path":"'"$good"'"}'
  echo '{"op":"repartition","graph":"g","k":3}'
  echo '{"op":"repartition","graph":"g","k":3,"deltas":"0:3.5 4:2.0"}'
  echo '{"op":"repartition","graph":"g","deltas":"0:1.0"}'
  echo '{"op":"repartition","graph":"nope","k":3}'
  echo '{"op":"repartition","graph":"g","k":3,"deltas":"0:bogus"}'
  echo '{"op":"repartition","graph":"g","k":3,"deltas":"4294967296:50"}'
} | "$bin" --serve > "$rep_out"
check "--serve repartition session, EOF exit" 0 $?

rep_line() { sed -n "${1}p" "$rep_out"; }
expect_rep() {  # expect_rep <name> <line-no> <needle>
  case "$(rep_line "$2")" in
    *"$3"*) echo "ok: serve repartition $1" ;;
    *) echo "FAIL: serve repartition $1: line $2 lacks '$3': $(rep_line "$2")" >&2
       fails=$((fails + 1)) ;;
  esac
}
expect_rep "chain-binding solve" 2 '"op":"repartition","graph":"g","status":"ok"'
expect_rep "no prior to migrate from" 2 '"migration_cost":-1'
expect_rep "delta follow-up ok" 3 '"status":"ok"'
expect_rep "follow-up carries chain fields" 3 '"incremental":'
expect_rep "missing k rejected" 4 '"status":"bad_request"'
expect_rep "unknown graph" 5 '"status":"not_found"'
expect_rep "bogus deltas rejected" 6 '"status":"bad_request"'
expect_rep "delta index 2^32 rejected" 7 '"status":"bad_request"'

# 15. --mem-stats prints the graph/workspace/context byte breakdown even
#     under --quiet, with a non-zero graph footprint; in fast mode too,
#     where the workspace is the fine context's.
mem_out="$("$bin" -k 3 --quiet --mem-stats "$good")"
check "--mem-stats" 0 $?
case "$mem_out" in
  *"graph_bytes="*"bytes_per_edge="*) echo "ok: mem-stats graph line" ;;
  *) echo "FAIL: mem-stats lacks graph breakdown: $mem_out" >&2; fails=$((fails + 1)) ;;
esac
case "$mem_out" in
  *"workspace_bytes="*"context_estimate_bytes="*) echo "ok: mem-stats context line" ;;
  *) echo "FAIL: mem-stats lacks workspace/context line: $mem_out" >&2; fails=$((fails + 1)) ;;
esac
case "$mem_out" in
  *"graph_bytes=0 "*) echo "FAIL: mem-stats graph_bytes is zero" >&2; fails=$((fails + 1)) ;;
  *"peak_rss_bytes="*) echo "ok: mem-stats rss line" ;;
  *) echo "FAIL: mem-stats lacks peak_rss_bytes: $mem_out" >&2; fails=$((fails + 1)) ;;
esac
fast_mem_out="$("$bin" -k 3 --quiet --fast --mem-stats "$good")"
check "--fast --mem-stats" 0 $?
case "$fast_mem_out" in
  *"workspace_bytes=0 "*) echo "FAIL: --fast --mem-stats workspace_bytes is zero" >&2; fails=$((fails + 1)) ;;
  *"workspace_bytes="*) echo "ok: --fast --mem-stats workspace line" ;;
  *) echo "FAIL: --fast --mem-stats lacks workspace_bytes: $fast_mem_out" >&2; fails=$((fails + 1)) ;;
esac

# 16. --sweep-mode: the explicit default spelling is byte-identical to the
#     flagless run; window runs clean; a removed or bogus value is bad
#     usage, and so is the removed --window-scan flag.
"$bin" -k 3 --quiet --sweep-mode default -o "$tmp/sm_def.part" "$good"
check "--sweep-mode default" 0 $?
cmp -s "$tmp/out.part" "$tmp/sm_def.part" || {
  echo "FAIL: --sweep-mode default differs from flagless run" >&2
  fails=$((fails + 1))
}
"$bin" -k 3 --quiet --sweep-mode window -o "$tmp/sm_win.part" "$good"
check "--sweep-mode window" 0 $?
[ -s "$tmp/sm_win.part" ] || { echo "FAIL: no window partition written" >&2; fails=$((fails + 1)); }
"$bin" -k 3 --quiet --sweep-mode adaptive "$good" 2> /dev/null
check "--sweep-mode adaptive (removed)" 2 $?
"$bin" -k 3 --quiet --sweep-mode sideways "$good" 2> /dev/null
check "--sweep-mode bogus value" 2 $?
"$bin" -k 3 --quiet --window-scan "$good" 2> /dev/null
check "--window-scan (removed)" 2 $?

# 17. --serve request fields: valid sweep_mode values answer ok; removed
#     or unknown values, the removed window_scan field, and non-integral
#     or out-of-range integer fields are in-band bad_requests (never
#     silently ignored or truncated), and so is a thread count above the
#     cap of 256; a timeout past the clock's range means no deadline.  The
#     session survives all of it.
sm_out="$tmp/serve_sm.out"
{
  echo '{"op":"load","graph":"g","path":"'"$good"'"}'
  echo '{"op":"decompose","graph":"g","k":3,"sweep_mode":"adaptive"}'
  echo '{"op":"decompose","graph":"g","k":3,"sweep_mode":"sideways"}'
  echo '{"op":"decompose","graph":"g","k":3,"sweep_mode":"window"}'
  echo '{"op":"decompose","graph":"g","k":3,"window_scan":true}'
  echo '{"op":"decompose","graph":"g","k":3.7}'
  echo '{"op":"decompose","graph":"g","k":1e20}'
  echo '{"op":"decompose","graph":"g","k":3,"threads":2.5}'
  echo '{"op":"decompose","graph":"g","k":3,"mode":"fast","seed":-1}'
  echo '{"op":"decompose","graph":"g","k":3,"timeout_ms":10000000000000}'
  echo '{"op":"decompose","graph":"g","k":3.0}'
  echo '{"op":"decompose","graph":"g","k":3,"threads":100000}'
} | "$bin" --serve > "$sm_out"
check "--serve request-field session, EOF exit" 0 $?
sm_line() { sed -n "${1}p" "$sm_out"; }
expect_sm() {  # expect_sm <name> <line-no> <needle>
  case "$(sm_line "$2")" in
    *"$3"*) echo "ok: serve $1" ;;
    *) echo "FAIL: serve $1: line $2 lacks '$3': $(sm_line "$2")" >&2
       fails=$((fails + 1)) ;;
  esac
}
expect_sm "sweep_mode adaptive (removed) rejected" 2 '"status":"bad_request"'
expect_sm "sweep_mode bogus rejected" 3 '"status":"bad_request"'
expect_sm "sweep_mode window" 4 '"status":"ok"'
expect_sm "window_scan (removed) rejected" 5 '"status":"bad_request"'
expect_sm "window_scan error names sweep_mode" 5 'sweep_mode'
expect_sm "k 3.7 rejected" 6 '"status":"bad_request"'
expect_sm "k 1e20 rejected" 7 '"status":"bad_request"'
expect_sm "threads 2.5 rejected" 8 '"status":"bad_request"'
expect_sm "negative seed rejected" 9 '"status":"bad_request"'
expect_sm "huge timeout means no deadline" 10 '"status":"ok"'
expect_sm "integral k 3.0 accepted" 11 '"status":"ok"'
expect_sm "threads above the cap rejected" 12 '"status":"bad_request"'
# The in-band error names its source relative to the checkout, so two
# checkouts of one commit answer with the same bytes.
expect_sm "error names src/core/context.cpp" 12 'at src/core/context.cpp:'
checkout="$(cd "$(dirname "$0")/.." && pwd)"
case "$(sm_line 12)" in
  *"$checkout"*) echo "FAIL: serve error names the checkout path: $(sm_line 12)" >&2
                 fails=$((fails + 1)) ;;
  *) echo "ok: serve error does not name the checkout path" ;;
esac

# 17b. Numeric flags are parsed strictly: trailing garbage is bad usage,
#      never a silently adopted numeric prefix; a timeout past the clock's
#      range means no deadline (exit 0, not a wrapped-around expiry).
for args in "-k 3x" "-k 3 --threads 2x" "-k 3 -p 2.5abc" "-k 3 --fork-depth 1x" \
            "-k 3 --timeout-ms 5x" "-k 99999999999"; do
  # shellcheck disable=SC2086
  "$bin" $args --quiet "$good" 2> /dev/null
  check "strict flag: $args" 2 $?
done
"$bin" --serve --budget-kb 1x < /dev/null > /dev/null 2>&1
check "strict serve flag: --budget-kb 1x" 2 $?
# --serve answers one line at a time, so it takes no --workers or --queue:
# both are bad usage.
for args in "--workers 2" "--queue 8"; do
  # shellcheck disable=SC2086
  "$bin" --serve $args < /dev/null > /dev/null 2>&1
  check "removed serve flag: $args" 2 $?
done
"$bin" -k 3 --quiet --timeout-ms 9000000000000000 "$good"
check "--timeout-ms past the clock's range" 0 $?
# Thread counts above the cap of 256 are bad usage, refused before any
# thread starts.
"$bin" -k 3 --threads 100000 --quiet "$good" 2> /dev/null
check "--threads above the cap" 2 $?

# 18. trace_replay strict argument parsing: malformed numeric flags are
#     bad usage (exit 2) and never silently run with a default value —
#     historically `--zipf garbage` ran a uniform-popularity benchmark via
#     atof's silent 0.0.  A degenerate Zipf fleet (no graphs) also exits 2.
if [ -n "$replay" ]; then
  "$replay" "$tmp/replay.json" --zipf garbage 2> /dev/null
  check "trace_replay --zipf garbage" 2 $?
  "$replay" "$tmp/replay.json" --zipf -1 2> /dev/null
  check "trace_replay --zipf -1" 2 $?
  "$replay" "$tmp/replay.json" --requests 10x 2> /dev/null
  check "trace_replay --requests 10x" 2 $?
  "$replay" "$tmp/replay.json" --graphs 0 2> /dev/null
  check "trace_replay --graphs 0" 2 $?
  "$replay" "$tmp/replay.json" --seed banana 2> /dev/null
  check "trace_replay --seed banana" 2 $?
  # Thread counts above the cap of 256 are bad usage, refused before any
  # client thread or worker starts.
  "$replay" "$tmp/replay.json" --workers 300 2> /dev/null
  check "trace_replay --workers above the cap" 2 $?
  "$replay" "$tmp/replay.json" --clients 257 2> /dev/null
  check "trace_replay --clients above the cap" 2 $?
  [ -e "$tmp/replay.json" ] && {
    echo "FAIL: malformed trace_replay args wrote output" >&2
    fails=$((fails + 1))
  }
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails smoke check(s) failed" >&2
  exit 1
fi
echo "all CLI smoke checks passed"
