#!/usr/bin/env bash
# The full offline gate, one harness per job: build, the test suite (every
# behavioural invariant lives there), lint, the scoreboard (every number
# lives there), and four smokes of the real binary that no in-process
# test can stand in for. Run from the repo root.
# Keep this in sync with README.md "Install & build".
set -euo pipefail
cd "$(dirname "$0")/.."

# A failed check exits with servers still bound to the fixed ports below;
# without this the next run dies at bind.
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

cargo build --release --offline
# The benchmark harness is frozen and names public fields and signatures
# under crates/; a change that breaks that surface should fail here, in
# seconds, not after three test runs.
cargo build --release --offline --manifest-path scoreboard/Cargo.toml
# --no-fail-fast: one failing crate must not hide every suite ordered
# after it. Three runs in a row: a test that depends on scheduling or on
# a shared path shows up here, not in somebody's next run.
for _ in 1 2 3; do
    cargo test -q --offline --no-fail-fast
done
cargo clippy --offline --workspace --all-targets -- -D warnings

# The robustness and differential suites must run entirely: an
# `#[ignore]` slipped into the service crate would silently skip exactly
# the hostile-traffic coverage this gate exists for.
if grep -rn '#\[ignore' crates/service/; then
    echo "ci: ignored tests are not allowed in crates/service" >&2
    exit 1
fi
# No crate needs `unsafe`, and a chunked column or a packed row is exactly
# where `get_unchecked` tempts: every crate root forbids it.
for root in crates/*/src/lib.rs crates/*/src/main.rs crates/*/src/bin/*.rs; do
    [ -e "$root" ] || continue
    if ! grep -q '^#!\[forbid(unsafe_code)\]$' "$root"; then
        echo "ci: $root lacks #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done
# A commit patches the name index and the path summary; only deriving a
# fresh bundle (load, recovery) builds them. A build anywhere else in the
# service brings back a commit that costs the whole document.
DERIVE=$(awk '/fn derive\(/ { s = NR } s && !e && /^    }$/ { e = NR } END { print s + 0, e + 0 }' \
    crates/service/src/catalog.rs)
if git grep -n 'PathSummary::build\|NameIndex::build' crates/service/src \
    | awk -F: -v span="$DERIVE" 'BEGIN { split(span, r, " ") }
        !($1 == "crates/service/src/catalog.rs" && $2 > r[1] && $2 < r[2])' | grep .; then
    echo "ci: PathSummary or NameIndex built outside LoadedDoc::derive" >&2
    exit 1
fi
# One write path: every catalog change is logged and installed by
# `commit` (the write verbs, the follower's apply, the CLI preload) or
# `install_recovered` (restart, bootstrap), both in server.rs. A WAL
# append or an install anywhere else in non-test service or CLI code is a
# second path. (catalog.rs defines the install primitives.)
if awk '
    FNR == 1 { test = 0; inside = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    /^pub\(crate\) fn (commit|install_recovered)\(/ { inside = 1 }
    inside && /^}$/ { inside = 0; next }
    test || inside || FILENAME ~ /\/catalog\.rs$/ || /^[ \t]*\/\// { next }
    /log_with\(|insert_with_id\(|catalog\.replace\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }' crates/service/src/*.rs crates/cli/src/*.rs; then
    echo "ci: catalog written outside commit / install_recovered" >&2
    exit 1
fi
# One connection state machine: only mux.rs's `Conn` splits requests off
# the wire. A call to either request decoder anywhere else in non-test
# service code is a second front end. (wire.rs defines them.)
if awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test || FILENAME ~ /\/mux\.rs$/ || /^[ \t]*\/\// || /fn decode_(request|line)\(/ { next }
    /decode_request\(|decode_line\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }' crates/service/src/*.rs; then
    echo "ci: a request decoded outside the connection state machine (mux.rs)" >&2
    exit 1
fi

# One testkit: the integration suites take their tree shapes, scratch
# directories, waits and server fixtures from crates/testkit. No test,
# integration or unit, writes into the system temp dir: the kit's scratch
# directories, and the `Scratch` of each crate whose unit tests touch
# disk, live under target/tmp and go when their test passes. A suite that
# defines its own copy again, or reaches for temp_dir(), is the drift the
# kit removed.
if grep -nE 'fn (scratch|test_dir|wait_until|wait_for|trees|forests)\(' \
    tests/*.rs crates/*/tests/*.rs || grep -rn 'temp_dir(' tests crates/*/tests crates/*/src; then
    echo "ci: a test suite defines a testkit helper or writes into the system temp dir" >&2
    exit 1
fi
# One declaration per series: every Prometheus family is named in the
# series table (prom.rs) and nowhere else. A "ruid_…" string literal in
# any other non-test service code is a second spelling of one.
if awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test || FILENAME ~ /\/prom\.rs$/ || /^[ \t]*\/\// { next }
    /"ruid_/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }' crates/service/src/*.rs; then
    echo "ci: a Prometheus family named outside the series table (prom.rs)" >&2
    exit 1
fi

# The scoreboard is a workspace of its own that calls deep into the
# service's public API: build it, run its unit and smoke tests, and run
# all four workloads at smoke scale (every answer checked against its
# oracle), so an API change under crates/ that breaks the benchmark fails
# here and not in the next measurement.
cargo test --release --offline --manifest-path scoreboard/Cargo.toml
cargo run --release --offline --quiet --manifest-path scoreboard/Cargo.toml -- --smoke

# Crash-recovery smoke: serve with a data dir, load, record an answer,
# SIGKILL the server (no SHUTDOWN, no snapshot), restart on the same data
# dir, and demand the byte-identical answer back.
RUID_XML=target/release/ruid-xml
CI_DIR=target/ci-durability
rm -rf "$CI_DIR"; mkdir -p "$CI_DIR"
printf '<catalog><book id="b1"><title>A</title><price>35</price></book><book id="b2"><title>B</title><price>20</price></book></catalog>' \
    > "$CI_DIR/sample.xml"

wait_ping() { # addr
    for _ in $(seq 1 100); do
        "$RUID_XML" client "$1" PING >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "ci: server on $1 never came up" >&2; exit 1
}

"$RUID_XML" serve --addr 127.0.0.1:7441 --data-dir "$CI_DIR/data" --fsync always &
SRV=$!
wait_ping 127.0.0.1:7441
"$RUID_XML" client 127.0.0.1:7441 "LOAD $CI_DIR/sample.xml" >/dev/null
BEFORE=$("$RUID_XML" client 127.0.0.1:7441 "QUERY 1 //book/title")
PLAN_BEFORE=$("$RUID_XML" client 127.0.0.1:7441 "EXPLAIN 1 //book/title")
case "$PLAN_BEFORE" in
    "OK cache="*"scan"*"est="*"actual="*) ;;
    *) echo "ci: EXPLAIN malformed: $PLAN_BEFORE" >&2; exit 1 ;;
esac
kill -9 "$SRV"; wait "$SRV" 2>/dev/null || true

"$RUID_XML" serve --addr 127.0.0.1:7442 --data-dir "$CI_DIR/data" --fsync always &
SRV=$!
wait_ping 127.0.0.1:7442
AFTER=$("$RUID_XML" client 127.0.0.1:7442 "QUERY 1 //book/title")
if [ "$BEFORE" != "$AFTER" ]; then
    echo "ci: recovered answer diverged: '$BEFORE' vs '$AFTER'" >&2; exit 1
fi
# EXPLAIN after kill -9: the path summary is rebuilt during recovery, so
# the rendered plan (everything past the cache-status line) is unchanged.
PLAN_AFTER=$("$RUID_XML" client 127.0.0.1:7442 "EXPLAIN 1 //book/title")
if [ "${PLAN_BEFORE#*\\n}" != "${PLAN_AFTER#*\\n}" ]; then
    echo "ci: recovered plan diverged: '$PLAN_BEFORE' vs '$PLAN_AFTER'" >&2; exit 1
fi
METRICS=$("$RUID_XML" client 127.0.0.1:7442 METRICS)
if command -v jq >/dev/null; then
    # Fold the METRICS key=value tokens into JSON and validate the
    # recovery counters: durability on, one LOAD replayed, nothing torn.
    printf '%s\n' "$METRICS" | tr ' ' '\n' | awk -F= '/=/ {
        v = $2; if (v !~ /^-?[0-9]+$/) v = "\"" v "\"";
        printf "%s{\"%s\": %s}", (n++ ? "," : "["), $1, v } END { print "]" }' \
    | jq -es 'add | add
              | .durability == "on"
              and .replayed == 1
              and .truncated_bytes == 0
              and .quarantined == 0' >/dev/null \
        || { echo "ci: recovery metrics failed validation: $METRICS" >&2; exit 1; }
fi
"$RUID_XML" client 127.0.0.1:7442 SHUTDOWN >/dev/null
wait "$SRV" 2>/dev/null || true

# Observability smoke: TRACE/SLOWLOG must capture a span breakdown, and
# the Prometheus endpoint must expose well-formed families with monotone
# cumulative histogram buckets.
OBS_DIR=target/ci-observability
rm -rf "$OBS_DIR"; mkdir -p "$OBS_DIR"
printf '<r><x><y/></x><x><y/><y/></x><item id="item7"/></r>' > "$OBS_DIR/sample.xml"
"$RUID_XML" serve --addr 127.0.0.1:7443 --data-dir "$OBS_DIR/data" \
    --fsync always --metrics-addr 127.0.0.1:7444 &
SRV=$!
wait_ping 127.0.0.1:7443
"$RUID_XML" client 127.0.0.1:7443 "LOAD $OBS_DIR/sample.xml" >/dev/null
"$RUID_XML" client 127.0.0.1:7443 "TRACE 0" >/dev/null
"$RUID_XML" client 127.0.0.1:7443 "QUERY 1 //x/y" >/dev/null
# An explicitly indexed query keeps the axis-step families populated now
# that the default engine is the planner (which walks no axes for //x/y).
"$RUID_XML" client 127.0.0.1:7443 "QUERY 1 //x/y indexed" >/dev/null
# One committed structural update: resolve a parent's label over the wire
# (the root element is the query context, so address its first <x> child),
# INSERT under it, and demand the answer reflect the commit — this also
# populates the ruid_updates_total / ruid_generation families below.
X_LBL=$("$RUID_XML" client 127.0.0.1:7443 "LABEL 1 //x" | awk '{print $3}' | tr -d '()' | tr ',' ' ')
INS=$("$RUID_XML" client 127.0.0.1:7443 "INSERT 1 $X_LBL 0 <z/>")
case "$INS" in
    "OK label="*"generation="*) ;;
    *) echo "ci: INSERT malformed: $INS" >&2; exit 1 ;;
esac
Z=$("$RUID_XML" client 127.0.0.1:7443 "QUERY 1 //z")
case "$Z" in
    "OK 1 "*) ;;
    *) echo "ci: INSERT not visible to QUERY: $Z" >&2; exit 1 ;;
esac
# A value predicate runs as a value-probe, and EXPLAIN says so.
"$RUID_XML" client 127.0.0.1:7443 "QUERY 1 //item[@id='item7']" >/dev/null
PROBE=$("$RUID_XML" client 127.0.0.1:7443 "EXPLAIN 1 //item[@id='item7']")
case "$PROBE" in
    *"value-probe"*) ;;
    *) echo "ci: EXPLAIN names no value-probe: $PROBE" >&2; exit 1 ;;
esac
SLOWLOG=$("$RUID_XML" client 127.0.0.1:7443 "SLOWLOG 5")
case "$SLOWLOG" in
    *"cmd=QUERY"*"parse_ns="*"eval_ns="*"write_ns="*) ;;
    *) echo "ci: SLOWLOG missing span breakdown: $SLOWLOG" >&2; exit 1 ;;
esac

# Scrape over plain HTTP (bash /dev/tcp — no curl dependency).
exec 3<>/dev/tcp/127.0.0.1/7444
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
SCRAPE=$(cat <&3)
exec 3<&- 3>&-
printf '%s\n' "$SCRAPE" | awk '
    /^ruid_request_duration_seconds_bucket\{command="query",le="/ {
        if ($2 + 0 < last + 0) { print "ci: bucket shrank: " $0; bad = 1 }
        last = $2; buckets++
    }
    /^ruid_requests_total\{command="query"\} /        { have["query"]  = 1 }
    /^ruid_xpath_steps_total\{axis="child"\} /        { have["axis"]   = 1 }
    /^ruid_robustness_events_total\{kind="shed"\} /   { have["robust"] = 1 }
    /^ruid_wal_records_total /                        { have["wal"]    = 1 }
    /^ruid_wal_unsynced_records /                     { have["unsync"] = 1 }
    /^ruid_pool_jobs_submitted_total /                { have["pool"]   = 1 }
    /^ruid_slowlog_captured_total /                   { have["trace"]  = 1 }
    /^ruid_plan_operators_total\{op="scan"\} /        { have["plan"]   = 1 }
    /^ruid_plan_operators_total\{op="value-probe"\} / { if ($2 + 0 >= 1) have["probe"] = 1 }
    /^ruid_plan_cache_misses_total /                  { have["cache"]  = 1 }
    /^ruid_updates_total\{op="insert"\} /             { if ($2 + 0 >= 1) have["update"] = 1 }
    /^ruid_generation /                               { if ($2 + 0 >= 2) have["gen"]    = 1 }
    END {
        split("query axis robust wal unsync pool trace plan probe cache update gen", need, " ")
        for (i in need) if (!have[need[i]]) { print "ci: missing family: " need[i]; bad = 1 }
        if (buckets < 20) { print "ci: bucket ladder too short: " buckets; bad = 1 }
        exit bad
    }' || { echo "ci: prometheus scrape failed validation" >&2; exit 1; }

# The wire transport shares the same renderer, and now exposes the
# per-protocol request counters and the wire-layer histograms.
PROM=$("$RUID_XML" client 127.0.0.1:7443 "METRICS prom")
case "$PROM" in
    "OK # HELP"*) ;;
    *) echo "ci: METRICS prom malformed: $PROM" >&2; exit 1 ;;
esac
case "$PROM" in
    *'ruid_protocol_requests_total{protocol="text"}'*) ;;
    *) echo "ci: METRICS prom missing protocol counters" >&2; exit 1 ;;
esac
case "$PROM" in
    *"ruid_net_bytes_read_total"*"ruid_pipeline_depth_bucket"*"ruid_batch_size_bucket"*) ;;
    *) echo "ci: METRICS prom missing wire-layer families" >&2; exit 1 ;;
esac
"$RUID_XML" client 127.0.0.1:7443 SHUTDOWN >/dev/null
wait "$SRV" 2>/dev/null || true

# Mixed-protocol smoke: text and binary clients on one port at once, the
# front end negotiated from the first byte of each connection. The same
# request over both protocols must print the same bytes — the binary client
# sends PING, QUERY, LABEL, PARENT and GET under their own verb codes and
# STATS in a TEXT frame.
MIX_DIR=target/ci-mixed
rm -rf "$MIX_DIR"; mkdir -p "$MIX_DIR"
printf '<a><b><c/><a/></b><b/></a>' > "$MIX_DIR/sample.xml"
"$RUID_XML" serve --addr 127.0.0.1:7445 &
SRV=$!
wait_ping 127.0.0.1:7445
"$RUID_XML" client 127.0.0.1:7445 "LOAD $MIX_DIR/sample.xml" >/dev/null
C_LBL=$("$RUID_XML" client 127.0.0.1:7445 "LABEL 1 //c" | awk '{print $3}' | tr -d '()' | tr ',' ' ')
for REQ in "PING" "QUERY 1 //b[c]" "LABEL 1 //b" "PARENT 1 $C_LBL" "GET 1 $C_LBL" "STATS 1"; do
    TEXT_ANS=$("$RUID_XML" client 127.0.0.1:7445 "$REQ")
    BIN_ANS=$("$RUID_XML" client 127.0.0.1:7445 --protocol binary "$REQ")
    if [ "$TEXT_ANS" != "$BIN_ANS" ]; then
        echo "ci: protocol fork on '$REQ': text='$TEXT_ANS' binary='$BIN_ANS'" >&2
        exit 1
    fi
done
# Both front ends were actually exercised on this server. (The wire
# response is one escaped line, so count occurrences, not lines.)
PROTO_COUNTS=$("$RUID_XML" client 127.0.0.1:7445 "METRICS prom" \
    | grep -o 'ruid_protocol_requests_total{protocol=' | wc -l)
if [ "$PROTO_COUNTS" -ne 2 ]; then
    echo "ci: expected 2 protocol counter samples, got $PROTO_COUNTS" >&2; exit 1
fi
"$RUID_XML" client 127.0.0.1:7445 --protocol binary SHUTDOWN >/dev/null
wait "$SRV" 2>/dev/null || true

# Replication smoke: boot a leader and a follower as real processes, ship
# the leader's snapshot, kill -9 the follower and restart it on what it
# persisted, then kill -9 the leader, promote the follower, and demand the
# promoted replica serve the byte-identical pre-kill answer — then accept
# writes.
REPL_DIR=target/ci-replication
rm -rf "$REPL_DIR"; mkdir -p "$REPL_DIR"
printf '<catalog><book id="b1"><title>A</title><price>35</price></book><book id="b2"><title>B</title><price>20</price></book></catalog>' \
    > "$REPL_DIR/sample.xml"

"$RUID_XML" serve --addr 127.0.0.1:7446 --data-dir "$REPL_DIR/leader" --fsync always &
LEADER=$!
wait_ping 127.0.0.1:7446
"$RUID_XML" client 127.0.0.1:7446 "LOAD $REPL_DIR/sample.xml" >/dev/null
# The follower bootstraps from this image, not from an empty chain.
"$RUID_XML" client 127.0.0.1:7446 SNAPSHOT >/dev/null
BEFORE=$("$RUID_XML" client 127.0.0.1:7446 "QUERY 1 //book/title")

start_follower() {
    "$RUID_XML" serve --addr 127.0.0.1:7447 --data-dir "$REPL_DIR/follower" \
        --fsync always --follow 127.0.0.1:7446 --repl-poll-ms 10 \
        --metrics-addr 127.0.0.1:7448 &
    FOLLOWER=$!
    wait_ping 127.0.0.1:7447
}
await_replica() {
    for _ in $(seq 1 100); do
        REPLICA=$("$RUID_XML" client 127.0.0.1:7447 "QUERY 1 //book/title" 2>/dev/null || true)
        [ "$REPLICA" = "$BEFORE" ] && break
        sleep 0.1
    done
    if [ "$REPLICA" != "$BEFORE" ]; then
        echo "ci: follower $1: '$REPLICA' vs '$BEFORE'" >&2; exit 1
    fi
}
start_follower
await_replica "never converged"

# The follower persisted the image it was shipped: killed and restarted
# on its own data directory, it recovers the document locally.
kill -9 "$FOLLOWER"; wait "$FOLLOWER" 2>/dev/null || true
start_follower
case "$("$RUID_XML" client 127.0.0.1:7447 METRICS)" in
    *" recovered_docs=1 "*) ;;
    *) echo "ci: restarted follower recovered nothing from its own snapshot" >&2; exit 1 ;;
esac
await_replica "lost the document across a restart"

# Writes bounce off the replica with a redirect to the leader.
RO=$("$RUID_XML" client 127.0.0.1:7447 "LOAD $REPL_DIR/sample.xml" 2>/dev/null || true)
case "$RO" in
    "ERR read-only replica"*"127.0.0.1:7446"*) ;;
    *) echo "ci: replica accepted a write: $RO" >&2; exit 1 ;;
esac

# The follower's Prometheus endpoint exposes the role and lag gauges.
exec 3<>/dev/tcp/127.0.0.1/7448
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
REPL_SCRAPE=$(cat <&3)
exec 3<&- 3>&-
case "$REPL_SCRAPE" in
    *'ruid_repl_role{role="follower"} 1'*) ;;
    *) echo "ci: follower scrape missing role gauge" >&2; exit 1 ;;
esac
case "$REPL_SCRAPE" in
    *"ruid_repl_lag_seconds"*"ruid_repl_records_applied_total"*) ;;
    *) echo "ci: follower scrape missing replication families" >&2; exit 1 ;;
esac

# Kill the leader dead — no SHUTDOWN, no snapshot — and fail over.
kill -9 "$LEADER"; wait "$LEADER" 2>/dev/null || true
PROMOTED=$("$RUID_XML" client 127.0.0.1:7447 PROMOTE)
if [ "$PROMOTED" != "OK role=leader promoted=true" ]; then
    echo "ci: promotion failed: $PROMOTED" >&2; exit 1
fi
AFTER=$("$RUID_XML" client 127.0.0.1:7447 "QUERY 1 //book/title")
if [ "$AFTER" != "$BEFORE" ]; then
    echo "ci: failover answer diverged: '$BEFORE' vs '$AFTER'" >&2; exit 1
fi
# The promoted leader accepts writes again, and says so in METRICS.
"$RUID_XML" client 127.0.0.1:7447 "LOAD $REPL_DIR/sample.xml" >/dev/null
REPL_METRICS=$("$RUID_XML" client 127.0.0.1:7447 METRICS)
case "$REPL_METRICS" in
    *"repl_role=leader"*"repl_promotions=1"*) ;;
    *) echo "ci: promoted metrics malformed: $REPL_METRICS" >&2; exit 1 ;;
esac
"$RUID_XML" client 127.0.0.1:7447 SHUTDOWN >/dev/null
wait "$FOLLOWER" 2>/dev/null || true
