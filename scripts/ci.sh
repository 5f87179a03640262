#!/usr/bin/env bash
# Local CI gate: everything a PR must pass before it lands.
#
#   scripts/ci.sh          # full gate: fmt, clippy, build, tests
#   scripts/ci.sh --quick  # skip the release build (fast inner loop)
#
# Keep this in sync with the acceptance criteria in ROADMAP.md: the
# workspace must build warning-free under clippy and the whole test
# suite (unit + integration + proptests + doc-tests) must pass.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $quick -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test"
cargo test --workspace -q

if [[ $quick -eq 0 ]]; then
    # Debug builds shrink the proptest budget to keep `cargo test` fast;
    # the paper's §2.3 subset invariant only counts at the full case count.
    echo "==> paper invariants under --release (full proptest case count)"
    cargo test --release -q --test paper_invariants

    # The analyses against their reference models, including `renumber`
    # against its reaching-definitions formulation (same webs, same
    # numbering) over the corpus, generated routines and post-spill code,
    # the IRC engine against its `BTreeSet` formulation (the same
    # outcome, field for field; the engine's graph is compared among
    # roots against the reference's replayed merged graph) on the
    # first-pass graphs of the corpus and of generated routines, the IR
    # printer against its clone-and-rename formulation (the same
    # `to_string`, canonical text and cache key) on the corpus, generated
    # routines, their allocations and adversarial renamings, `select`
    # against its k-sized scratch on corpus and random graphs up to
    # 65,536 registers, the SSA spill phase against
    # `reference::lower_pressure`, its rounds that recompute everything
    # (the same victims per round, cost bits, function and phi tables),
    # and coalescing against `reference::coalesce`, its rounds over the
    # whole interference graph (the same function and merge count in
    # every mode, on spilled code too).
    echo "==> reference models under --release (full proptest case count)"
    cargo test --release -q --test reference_models

    # IRC's peak memory on the 4,000-value clique, at most 1.25x
    # Briggs's: the engine works in the built graph and select colors
    # it, so IRC holds one graph at its peak (debug builds run a smaller
    # clique).
    echo "==> IRC peak memory under --release (4,000-value clique)"
    cargo test --release -q --test irc_memory

    # Figure 7's phase tables, which time the build split and every
    # strategy's phases over the corpus; output discarded, so this only
    # keeps them running.
    echo "==> figure7 under --release (output discarded)"
    cargo run --release -q -p optimist-bench --bin figure7 >/dev/null

    # The lossless IR text round trip, `parse(display(f)) == f`, over the
    # corpus and generated routines under adversarial renamings.
    echo "==> IR round trip under --release (full proptest case count)"
    cargo test --release -q --test ir_roundtrip

    # Chordality, round-trip behavior preservation and single-pass
    # allocation of the SSA track, also at the full case count.
    echo "==> SSA invariants under --release (full proptest case count)"
    cargo test --release -q --test ssa_invariants

    # Module allocation on a worker pool: any pool size must give the
    # results of allocating each function in turn, in module order.
    echo "==> pool-size invariance under --release (full proptest case count)"
    cargo test --release -q --test pipeline_determinism

    # Decoder fuzzing (JSON codec, serve requests, store lines, cache
    # entries, HTTP request heads) and the crash regressions for deeply
    # nested JSON, long blank-line HTTP preambles and over-long request
    # lines on live listeners.
    echo "==> hostile-input fuzz and crash regressions under --release (full proptest case count)"
    cargo test --release -q -p optimist-serve --test hostile_input
    cargo test --release -q -p optimist-serve --lib http::tests
    cargo test --release -q -p optimist-store --lib json::tests

    # The whole store package: log recovery under random truncation and
    # byte flips, compaction, failpoints and the optimist-stored daemon.
    echo "==> optimist-store under --release (full proptest case count)"
    cargo test --release -q -p optimist-store
fi

# Every optimist-bench bench, `warm` (the daemon's warm path) included.
echo "==> benches compile"
cargo build -q --benches -p optimist-bench

# optbench, the benchmark harness, is a workspace of its own that imports
# the serving and store crates' public items (cache keys and entries, the
# LRU, the ring, the store and its client), so a rename there breaks it.
# `--locked` fails on a stale optbench/Cargo.lock instead of rewriting it.
echo "==> optbench builds and its unit tests pass"
cargo test --offline --locked -q --manifest-path optbench/Cargo.toml

echo "==> server smoke test (oneshot)"
cargo build -q -p optimist-serve --bin optimist-serve
smoke_req='{"req":"alloc","ir":"func smoke(v0:int) -> int {\nb0:\n    v1 = add.i v0, v0\n    ret v1\n}\n"}'
smoke_resp="$(printf '%s\n' "$smoke_req" | ./target/debug/optimist-serve --oneshot --quiet)"
case "$smoke_resp" in
    *'"ok":true'*'"assignment":["r'*)
        ;;
    *)
        echo "server smoke test failed; response: $smoke_resp" >&2
        exit 1
        ;;
esac
# A register count no register index can name is refused in-band, and the
# daemon exits 0; one that sized a per-node table by it would abort.
huge_req='{"req":"alloc","ir":"func smoke(v0:int) -> int {\nb0:\n    v1 = add.i v0, v0\n    ret v1\n}\n","config":{"int_regs":1000000000000}}'
if ! huge_resp="$(printf '%s\n' "$huge_req" | ./target/debug/optimist-serve --oneshot --quiet)"; then
    echo "server smoke test failed: the daemon died on int_regs 10^12" >&2
    exit 1
fi
case "$huge_resp" in
    *'"ok":false'*'int_regs must be an integer from 1 to 65536'*)
        ;;
    *)
        echo "server smoke test failed: int_regs 10^12 not refused; response: $huge_resp" >&2
        exit 1
        ;;
esac

echo "==> stream smoke test (3-module batch over one TCP connection)"
stream_log="$(mktemp)"
serve_pid=""
trap 'rm -f "$stream_log"; [[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null; true' EXIT
./target/debug/optimist-serve --listen 127.0.0.1:0 --quiet 2>"$stream_log" &
serve_pid=$!
port=""
for _ in $(seq 100); do
    port="$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$stream_log")"
    [[ -n "$port" ]] && break
    sleep 0.1
done
if [[ -z "$port" ]]; then
    echo "stream smoke test failed: daemon never announced its port" >&2
    exit 1
fi
ir_fn() { printf 'func %s(v0:int) -> int {\\nb0:\\n    v1 = add.i v0, v0\\n    ret v1\\n}\\n' "$1"; }
batch_req="{\"req\":\"batch\",\"items\":[\
{\"id\":\"a\",\"ir\":\"$(ir_fn fa)\"},\
{\"id\":\"b\",\"ir\":\"$(ir_fn fb)\"},\
{\"id\":\"c\",\"ir\":\"$(ir_fn fc)\"}]}"
# One connection: the batch streams three id-tagged item records back in
# completion order (not necessarily submission order), then the done
# record; the connection reads the shutdown request only after that.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf '%s\n%s\n' "$batch_req" '{"req":"shutdown"}' >&3
stream_resp="$(head -n 5 <&3)"
exec 3<&- 3>&-
wait "$serve_pid" || true
serve_pid=""
for want in '"id":"a"' '"id":"b"' '"id":"c"' '"done":true,"ok":true,"items":3,"errors":0'; do
    case "$stream_resp" in
        *"$want"*) ;;
        *)
            echo "stream smoke test failed: missing $want; response: $stream_resp" >&2
            exit 1
            ;;
    esac
done

echo "==> http batch smoke test (the same batch as one POST /v1/alloc body)"
# The stream smoke's log and pid slots are free again; the trap above
# still covers them.
./target/debug/optimist-serve --http 127.0.0.1:0 --quiet 2>"$stream_log" &
serve_pid=$!
port=""
for _ in $(seq 100); do
    port="$(sed -n 's/.*http listening on .*:\([0-9][0-9]*\)$/\1/p' "$stream_log")"
    [[ -n "$port" ]] && break
    sleep 0.1
done
if [[ -z "$port" ]]; then
    echo "http batch smoke test failed: daemon never announced its port" >&2
    exit 1
fi
# HTTP admits and answers a batch per item, exactly like the NDJSON
# connection: three id-tagged item records, then the done record.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'POST /v1/alloc HTTP/1.1\r\nHost: ci\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "${#batch_req}" "$batch_req" >&3
http_resp="$(cat <&3)"
exec 3<&- 3>&-
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "http batch smoke test failed: daemon exited nonzero after SIGTERM" >&2
    exit 1
fi
serve_pid=""
for want in ' 200 OK' '"id":"a"' '"id":"b"' '"id":"c"' '"done":true,"ok":true,"items":3,"errors":0'; do
    case "$http_resp" in
        *"$want"*) ;;
        *)
            echo "http batch smoke test failed: missing $want; response: $http_resp" >&2
            exit 1
            ;;
    esac
done

echo "==> drain smoke test (SIGTERM mid-batch drains and exits 0)"
drain_log="$(mktemp)"
drain_pid=""
trap 'rm -f "$stream_log" "$drain_log"; [[ -n "$drain_pid" ]] && kill "$drain_pid" 2>/dev/null; true' EXIT
./target/debug/optimist-serve --listen 127.0.0.1:0 --quiet --drain-ms 10000 2>"$drain_log" &
drain_pid=$!
port=""
for _ in $(seq 100); do
    port="$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$drain_log")"
    [[ -n "$port" ]] && break
    sleep 0.1
done
if [[ -z "$port" ]]; then
    echo "drain smoke test failed: daemon never announced its port" >&2
    exit 1
fi
exec 4<>"/dev/tcp/127.0.0.1/$port"
printf '%s\n' "$batch_req" >&4
# Wait for the first item record — the batch is now mid-stream — then
# SIGTERM the daemon. The drain must still deliver the remaining records
# and the done record before the daemon exits 0.
IFS= read -r drain_first <&4
kill -TERM "$drain_pid"
drain_rest="$(head -n 3 <&4)"
exec 4<&- 4>&-
drain_resp="$drain_first
$drain_rest"
if ! wait "$drain_pid"; then
    echo "drain smoke test failed: daemon exited nonzero after SIGTERM" >&2
    exit 1
fi
drain_pid=""
for want in '"id":"a"' '"id":"b"' '"id":"c"' '"done":true,"ok":true,"items":3,"errors":0'; do
    case "$drain_resp" in
        *"$want"*) ;;
        *)
            echo "drain smoke test failed: missing $want; response: $drain_resp" >&2
            exit 1
            ;;
    esac
done

echo "==> failpoint smoke test (store writes fail; requests still answer)"
chaos_dir="$(mktemp -d)"
trap 'rm -rf "$chaos_dir" "$stream_log" "$drain_log"' EXIT
# Every store put fails with injected ENOSPC; the daemon must still answer
# the request from the memory tier and count the write error.
chaos_resp="$(printf '%s\n%s\n' "$smoke_req" '{"req":"stats"}' \
    | OPTIMIST_FAILPOINTS=put:enospc \
      ./target/debug/optimist-serve --quiet --store "$chaos_dir" --log-level error)"
case "$chaos_resp" in
    *'"ok":true'*'"put_errors":1'*)
        ;;
    *)
        echo "failpoint smoke test failed; response: $chaos_resp" >&2
        exit 1
        ;;
esac

echo "==> persistence smoke test (store survives a restart)"
store_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir" "$stream_log" "$drain_log" "$chaos_dir"' EXIT
# First daemon: computes the result and writes it through to the store.
printf '%s\n' "$smoke_req" \
    | ./target/debug/optimist-serve --oneshot --quiet --store "$store_dir" >/dev/null
# Second daemon, same store, empty memory: the disk tier must answer, and
# the stats dump must say so.
persist_resp="$(printf '%s\n%s\n' "$smoke_req" '{"req":"stats"}' \
    | ./target/debug/optimist-serve --quiet --store "$store_dir")"
case "$persist_resp" in
    *'"cached":true'*'"store":{"hits":1'*)
        ;;
    *)
        echo "persistence smoke test failed; response: $persist_resp" >&2
        exit 1
        ;;
esac

echo "==> fleet smoke test (3 store daemons + 2 serve daemons, cross-daemon warmth through a peer SIGKILL)"
cargo build -q -p optimist-store --bin optimist-stored
fleet_dir="$(mktemp -d)"
fleet_pids=""
trap 'rm -rf "$fleet_dir" "$store_dir" "$stream_log" "$drain_log" "$chaos_dir"; [[ -n "$fleet_pids" ]] && kill -9 $fleet_pids 2>/dev/null; true' EXIT
# Scrape the announced port from a daemon's stderr log. The serve daemon
# announces the HTTP front-end with its own "http listening on" line —
# drop it so the NDJSON port wins.
fleet_port() {
    local log="$1" want_http="${2:-}" port=""
    for _ in $(seq 100); do
        if [[ -n "$want_http" ]]; then
            port="$(sed -n 's/.*http listening on .*:\([0-9][0-9]*\)$/\1/p' "$log" | head -n 1)"
        else
            port="$(sed -n -e '/http listening/d' -e 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$log" | head -n 1)"
        fi
        [[ -n "$port" ]] && break
        sleep 0.1
    done
    if [[ -z "$port" ]]; then
        echo "fleet smoke test failed: $log never announced a port" >&2
        exit 1
    fi
    echo "$port"
}
./target/debug/optimist-stored --dir "$fleet_dir/shard0" 2>"$fleet_dir/stored0.log" &
stored0_pid=$!
./target/debug/optimist-stored --dir "$fleet_dir/shard1" 2>"$fleet_dir/stored1.log" &
stored1_pid=$!
./target/debug/optimist-stored --dir "$fleet_dir/shard2" 2>"$fleet_dir/stored2.log" &
stored2_pid=$!
fleet_pids="$stored0_pid $stored1_pid $stored2_pid"
sp0="$(fleet_port "$fleet_dir/stored0.log")"
sp1="$(fleet_port "$fleet_dir/stored1.log")"
sp2="$(fleet_port "$fleet_dir/stored2.log")"
fleet_peers="127.0.0.1:$sp0,127.0.0.1:$sp1,127.0.0.1:$sp2"
# Daemon 0 runs the default replica count and the HTTP front-end;
# daemon 1 asks for 2 replicas explicitly.
./target/debug/optimist-serve --listen 127.0.0.1:0 --http 127.0.0.1:0 \
    --store-peers "$fleet_peers" --quiet 2>"$fleet_dir/serve0.log" &
serve0_pid=$!
./target/debug/optimist-serve --listen 127.0.0.1:0 --store-peers "$fleet_peers" \
    --replicas 2 --quiet 2>"$fleet_dir/serve1.log" &
serve1_pid=$!
fleet_pids="$fleet_pids $serve0_pid $serve1_pid"
fp0="$(fleet_port "$fleet_dir/serve0.log")"
fp1="$(fleet_port "$fleet_dir/serve1.log")"
# Compute on daemon 0: the put fans out to both replicas of the key.
exec 5<>"/dev/tcp/127.0.0.1/$fp0"
printf '%s\n' "$smoke_req" >&5
IFS= read -r fleet_cold <&5
exec 5<&- 5>&-
case "$fleet_cold" in
    *'"ok":true'*) ;;
    *)
        echo "fleet smoke test failed: cold daemon refused; response: $fleet_cold" >&2
        exit 1
        ;;
esac
# The HTTP front-end answers health with the sharded topology.
hp0="$(fleet_port "$fleet_dir/serve0.log" http)"
exec 5<>"/dev/tcp/127.0.0.1/$hp0"
printf 'GET /v1/health HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&5
fleet_http="$(cat <&5)"
exec 5<&- 5>&-
case "$fleet_http" in
    *' 200 OK'*'"mode":"sharded"'*) ;;
    *)
        echo "fleet smoke test failed: http health; response: $fleet_http" >&2
        exit 1
        ;;
esac
# SIGKILL one store daemon — no drain, no flush: the crash case. With
# 2 replicas over 3 peers, any single death leaves every key at least
# one live replica.
kill -9 "$stored0_pid"
wait "$stored0_pid" 2>/dev/null || true
# Daemon 1 has cold memory; its only warmth is the store tier, now down
# a peer. The key must still come back cached, with a store hit, served
# by its surviving replica (directly, or via read failover past the
# corpse). Two sequential round trips — a pipelined stats request would
# snapshot the counters while the alloc is still in flight.
exec 5<>"/dev/tcp/127.0.0.1/$fp1"
printf '%s\n' "$smoke_req" >&5
IFS= read -r fleet_warm <&5
printf '%s\n' '{"req":"stats"}' >&5
IFS= read -r fleet_stats <&5
exec 5<&- 5>&-
case "$fleet_warm" in
    *'"cached":true'*) ;;
    *)
        echo "fleet smoke test failed: key went cold after one peer SIGKILL; response: $fleet_warm" >&2
        exit 1
        ;;
esac
case "$fleet_stats" in
    *'"store":{"hits":1'*'"mode":"sharded"'*) ;;
    *)
        echo "fleet smoke test failed: no cross-daemon store hit; stats: $fleet_stats" >&2
        exit 1
        ;;
esac
# The four surviving processes must drain cleanly on SIGTERM: serving
# tier first, then the store tier it depends on.
kill -TERM "$serve0_pid" "$serve1_pid"
for pid in "$serve0_pid" "$serve1_pid"; do
    if ! wait "$pid"; then
        echo "fleet smoke test failed: serve daemon exited nonzero after SIGTERM" >&2
        exit 1
    fi
done
kill -TERM "$stored1_pid" "$stored2_pid"
for pid in "$stored1_pid" "$stored2_pid"; do
    if ! wait "$pid"; then
        echo "fleet smoke test failed: store daemon exited nonzero after SIGTERM" >&2
        exit 1
    fi
done
fleet_pids=""

if [[ $quick -eq 0 ]]; then
    # The chaos, fleet, giant-kernel and stream drills over in-process
    # daemons; the giant drill serves three default-size giant kernels
    # on one daemon and checks each against a local allocation. Release
    # builds add their timing bars; one test thread, so no drill times
    # another drill's load.
    echo "==> serve drills under --release (timing bars on)"
    cargo test --release -q -p optimist-serve --test drills -- --test-threads=1

    # The strategy shootout's corpus totals (spills, copies removed,
    # passes, simulated cycles) per lane, pinned to EXPERIMENTS.md.
    echo "==> codegen golden under --release"
    cargo test --release -q --test codegen_golden
fi

echo "CI gate passed."
