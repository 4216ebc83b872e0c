#!/usr/bin/env bash
# Hermetic CI for the Comma reproduction.
#
# The workspace has zero external dependencies (everything lives in
# crates/rt), so the whole pipeline runs with an empty cargo registry:
# `--offline` is not an optimization here, it is the guarantee the build
# stays hermetic. Run from the repository root:
#
#   ./scripts/ci.sh          # build + tests (+ clippy when installed)
#   ./scripts/ci.sh faults   # also gate on the fault/conformance suite
#   COMMA_BENCH_FAST=1 ./scripts/ci.sh bench   # also smoke the benches
#   ./scripts/ci.sh shard    # also gate the sharded-runner determinism suite
#   ./scripts/ci.sh alloc    # also gate the zero-allocation contract
#   ./scripts/ci.sh mc       # also gate the interleaving model checker

set -euo pipefail
cd "$(dirname "$0")/.."

# Deterministic work gate shared by the bench and shard modes: events per
# packet offered to a link on `flows_10k`. Exact per seed, so it holds on
# a noisy host where no wall-time gate can. A per-flow timer that fires
# whether or not the flow has work lands far above the ceiling (an
# always-armed 50 ms snoop tick reads 9.7 with 4 KiB flows and 13.6 with
# the fast configuration's 1 KiB flows); a demand-driven proxy reads 2.1-2.2.
gate_flows_10k_events_per_link_pkt() {
    local line ratio
    line="$(grep '"flows_10k"' BENCH_macro.json)" || {
        echo "$1 FAILED: BENCH_macro.json lacks \"flows_10k\"" >&2
        exit 1
    }
    for key in link_pkts events_per_link_pkt; do
        printf '%s' "$line" | grep -q "\"$key\"" || {
            echo "$1 FAILED: flows_10k block lacks \"$key\"" >&2
            exit 1
        }
    done
    ratio="$(printf '%s' "$line" | sed -n 's/.*"events_per_link_pkt": \([0-9.]*\).*/\1/p')"
    if [ -z "$ratio" ] || ! awk -v r="$ratio" 'BEGIN { exit !(r > 0 && r <= 2.5) }'; then
        echo "$1 FAILED: flows_10k events_per_link_pkt ${ratio:-?} outside (0, 2.5]; something at the proxy fires per flow rather than per packet" >&2
        exit 1
    fi
    echo "flows_10k events-per-link-packet gate ok ($ratio <= 2.5)"
}

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (offline) =="
cargo test -q --offline --workspace

if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy =="
    # type-complexity is advisory on the simulator's effect tuples.
    cargo clippy --offline --workspace --all-targets -- \
        -D warnings -A clippy::type_complexity
else
    echo "== clippy not installed; skipping =="
fi

echo "== obs smoke (example emits a non-empty observability summary) =="
out="$(cargo run -q --release --offline --example legacy_compression)"
echo "$out" | grep -q "== tcp connections ==" || {
    echo "obs smoke FAILED: no tcp-connections table in example output" >&2
    exit 1
}
echo "$out" | grep -q "== filters ==" || {
    echo "obs smoke FAILED: no filters table in example output" >&2
    exit 1
}
echo "obs smoke ok"

if [ "${1:-}" = "faults" ]; then
    echo "== fault-injection + conformance gate (release) =="
    # The mutation tests and the churn golden digest run in the workspace
    # suite too, but this gate runs them release-mode and in isolation so a
    # fault-model regression fails with its own banner.
    cargo test -q --release --offline --test faults
    cargo test -q --release --offline --test determinism churn_workload_trace_matches_golden
    cargo test -q --release --offline --test properties oracle_clean_on_wrapped_flows
    echo "fault gate ok"
fi

if [ "${1:-}" = "bench" ]; then
    echo "== bench smoke (COMMA_BENCH_FAST=${COMMA_BENCH_FAST:-0}) =="
    cargo bench -q --offline -p comma-bench --bench micro
    cargo bench -q --offline -p comma-bench --bench experiments

    echo "== macro bench (fast) =="
    COMMA_BENCH_FAST=1 cargo bench -q --offline -p comma-bench --bench macrobench
    if [ ! -s BENCH_macro.json ]; then
        echo "macro bench FAILED: BENCH_macro.json missing or empty" >&2
        exit 1
    fi
    for key in pkts_per_sec engine_ns_per_pkt events_per_sec exps_wall_ms scale metro \
               fluid_solver_ns loc; do
        grep -q "\"$key\"" BENCH_macro.json || {
            echo "macro bench FAILED: BENCH_macro.json lacks \"$key\"" >&2
            exit 1
        }
    done
    # The many-flows scale workload must report a nonzero events_per_sec
    # and the exact events-per-link-packet ratio for every N.
    for n in 16 64 256; do
        line="$(grep "\"flows_$n\"" BENCH_macro.json)" || {
            echo "macro bench FAILED: BENCH_macro.json lacks \"flows_$n\"" >&2
            exit 1
        }
        for key in events_per_sec events_per_link_pkt; do
            rate="$(printf '%s' "$line" | sed -n "s/.*\"$key\": \\([0-9.]*\\).*/\\1/p")"
            case "$rate" in
                ''|0|0.0|0.000)
                    echo "macro bench FAILED: flows_$n $key missing or zero" >&2
                    exit 1
                    ;;
            esac
        done
        printf '%s' "$line" | grep -q '"link_pkts"' || {
            echo "macro bench FAILED: flows_$n lacks \"link_pkts\"" >&2
            exit 1
        }
    done
    gate_flows_10k_events_per_link_pkt "macro bench"
    # The metro hybrid-fidelity block: foreground goodput over a fluid
    # background population, plus the scaling proof — doubling the
    # background population must not grow sim_events by more than ~1.5x,
    # because background cost is re-solve epochs on a fixed time grid,
    # not per-packet events.
    metro="$(sed -n '/"metro": {/,/},/p' BENCH_macro.json)"
    if [ -z "$metro" ]; then
        echo "macro bench FAILED: BENCH_macro.json lacks the \"metro\" block" >&2
        exit 1
    fi
    for key in bg_users fg_goodput_bps events_per_sec sim_events sim_events_2x_bg \
               fluid_links fluid_visits_per_epoch link_pkts events_per_link_pkt; do
        printf '%s' "$metro" | grep -q "\"$key\"" || {
            echo "macro bench FAILED: metro block lacks \"$key\"" >&2
            exit 1
        }
    done
    m_goodput="$(printf '%s\n' "$metro" | sed -n 's/.*"fg_goodput_bps": \([0-9.]*\).*/\1/p' | head -n1)"
    case "$m_goodput" in
        ''|0|0.0)
            echo "macro bench FAILED: metro fg_goodput_bps missing or zero" >&2
            exit 1
            ;;
    esac
    m_events="$(printf '%s\n' "$metro" | sed -n 's/.*"sim_events": \([0-9]*\).*/\1/p' | head -n1)"
    m_events_2x="$(printf '%s\n' "$metro" | sed -n 's/.*"sim_events_2x_bg": \([0-9]*\).*/\1/p' | head -n1)"
    if [ -z "$m_events" ] || [ -z "$m_events_2x" ]; then
        echo "macro bench FAILED: could not parse metro sim_events / sim_events_2x_bg" >&2
        exit 1
    fi
    if ! awk -v a="$m_events" -v b="$m_events_2x" 'BEGIN { exit !(b <= a * 1.5) }'; then
        echo "macro bench FAILED: doubling background users grew sim_events $m_events -> $m_events_2x (> 1.5x); background traffic is leaking per-packet cost" >&2
        exit 1
    fi
    # Deterministic work counter: a fluid epoch may examine at most 5% of
    # a link's population (toggles due in the slot, plus the active set
    # only when the link is contended). A per-epoch scan of every user
    # reads > 100% here, whatever the host's timing noise.
    m_users="$(printf '%s\n' "$metro" | sed -n 's/.*"bg_users": \([0-9]*\).*/\1/p' | head -n1)"
    m_links="$(printf '%s\n' "$metro" | sed -n 's/.*"fluid_links": \([0-9]*\).*/\1/p' | head -n1)"
    m_visits="$(printf '%s\n' "$metro" | sed -n 's/.*"fluid_visits_per_epoch": \([0-9.]*\).*/\1/p' | head -n1)"
    if [ -z "$m_users" ] || [ -z "$m_visits" ] || [ "${m_links:-0}" -eq 0 ]; then
        echo "macro bench FAILED: could not parse metro bg_users / fluid_links / fluid_visits_per_epoch" >&2
        exit 1
    fi
    m_per_link=$((m_users / m_links))
    if ! awk -v v="$m_visits" -v u="$m_per_link" 'BEGIN { exit !(v <= 0.05 * u) }'; then
        echo "macro bench FAILED: fluid_visits_per_epoch $m_visits exceeds 5% of $m_per_link users per link; epochs are scanning the population again" >&2
        exit 1
    fi
    echo "metro gate ok (fg_goodput_bps = $m_goodput; sim_events $m_events -> $m_events_2x at 2x bg users; $m_visits flow visits per epoch over $m_per_link users per link)"
    # Parallelism floors key off the single top-level "cores" value the
    # macrobench records (honest available_parallelism, reported once).
    cores="$(sed -n 's/.*"cores": \([0-9]*\).*/\1/p' BENCH_macro.json | head -n1)"
    exps_workers="$(sed -n 's/.*"workers": \([0-9]*\).*/\1/p' BENCH_macro.json | tail -n1)"
    exps_speedup="$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' BENCH_macro.json | head -n1)"
    if [ "${cores:-1}" -ge 4 ] && [ "${exps_workers:-1}" -ge 2 ]; then
        if ! awk -v s="${exps_speedup:-0}" 'BEGIN { exit !(s >= 1.0) }'; then
            echo "macro bench FAILED: exps speedup ${exps_speedup:-?} < 1.0 at $exps_workers workers on $cores cores" >&2
            exit 1
        fi
        echo "exps speedup gate ok (${exps_speedup}x at $exps_workers workers, $cores cores)"
    else
        # On 1-worker hosts the macrobench skips the duplicate parallel run
        # and records "speedup": null, which parses to empty here.
        echo "exps speedup gate skipped ($cores core(s), $exps_workers workers; recorded ${exps_speedup:-null}x)"
    fi
    echo "macro bench ok ($(grep -c '"unix_ts"' BENCH.json) trajectory entries)"
fi

if [ "${1:-}" = "shard" ]; then
    echo "== sharded-runner determinism gate (release) =="
    # Partition invariance (sharded == serial golden), worker invariance,
    # churn-under-sharding, and the TopologyBuilder validation surface.
    cargo test -q --release --offline --test sharding

    echo "== metro-scale hybrid-fidelity gate (release, 51k bg users) =="
    # Too heavy for the debug workspace pass, so it is #[ignore]d there and
    # pinned here: 32 cells x 1,600 fluid background users, serial vs
    # sharded traces byte-identical, per-shard oracles clean.
    cargo test -q --release --offline --test sharding metro_scale -- --ignored

    echo "== flows_10k macro fields =="
    if [ ! -s BENCH_macro.json ]; then
        echo "shard gate FAILED: BENCH_macro.json missing or empty (run the macrobench first)" >&2
        exit 1
    fi
    line="$(grep '"flows_10k"' BENCH_macro.json)" || {
        echo "shard gate FAILED: BENCH_macro.json lacks \"flows_10k\"" >&2
        exit 1
    }
    for key in events_per_sec workers speedup_vs_serial; do
        printf '%s' "$line" | grep -q "\"$key\"" || {
            echo "shard gate FAILED: flows_10k block lacks \"$key\"" >&2
            exit 1
        }
    done
    rate="$(printf '%s' "$line" | sed -n 's/.*"events_per_sec": \([0-9.]*\).*/\1/p')"
    case "$rate" in
        ''|0|0.0)
            echo "shard gate FAILED: flows_10k events_per_sec missing or zero" >&2
            exit 1
            ;;
    esac
    gate_flows_10k_events_per_link_pkt "shard gate"
    workers="$(printf '%s' "$line" | sed -n 's/.*"workers": \([0-9]*\).*/\1/p')"
    speedup="$(printf '%s' "$line" | sed -n 's/.*"speedup_vs_serial": \([0-9.]*\).*/\1/p')"
    # Honest parallelism is reported once at top level; the floor keys off it.
    cores="$(sed -n 's/.*"cores": \([0-9]*\).*/\1/p' BENCH_macro.json | head -n1)"
    if [ -z "$workers" ] || [ -z "$speedup" ]; then
        echo "shard gate FAILED: could not parse flows_10k workers/speedup" >&2
        exit 1
    fi
    # The ≥2.5× target only means something when the host actually has the
    # cores: on a 1-core CI box the runner records workers=1 and 1.0x, so
    # the speedup gate is enforced where parallel hardware exists.
    if [ "${cores:-1}" -ge 4 ] && [ "$workers" -ge 4 ]; then
        if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 2.5) }'; then
            echo "shard gate FAILED: flows_10k speedup_vs_serial $speedup < 2.5 at $workers workers on $cores cores" >&2
            exit 1
        fi
        echo "shard speedup gate ok (${speedup}x at $workers workers, $cores cores)"
    else
        echo "shard speedup gate skipped (only $cores core(s); recorded ${speedup}x at $workers workers)"
    fi
    echo "shard gate ok"
fi

if [ "${1:-}" = "mc" ]; then
    echo "== model-checker regression suite (release) =="
    cargo test -q --release --offline --test modelcheck

    echo "== exhaustive exploration at shipped bounds (release) =="
    # The runner fails on its own when the exploration is not clean, the
    # dedup ratio sags below 30%, or the known-bug mutation goes
    # undetected; it then splices the coverage numbers into
    # BENCH_macro.json as the "mc" block.
    cargo run -q --release --offline -p comma-mc --example mc_ci
    for key in states_explored states_pruned dedup_ratio states_per_sec wall_ms; do
        grep -q "\"$key\"" BENCH_macro.json || {
            echo "mc gate FAILED: BENCH_macro.json lacks \"$key\"" >&2
            exit 1
        }
    done
    states="$(sed -n 's/.*"states_explored": \([0-9]*\).*/\1/p' BENCH_macro.json | head -n1)"
    case "$states" in
        ''|0)
            echo "mc gate FAILED: states_explored missing or zero" >&2
            exit 1
            ;;
    esac
    viol="$(sed -n 's/.*"violations": \([0-9]*\).*/\1/p' BENCH_macro.json | head -n1)"
    if [ "${viol:-1}" != "0" ]; then
        echo "mc gate FAILED: shipped exploration recorded violations=$viol" >&2
        exit 1
    fi
    echo "mc gate ok ($states states explored)"
fi

if [ "${1:-}" = "alloc" ]; then
    echo "== allocation-accounting gate (alloc-stats) =="
    # The regression tests: steady-state serial event core and sharded
    # window loop must be heap-silent under the counting allocator.
    cargo test -q --release --offline --features alloc-stats --test alloc

    echo "== macro bench (fast, alloc-stats) =="
    COMMA_BENCH_FAST=1 cargo bench -q --offline -p comma-bench \
        --features alloc-stats --bench macrobench
    if [ ! -s BENCH_macro.json ]; then
        echo "alloc gate FAILED: BENCH_macro.json missing or empty" >&2
        exit 1
    fi
    for key in allocs_per_event allocs_per_window windows_skipped; do
        grep -q "\"$key\"" BENCH_macro.json || {
            echo "alloc gate FAILED: BENCH_macro.json lacks \"$key\"" >&2
            exit 1
        }
    done
    apw="$(sed -n 's/.*"allocs_per_window": \([0-9.]*\).*/\1/p' BENCH_macro.json | head -n1)"
    if [ -z "$apw" ]; then
        echo "alloc gate FAILED: allocs_per_window is null (alloc-stats not compiled in?)" >&2
        exit 1
    fi
    if ! awk -v a="$apw" 'BEGIN { exit !(a == 0) }'; then
        echo "alloc gate FAILED: steady-state allocs_per_window = $apw (must be 0)" >&2
        exit 1
    fi
    echo "alloc gate ok (allocs_per_window = $apw)"
fi

echo "ci: all green"
