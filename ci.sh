#!/usr/bin/env bash
# Tier-1 CI: formatting, lints, build and tests for the default
# workspace members. Fully offline — all dependencies are vendored
# path crates, so no registry or network access is needed.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --release --all-targets -- -D warnings
# pfm-lint and pfm-bench (repro, pfm-analyze) are outside the default
# members, so the step above does not reach them.
cargo clippy --release -p pfm-lint -p pfm-bench --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps -p pfm-lint -p pfm-bench

echo "== pfm-lint (workspace invariants) =="
cargo run -q --release -p pfm-lint -- --workspace
cargo test -q --release -p pfm-lint

echo "== pfm-lint evasion gate (interprocedural teeth) =="
# The seeded evasion corpus, staged as a crate-shaped tree, must fail
# with transitive findings that print their call paths; the clean
# workspace above already proved the zero-noise side.
lint_bin="$PWD/target/release/pfm-lint"
lint_dir="$(mktemp -d)"
mkdir -p "$lint_dir/crates/core/src" "$lint_dir/crates/fabric/src"
cp crates/lint/tests/fixtures/evasion_snapshot_clock.rs \
   crates/lint/tests/fixtures/evasion_store_key_env.rs \
   crates/lint/tests/fixtures/evasion_agent_taint.rs \
   crates/lint/tests/fixtures/evasion_scc_cycle.rs \
   "$lint_dir/crates/core/src/"
cp crates/lint/tests/fixtures/evasion_swap_mutator.rs \
   "$lint_dir/crates/fabric/src/"
evasion_out="$(cd "$lint_dir" && "$lint_bin" crates 2>&1)" && {
    echo "pfm-lint passed the seeded evasion corpus" >&2
    exit 1
}
for want in snapshot-wall-clock store-key-purity agent-taint swap-purity "(path: "; do
    echo "$evasion_out" | grep -qF "$want" || {
        echo "evasion gate missing expected marker: $want" >&2
        echo "$evasion_out" >&2
        exit 1
    }
done
# --json -o writes an atomic, parseable pfm-lint/1 report with paths.
(cd "$lint_dir" && "$lint_bin" --json -o findings.json crates 2>/dev/null) || true
grep -q '"schema":"pfm-lint/1"' "$lint_dir/findings.json" || {
    echo "pfm-lint --json -o did not write a pfm-lint/1 report" >&2
    exit 1
}
python3 -m json.tool "$lint_dir/findings.json" > /dev/null || {
    echo "pfm-lint --json output is not valid JSON" >&2
    exit 1
}
# --graph dumps the call graph in both forms.
"$lint_bin" --graph crates/lint/src/graph.rs | grep -q "fn extract_fns" || {
    echo "pfm-lint --graph text dump missing functions" >&2
    exit 1
}
"$lint_bin" --graph=dot crates/lint/src/graph.rs | grep -q "^digraph" || {
    echo "pfm-lint --graph=dot did not emit a digraph" >&2
    exit 1
}
rm -rf "$lint_dir"

echo "== pfm-analyze (static analysis of registered use cases) =="
cargo build -q --release -p pfm-bench
analyze_bin="$PWD/target/release/pfm-analyze"
# Every check must come back clean, including interface inference:
# each hand-built component watchlist entry is derived or carries a
# typed divergence, since any coverage gap is a derived-watch-gap.
"$analyze_bin" > /dev/null
# The analyzer must have teeth: a corrupted watch PC must fail, and it
# must be flagged by the watch cross-checks specifically (mismatch
# against the kernel, and a gap in the derived watch set).
corrupt_out="$("$analyze_bin" --corrupt-watch astar 2>&1)" && {
    echo "pfm-analyze failed to flag a corrupted watch PC" >&2
    exit 1
}
echo "$corrupt_out" | grep -q "derived-watch-gap" || {
    echo "corrupted watch PC did not surface as a derived-watch-gap" >&2
    exit 1
}
# The pfm-analyze/2 profile report round-trips through the atomic -o
# writer.
derive_dir="$(mktemp -d)"
"$analyze_bin" --profile all --json -o "$derive_dir/profiles.json" 2>/dev/null
grep -q '"schema":"pfm-analyze/2"' "$derive_dir/profiles.json" || {
    echo "pfm-analyze --profile -o did not write a pfm-analyze/2 report" >&2
    exit 1
}
rm -rf "$derive_dir"

echo "== cargo build --release =="
# --locked here, in the test step and in the benchmark smoke tests: a
# dependency edit that would rewrite Cargo.lock or benchmark/Cargo.lock
# fails CI instead of silently changing a lock file on the next build.
cargo build --release --locked

echo "== cargo test =="
# Includes the two-speed equivalence gate (pfm-sim's functional_equivalence).
cargo test -q --release --locked

echo "== cargo test (dev profile: the debug oracles) =="
# Release builds compile out the debug checks: the core's ready-list
# oracle (debug_check_ready) and, beside it, the record ring's two
# asserts (at most rob_size + front_cap records, each slot holding its
# own seq); the issue-time dispatch_ready and waiting_count asserts,
# the event wheel's due-after-now assert and the hooks'
# non-interference bracket; the MSHR file's cached earliest ready; the
# template component's entered set against whole-set expiry; each cache
# fill's absent-line precondition; and TAGE-SC-L's fold-step and
# checkpoint-depth asserts. Run those crates' tests and the golden
# stats with them compiled in. The input builders (graph CSR counting
# sort, page-run image writes) run here with overflow checks, against
# their per-element references.
cargo test -q --locked -p pfm-core -p pfm-bpred
cargo test -q --locked -p pfm-mem -p pfm-fabric -p pfm-components
cargo test -q --locked -p pfm-isa -p pfm-workloads
cargo test -q --locked -p pfm-sim --test golden_stats

echo "== benchmark smoke tests =="
# benchmark/ is its own workspace, so the step above does not build it;
# it reaches pfm-workloads and pfm-sim only through their public APIs.
cargo test -q --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "== repro menu (ids come from the experiment registry) =="
repro_bin="$PWD/target/release/repro"
# --list prints every registry id in registry order; an unknown id
# prints the same menu on stderr and exits 1.
menu_ids="fig2 fig8 table2 fig9 fig10 fig12 table3 fig13 fig14 fig17 table4 fig18 \
ablations chaos chaos-smoke context-switch"
listed="$("$repro_bin" --list --no-store | awk 'NR > 1 { print $1 }' | xargs)"
[ "$listed" = "$menu_ids" ] || {
    echo "repro --list ids differ from the registry: $listed" >&2
    exit 1
}
if unknown_err="$("$repro_bin" fig99 2>&1 > /dev/null)"; then
    echo "repro fig99 exited 0" >&2
    exit 1
fi
unknown_ids="$(echo "$unknown_err" | sed -n '/^available experiments:/,/^$/p' \
    | awk 'NR > 1 && NF { print $1 }' | xargs)"
[ "$unknown_ids" = "$menu_ids" ] || {
    echo "repro fig99 did not print the menu on stderr:" >&2
    echo "$unknown_err" >&2
    exit 1
}

echo "== repro chaos-smoke (graceful degradation under faults) =="
"$repro_bin" chaos-smoke --quick --jobs 4 > /dev/null

echo "== repro context-switch (chaos-swap gate) =="
# Mid-swap fault scenarios on the two-tenant plan: every arm —
# fault-free scheduler and all four chaos scenarios — must report a
# commit checksum bit-identical to the no-fabric baseline, and the
# fault-free scheduler must not thrash (only corrupt-signature is
# allowed to swap beyond the phase count).
cs_out="$("$repro_bin" context-switch --quick --jobs 4 --no-store)"
cs_ok="$(echo "$cs_out" | grep -c "checksum OK" || true)"
cs_bad="$(echo "$cs_out" | grep -c "checksum MISMATCH" || true)"
[ "$cs_bad" -eq 0 ] && [ "$cs_ok" -ge 8 ] || {
    echo "context-switch arms broke checksum parity ($cs_ok OK, $cs_bad mismatched):" >&2
    echo "$cs_out" | grep "checksum" >&2
    exit 1
}
sched_swaps="$(echo "$cs_out" \
    | sed -n 's/^  sched modeled .* swaps \([0-9]*\) .*/\1/p')"
[ -n "$sched_swaps" ] && [ "$sched_swaps" -ge 1 ] && [ "$sched_swaps" -le 16 ] || {
    echo "fault-free scheduler thrash bound violated (swaps=$sched_swaps, want 1..16)" >&2
    exit 1
}

echo "== repro --sampled (intervals run their base spec) =="
# A sampled run's intervals are its base spec (here the baseline)
# started from snapshots: 8 interval rows, the CI line, and one
# progress key per interval extending the baseline key.
sampled_err="$(mktemp)"
sampled_out="$("$repro_bin" --sampled libquantum --quick --jobs 4 2> "$sampled_err")"
sampled_rows="$(echo "$sampled_out" | grep -cE '^ +[0-9]+ +[0-9]+ +[0-9]+ +[0-9.]+ +(yes|no)$' || true)"
sampled_keys="$(grep -cE '[|]baseline[|].*[|]interval@' "$sampled_err" || true)"
[ "$sampled_rows" -eq 8 ] && [ "$sampled_keys" -eq 8 ] \
    && echo "$sampled_out" | grep -q "^mean IPC" || {
    echo "sampled run: $sampled_rows interval rows, $sampled_keys baseline interval keys (want 8, 8):" >&2
    echo "$sampled_out" >&2
    cat "$sampled_err" >&2
    exit 1
}
rm -f "$sampled_err"

echo "== repro output does not depend on the worker count =="
# Executor threads share use-case memory images page by page (a clone
# copies a page only when it writes it), so one job and four must print
# the same bytes. Only the plan: line, which carries wall-clock time
# and the job count, may differ.
jobs_dir="$(mktemp -d)"
for jobs in 1 4; do
    "$repro_bin" fig2 fig14 fig17 --quick --no-store --jobs "$jobs" \
        > "$jobs_dir/j$jobs.out" 2> "$jobs_dir/j$jobs.log" || {
        cat "$jobs_dir/j$jobs.log" >&2
        exit 1
    }
done
diff <(grep -v '^plan:' "$jobs_dir/j1.out") <(grep -v '^plan:' "$jobs_dir/j4.out") || {
    echo "repro output at --jobs 1 differs from --jobs 4 (diff above)" >&2
    exit 1
}
rm -rf "$jobs_dir"

echo "== repro --all reproduces repro_output.txt =="
# The committed tables and figures must be what the code computes: any
# drift fails the run and prints the diff. Only the plan: line, which
# carries wall-clock time, may differ.
repro_all="$(mktemp)"
"$repro_bin" --all --no-store --jobs 4 > "$repro_all" 2> "$repro_all.log" || {
    cat "$repro_all.log" >&2
    exit 1
}
diff <(grep -v '^plan:' repro_output.txt) <(grep -v '^plan:' "$repro_all") || {
    echo "repro --all no longer reproduces repro_output.txt (diff above)" >&2
    exit 1
}
rm -f "$repro_all" "$repro_all.log"

echo "== result store warm-cache gate =="
# Same smoke plan twice against a fresh store: the second run must be
# 100% hits with zero simulations, and the assembled stats (everything
# but the wall-clock plan line) must be bit-identical. The plan takes
# every stats layer through the store: chaos-smoke carries FaultStats
# and context-switch carries CtxStats.
store_dir="$(mktemp -d)"
"$repro_bin" fig8 chaos-smoke context-switch --quick --jobs 4 --store "$store_dir/store" \
    > "$store_dir/cold.out" 2> "$store_dir/cold.log"
"$repro_bin" fig8 chaos-smoke context-switch --quick --jobs 4 --store "$store_dir/store" \
    > "$store_dir/warm.out" 2> "$store_dir/warm.log"
cold_misses="$(sed -n 's/.*store: [0-9]* hit(s), \([0-9]*\) miss(es).*/\1/p' "$store_dir/cold.out")"
warm_plan="$(grep '^plan:' "$store_dir/warm.out")"
[ -n "$cold_misses" ] && [ "$cold_misses" -gt 0 ] || {
    echo "cold run did not miss the fresh store" >&2
    exit 1
}
echo "$warm_plan" | grep -q "store: $cold_misses hit(s), 0 miss(es)" || {
    echo "warm run was not 100% store hits: $warm_plan" >&2
    exit 1
}
echo "$warm_plan" | grep -q "(0.0s simulated)" || {
    echo "warm run still simulated: $warm_plan" >&2
    exit 1
}
diff <(grep -v '^plan:' "$store_dir/cold.out") \
     <(grep -v '^plan:' "$store_dir/warm.out") || {
    echo "warm-cache stats differ from the cold run" >&2
    exit 1
}
# Corruption leg: flip the log's last byte, which lies inside the last
# frame's payload. The store must never serve that record: a third run
# serves every other record, re-simulates that one alone, and prints
# the cold run's output.
python3 -c 'import sys; p = sys.argv[1]; b = bytearray(open(p, "rb").read()); b[-1] ^= 0xFF; open(p, "wb").write(b)' \
    "$store_dir/store/store.log"
"$repro_bin" fig8 chaos-smoke context-switch --quick --jobs 4 --store "$store_dir/store" \
    > "$store_dir/damaged.out" 2> "$store_dir/damaged.log"
damaged_plan="$(grep '^plan:' "$store_dir/damaged.out")"
echo "$damaged_plan" | grep -q "store: $((cold_misses - 1)) hit(s), 1 miss(es)" || {
    echo "a damaged last record was not the one miss: $damaged_plan" >&2
    exit 1
}
diff <(grep -v '^plan:' "$store_dir/cold.out") \
     <(grep -v '^plan:' "$store_dir/damaged.out") || {
    echo "stats after a damaged record differ from the cold run" >&2
    exit 1
}
rm -rf "$store_dir"

echo "CI OK"
