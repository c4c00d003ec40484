#!/usr/bin/env bash
# Tier-1+ gate: builds the Release and ASan+UBSan presets and runs the full
# test suite under both, then builds the TSan preset and runs the
# `concurrency`-labeled subset (thread pool, governor, eval engine,
# parallel determinism) under ThreadSanitizer. Any test failure or
# sanitizer report fails the script (sanitizers are built with
# -fno-sanitize-recover, so a report aborts the offending test). Run from
# the repository root:
#
#   scripts/check.sh              # all presets + perf smoke
#   scripts/check.sh default      # just the Release preset (a clean
#                                 # build that fails on any compiler
#                                 # warning)
#   scripts/check.sh asan-ubsan   # just the sanitizer preset
#   scripts/check.sh tsan         # just the TSan concurrency subset
#   scripts/check.sh perf-smoke   # just the perf regression gates
#   scripts/check.sh fleet-smoke  # small fleet end to end (generator +
#                                 # cross-document scheduler)
#   scripts/check.sh snapshot-smoke # snapshot cold start: save/load round
#                                 # trip, >= 5x load-vs-build, bit-identity
#   scripts/check.sh incremental-smoke # incremental re-verification:
#                                 # ReCheck >= 10x cold, bit-identity
#   scripts/check.sh chaos-matrix # exhaustive fault-point sweep (ASan+UBSan)
#   scripts/check.sh dead-code    # every src/ function reaches a non-test
#                                 # binary, or is on the allowlist below
#
# The chaos-matrix step first checks that the compile-time fault-point
# manifest (src/util/fault_points.h) matches the AGG_FAULT_POINT sites
# actually present in the source tree (drift in either direction fails),
# then builds the ASan+UBSan preset and runs the chaos suites with
# AGG_CHAOS_MATRIX=full, which arms every manifest point against every
# embedded article instead of the bounded sample the default gate runs.
#
# The fleet-smoke step builds the Release preset's `bench_fleet_throughput`
# binary and runs it with --smoke: a ~50-article fleet is generated and
# drained through the cross-document scheduler, and the run fails unless
# throughput is nonzero, every verdict matches the generator's
# by-construction ground truth (zero erroneous verdicts), and the scheduled
# run is bit-identical to the one-at-a-time reference.
#
# The snapshot-smoke step builds the Release preset's
# `bench_snapshot_coldstart` binary and runs it with --smoke: every case is
# published to CSV, snapshotted, and cold-started both ways; the run fails
# unless loading the mmap snapshot is at least 5x faster than rebuilding
# from CSV, the two paths report bit-identically on every case, and a
# corrupted snapshot fails cleanly instead of loading.
#
# The incremental-smoke step builds the Release preset's
# `bench_incremental_recheck` binary and runs it with --smoke: one table of
# one corpus case ingests new rows, the whole corpus is re-verified through
# AggChecker::ReCheck, and the run fails unless the incremental pass is at
# least 10x faster than re-checking every case cold or any spliced report
# diverges from its from-scratch reference.
#
# The perf-smoke step builds the Release preset's `perf_smoke` binary and
# fails if (a) vectorized cube execution is not faster than the scalar
# oracle, or the two backends disagree on a COUNT DISTINCT cube over a
# near-unique column (its times are printed, not gated), (b) merged+cached
# engine evaluation over a PK-FK join workload is not at least 5x the
# naive cache-off path (the shared relation cache must pay for itself),
# (c) on machines with >= 2 hardware threads, 2-thread
# merged evaluation is slower than 1-thread, or (d) a multi-iteration EM
# run fails to reuse cube plans: plan_cache_hits must be > 0, a repeated
# Check must build zero new plans, and the run must produce the same
# verdicts as a scalar-cube-oracle reference run. Every gate also
# requires bit-identical results between the compared configurations.
#
# The dead-code step is a link audit. It builds src/ and every executable
# under bench/ and examples/ from the root project into build-dead-code/, and
# `aggbench` from the bench/e2e project (configured as it is, into
# build-dead-code-e2e/), all at -O0 with -ffunction-sections
# -fdata-sections and linked with -Wl,--gc-sections, so a function's code
# survives the link only if something the binary runs can call it. It then
# lists the strong text symbols (`nm` type T) of the src/ object files and
# fails, printing demangled names, on every one that no binary defines
# unless it is on the commented allowlist (`dead_code_allow`). The build is
# -O0 because at -O2 a function called only inside its own file may be
# inlined everywhere and lose its out-of-line copy, which would read as
# unreached. Header-inline members are not audited: they are weak symbols
# (type W) and are emitted only where used.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
presets=("${@:-default}")
if [[ $# -eq 0 ]]; then
  presets=(default asan-ubsan tsan perf-smoke fleet-smoke snapshot-smoke
           incremental-smoke dead-code)
fi

# Out-of-line src/ functions that no non-test binary reaches but that stay,
# by qualified name without parameters or ABI tags.
dead_code_allow=(
  # Fault-injection hooks: tests arm faults by design, binaries never do.
  'aggchecker::fault_injection::Arm'
  'aggchecker::fault_injection::Disarm'
  'aggchecker::fault_injection::DisarmAll'
  'aggchecker::fault_injection::HitCount'
  'aggchecker::fault_injection::RegisteredPoints'
  # The paper's optional data dictionary; only tests set
  # CatalogOptions::dictionary.
  'aggchecker::fragments::DataDictionary::Parse'
  'aggchecker::fragments::DataDictionary::Add'
  # The only observer of entry withdrawal, asserted by chaos_test and
  # relation_cache_diff_test.
  'aggchecker::db::RelationCache::size'
  # The multi-table fixture two test files build; moving it would copy the
  # ground-truth helpers of embedded_articles.cc into tests/.
  'aggchecker::corpus::MakeDonationsJoinCase'
)

for preset in "${presets[@]}"; do
  if [[ "$preset" == "dead-code" ]]; then
    flags="-O0 -ffunction-sections -fdata-sections"
    configure=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug
               "-DCMAKE_CXX_FLAGS_DEBUG=$flags"
               -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
    echo "==> [dead-code] build src/, bench/ and examples/ (-O0)"
    cmake -S . -B build-dead-code "${configure[@]}" >/dev/null
    # src/ itself too, so a library no binary links is audited, not skipped.
    make -C build-dead-code/src -j "$jobs" >/dev/null
    make -C build-dead-code/bench -j "$jobs" >/dev/null
    make -C build-dead-code/examples -j "$jobs" >/dev/null
    echo "==> [dead-code] build aggbench (-O0)"
    cmake -S bench/e2e -B build-dead-code-e2e "${configure[@]}" >/dev/null
    cmake --build build-dead-code-e2e --target aggbench -j "$jobs" >/dev/null
    echo "==> [dead-code] audit"
    mapfile -t bins < <(find build-dead-code/bench build-dead-code/examples \
                          -maxdepth 1 -type f -perm -u+x | sort)
    bins+=(build-dead-code-e2e/aggbench)
    defined="$(find build-dead-code/src -name '*.o' -exec \
                 nm --defined-only {} + | awk '$2 == "T" {print $3}' \
                 | sort -u)"
    reached="$(nm --defined-only "${bins[@]}" | awk 'NF == 3 {print $3}' \
               | sort -u)"
    unreached="$(comm -23 <(printf '%s\n' "$defined") \
                          <(printf '%s\n' "$reached"))"
    failed=0
    while IFS= read -r sym; do
      [[ -z "$sym" ]] && continue
      name="$(c++filt --no-params <<<"$sym" | sed 's/\[abi:[^]]*\]//g')"
      allowed=0
      for entry in "${dead_code_allow[@]}"; do
        [[ "$name" == "$entry" ]] && allowed=1
      done
      if [[ $allowed -eq 0 ]]; then
        echo "error: reaches no bench, example or aggbench binary:" \
             "$(c++filt <<<"$sym")" >&2
        failed=1
      fi
    done <<<"$unreached"
    echo "    $(wc -l <<<"$defined") src/ functions, ${#bins[@]} binaries," \
         "$(grep -c . <<<"$unreached" || true) unreached" \
         "(${#dead_code_allow[@]} allowlisted names)"
    [[ $failed -eq 0 ]] || exit 1
    continue
  fi
  if [[ "$preset" == "chaos-matrix" ]]; then
    echo "==> [chaos-matrix] manifest/source sync"
    manifest="$(sed -n 's/^ *X("\([^"]*\)").*/\1/p' src/util/fault_points.h \
                | sort)"
    sites="$(grep -rhoE 'AGG_FAULT_POINT(_STATUS)?\("[^"]+"' src \
             --include='*.cc' | sed 's/.*("\([^"]*\)"/\1/' | sort -u)"
    if [[ "$manifest" != "$sites" ]]; then
      echo "error: fault-point manifest out of sync with source tree" >&2
      diff <(printf '%s\n' "$manifest") <(printf '%s\n' "$sites") >&2 || true
      exit 1
    fi
    echo "==> [chaos-matrix] build (asan-ubsan)"
    cmake --preset asan-ubsan
    cmake --build --preset asan-ubsan -j "$jobs"
    echo "==> [chaos-matrix] full sweep"
    AGG_CHAOS_MATRIX=full ctest --preset asan-ubsan -j "$jobs" \
      -R '(Chaos|Recovery)'
    continue
  fi
  if [[ "$preset" == "perf-smoke" ]]; then
    echo "==> [perf-smoke] build"
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$jobs" --target perf_smoke
    echo "==> [perf-smoke] run"
    ./build/bench/perf_smoke
    continue
  fi
  if [[ "$preset" == "fleet-smoke" ]]; then
    echo "==> [fleet-smoke] build"
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$jobs" --target bench_fleet_throughput
    echo "==> [fleet-smoke] run"
    (cd build/bench && ./bench_fleet_throughput --smoke)
    continue
  fi
  if [[ "$preset" == "incremental-smoke" ]]; then
    echo "==> [incremental-smoke] build"
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$jobs" \
      --target bench_incremental_recheck
    echo "==> [incremental-smoke] run"
    (cd build/bench && ./bench_incremental_recheck --smoke)
    continue
  fi
  if [[ "$preset" == "snapshot-smoke" ]]; then
    echo "==> [snapshot-smoke] build"
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$jobs" \
      --target bench_snapshot_coldstart
    echo "==> [snapshot-smoke] run"
    (cd build/bench && ./bench_snapshot_coldstart --smoke)
    continue
  fi
  echo "==> [$preset] configure"
  cmake --preset "$preset"
  echo "==> [$preset] build"
  if [[ "$preset" == "default" ]]; then
    # Clean, so that every file compiles and prints its warnings; the
    # Release build must print none.
    log=build/check-build.log
    cmake --build --preset "$preset" -j "$jobs" --clean-first 2>&1 \
      | tee "$log"
    if grep -q 'warning:' "$log"; then
      echo "error: the Release build printed compiler warnings:" >&2
      grep 'warning:' "$log" >&2
      exit 1
    fi
  else
    cmake --build --preset "$preset" -j "$jobs"
  fi
  echo "==> [$preset] test"
  ctest --preset "$preset" -j "$jobs"
done

echo "==> all presets green"
