#!/usr/bin/env bash
# Single CI entry point: tier-1 verify (configure + build + ctest) followed
# by a ~30-second smoke sweep exercising the parallel runner end to end.
# Set P2P_CHECK_SKIP_TIER1=1 to skip the tier-1 preamble when the caller
# (e.g. the CI workflow) has already configured, built, and run ctest.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${P2P_CHECK_SKIP_TIER1:-0}" != "1" ]]; then
  echo "== tier-1: configure + build + ctest =="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest --output-on-failure -j"$(nproc)")
else
  echo "== tier-1 skipped (P2P_CHECK_SKIP_TIER1=1); using the existing build =="
fi

echo
echo "== lint: detlint (determinism/hot-path rules) + clang-tidy =="
# The same gate CI's lint job runs: the project linter is always available
# (python3), clang-tidy participates when installed and self-skips when not,
# so "clean" means the same thing locally and in CI.
python3 scripts/detlint.py
./scripts/run_clang_tidy.sh build

echo
echo "== smoke sweep: 2x2 grid, 2 replicates, 2 threads =="
./build/sweep_demo \
  --peers=150 --rounds=600 \
  --thresholds=140,156 --quotas=256,384 \
  --replicates=2 --threads=2 --format=aggregate

echo
echo "== metrics smoke: registry listing + a non-default metrics= sweep =="
# The metrics subcommand must list the registry (repair_bandwidth is the
# canary probe), and a --metrics selection must drive a sweep end to end.
./build/scenario_tool metrics --names | grep -q '^repair_bandwidth$'
./build/scenario_tool metrics > /dev/null
./build/sweep_demo \
  --scenario=tests/golden/sweep_small_world.scenario \
  --thresholds=20,26 --replicates=2 --threads=2 --format=csv \
  --metrics=repairs,losses,repair_bandwidth,time_to_repair_mean,time_to_repair_p99 \
  | head -1 | grep -q 'repair_bandwidth,time_to_repair_mean'

# Every table listing the smoke loops below iterate, read up front. A bare
# `for x in $(./build/scenario_tool list)` runs zero iterations - and passes -
# when the listing is empty or the tool fails (set -e ignores a failing
# command substitution in a for list), so each listing must exit 0 and name
# at least one entry.
read_listing() {
  local -n entries="$1"
  shift
  local listing
  listing="$("$@")" || { echo "check.sh: '$*' failed" >&2; exit 1; }
  if [[ -z "${listing}" ]]; then
    echo "check.sh: '$*' listed nothing" >&2
    exit 1
  fi
  mapfile -t entries <<< "${listing}"
}
read_listing scenarios ./build/scenario_tool list
read_listing policies ./build/scenario_tool policies --names
read_listing selections ./build/scenario_tool selections --names
read_listing estimators ./build/scenario_tool estimators --names

echo
echo "== scenario smoke: every registered scenario, invariant-checked =="
# 200 rounds at 500 peers per scenario; --check makes the run fail on any
# Validate() error or violated simulation invariant. --brief prints a
# one-line summary (peers, rounds, wall ms, headline metrics) so CI logs
# show what each smoke run actually did instead of discarding the output.
for scenario in "${scenarios[@]}"; do
  echo "-- scenario: ${scenario}"
  ./build/scenario_tool run "${scenario}" --peers=500 --rounds=200 --check \
    --brief
done

echo
echo "== transfer smoke: every registered scenario on the 2009 DSL link, invariant-checked =="
# The same scenario loop with the bandwidth-constrained transfer scheduler
# enabled: repairs queue and stretch over rounds instead of completing
# instantly, so this exercises the enqueue / fair-share tick / completion /
# cancel-on-departure paths (and their invariants) in every world.
for scenario in "${scenarios[@]}"; do
  echo "-- scenario: ${scenario} (transfer=dsl-2009)"
  ./build/scenario_tool run "${scenario}" --peers=500 --rounds=200 --check \
    --transfer=dsl-2009 --brief
done

smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT

# The same link named by the scenario-text key instead of the flag: the key
# alone turns the scheduler on, and the canonical form carries only the
# link. At 2000 rounds the transfer run differs from the instant one, so
# matching the flag run's summary shows the key took effect.
echo "-- scenario: paper (transfer.link = dsl-2009 in the file)"
transfer_file="${smoke_dir}/paper-dsl.scenario"
./build/scenario_tool show paper > "${transfer_file}"
echo "transfer.link = dsl-2009" >> "${transfer_file}"
./build/scenario_tool show "${transfer_file}" > "${smoke_dir}/canonical"
grep -q '^transfer\.link = dsl-2009$' "${smoke_dir}/canonical"
if grep -q '^transfer\.enabled' "${smoke_dir}/canonical"; then
  echo "error: canonical scenario text still renders transfer.enabled" >&2
  exit 1
fi
strip_wall() { sed 's/ wall_ms=[0-9]*//'; }
from_file="$(./build/scenario_tool run "${transfer_file}" --peers=500 \
  --rounds=2000 --check --brief | strip_wall)"
from_flag="$(./build/scenario_tool run paper --peers=500 --rounds=2000 \
  --transfer=dsl-2009 --brief | strip_wall)"
echo "${from_file}"
if [[ "${from_file}" != "${from_flag}" ]]; then
  echo "error: transfer.link in the file ran differently from --transfer:" >&2
  echo "  flag: ${from_flag}" >&2
  exit 1
fi

echo
echo "== instant smoke: every registered scenario in instant visibility, invariant-checked =="
# The loops above all run the scenarios' own (timeout) visibility. Instant
# visibility drives the per-owner visible counts on every session toggle
# and replaces unreachable partners on repair, under the same bound of n
# partners per owner. Render each scenario, switch it to instant mode, and
# run it past the day-30..100 workload events.
for scenario in "${scenarios[@]}"; do
  echo "-- scenario: ${scenario} (visibility=instant)"
  instant_file="${smoke_dir}/${scenario}.scenario"
  ./build/scenario_tool show "${scenario}" \
    | sed 's/^options\.visibility = .*/options.visibility = instant/' \
    > "${instant_file}"
  grep -q '^options\.visibility = instant$' "${instant_file}"
  ./build/scenario_tool run "${instant_file}" --peers=500 --rounds=3000 \
    --check --brief
done

echo
echo "== strategy smoke: every registered policy, selection, and estimator, invariant-checked =="
# A registered strategy that cannot complete a short run (bad defaults, a
# FlagLevel that masks its own trigger, a crash in Choose or StabilityScore)
# fails CI here.
for policy in "${policies[@]}"; do
  echo "-- policy: ${policy}"
  ./build/scenario_tool run paper --peers=500 --rounds=200 --check \
    --policy="${policy}" --brief
done
for selection in "${selections[@]}"; do
  echo "-- selection: ${selection}"
  ./build/scenario_tool run paper --peers=500 --rounds=200 --check \
    --selection="${selection}" --brief
done
for estimator in "${estimators[@]}"; do
  echo "-- estimator: ${estimator}"
  ./build/scenario_tool run paper --peers=500 --rounds=200 --check \
    --estimator="${estimator}" --brief
done

echo
echo "== workload smoke: population events actually fire, invariant-checked =="
# The registry's workload events start at day 30-100 (rounds 720-2400), so
# the 200-round loop above never executes a join wave or exit. Run the three
# event scenarios long enough that every event fires at least once.
for scenario in flash-crowd mass-exit growing; do
  echo "-- scenario: ${scenario} (3000 rounds)"
  ./build/scenario_tool run "${scenario}" --peers=500 --rounds=3000 --check \
    --brief
done

echo
echo "== memory smoke: a heavy-tailed world stays small =="
# Pareto lifetimes draw departures millions of rounds past the end of the
# run. The network schedules no event the run cannot reach, so every
# calendar ring stays within the run length: this world peaks near 16 MiB,
# where it took 438 MiB while far-future departures sat in the rings.
python3 - <<'PY'
import resource
import subprocess
import sys

LIMIT_MIB = 64
subprocess.run(["./build/scenario_tool", "run", "pareto", "--peers=1500",
                "--rounds=4800", "--seed=42", "--brief"], check=True)
# ru_maxrss is in KiB on Linux: the peak of the largest waited-for child.
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print("peak resident: %.1f MiB (limit %d MiB)" % (peak_mib, LIMIT_MIB))
if peak_mib > LIMIT_MIB:
    sys.exit("check.sh: pareto 1500 x 4800 peaked at %.1f MiB, over %d MiB"
             % (peak_mib, LIMIT_MIB))
PY

echo
echo "== trace smoke: --trace produces a loadable Chrome trace =="
# A traced run must still succeed, write a non-empty trace_event document,
# and leave the simulation output intact (tracing may never perturb results).
./build/scenario_tool run paper --peers=500 --rounds=200 --check --brief \
  --trace=build/check_trace.json 2> /dev/null
head -c 64 build/check_trace.json | grep -q '"traceEvents"'
rm -f build/check_trace.json

echo
echo "check.sh: OK"
