#!/usr/bin/env bash
# End-to-end smoke test for the spill (external sort) path: runs the
# external-sort benchmark in --verify mode, which executes a 4-column
# ORDER BY under scratch budgets of 1/2, 1/4, and 1/8 of the in-memory
# plan's estimate and fails unless
#   * every over-budget run actually spilled,
#   * every spilled result is value-identical to the in-memory sort
#     (equal group bounds, same row set per group), and
#   * the spill directory is empty afterwards (zero leaked run files).
#
# It then checks that mcsort_server honours the spill knobs. A 64Ki-row
# demo table under a 1 MiB MCSORT_SCRATCH_BUDGET fits no in-memory plan
# (even 16-bit banks need about 18 B/row), so only spilling can answer
# mcsort_dml's GROUP BY digest:
#   * MCSORT_SPILL=0 must refuse it as resource_exhausted;
#   * an MCSORT_SPILL_DIR that cannot be created must fail it as an I/O
#     error naming that directory;
#   * a writable MCSORT_SPILL_DIR must answer it by spilling there and
#     leave the directory empty.
#
# The spill directory defaults to tmpfs (/dev/shm) when available so the
# smoke run measures the sort, not the disk; a dedicated-disk run is just
# MCSORT_SPILL_DIR=/path scripts/spill_smoke.sh.
#
# Usage: scripts/spill_smoke.sh [build-dir]   (default: build)
# Env:   MCSORT_N (default 1<<20), MCSORT_REPS (default 1), MCSORT_SPILL_DIR
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
bench_bin="${build_dir}/bench/external_sort"
server_bin="${build_dir}/tools/mcsort_server"
dml_bin="${build_dir}/tools/mcsort_dml"

for bin in "${bench_bin}" "${server_bin}" "${dml_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "missing binary: ${bin} (build the 'external_sort', 'mcsort_server' and 'mcsort_dml' targets first)" >&2
    exit 1
  fi
done

if [[ -z "${MCSORT_SPILL_DIR:-}" ]]; then
  if [[ -d /dev/shm && -w /dev/shm ]]; then
    MCSORT_SPILL_DIR="/dev/shm/mcsort-spill-smoke.$$"
  else
    MCSORT_SPILL_DIR="/tmp/mcsort-spill-smoke.$$"
  fi
fi
export MCSORT_SPILL_DIR
export MCSORT_N="${MCSORT_N:-1048576}"
export MCSORT_REPS="${MCSORT_REPS:-1}"

server_pid=""
server_log="$(mktemp)"
cleanup() {
  if [[ -n "${server_pid}" ]] && kill -0 "${server_pid}" 2> /dev/null; then
    kill -9 "${server_pid}" 2> /dev/null || true
  fi
  rm -f "${server_log}"
  rm -rf "${MCSORT_SPILL_DIR}"
}
trap cleanup EXIT

echo "=== spill smoke: n=${MCSORT_N}, dir=${MCSORT_SPILL_DIR} ==="
"${bench_bin}" --verify

# The bench already asserts per-sweep emptiness; double-check nothing at
# all survived the whole run (catches leaks from the prefetch ablation).
leftovers=$(find "${MCSORT_SPILL_DIR}" -type f 2> /dev/null | wc -l)
if [[ "${leftovers}" -ne 0 ]]; then
  echo "FAIL: ${leftovers} run files left in ${MCSORT_SPILL_DIR}" >&2
  exit 1
fi

# Starts mcsort_server on an ephemeral port with the served-spill table
# and budget plus the given VAR=value overrides; sets server_port.
start_server() {
  env MCSORT_PORT=0 MCSORT_N=65536 MCSORT_SCRATCH_BUDGET=1048576 "$@" \
    "${server_bin}" > "${server_log}" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    if grep -q "mcsort_server listening" "${server_log}"; then break; fi
    if ! kill -0 "${server_pid}" 2> /dev/null; then break; fi
    sleep 0.1
  done
  if ! grep -q "mcsort_server listening" "${server_log}"; then
    echo "FAIL: server never reported listening:" >&2
    cat "${server_log}" >&2
    exit 1
  fi
  server_port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "${server_log}" | head -1)"
}

stop_server() {
  kill -TERM "${server_pid}"
  wait "${server_pid}" || true
  server_pid=""
}

# Runs the digest query; prints mcsort_dml's output, returns its status.
digest() {
  MCSORT_PORT="${server_port}" "${dml_bin}" demo digest 2>&1
}

echo "=== served spill knobs: MCSORT_SPILL=0 ==="
start_server MCSORT_SPILL=0
if out="$(digest)"; then
  echo "FAIL: query answered with spilling disabled: ${out}" >&2
  exit 1
fi
stop_server
if [[ "${out}" != *resource_exhausted* ]]; then
  echo "FAIL: expected a resource_exhausted refusal, got: ${out}" >&2
  exit 1
fi
echo "${out}"

echo "=== served spill knobs: unwritable MCSORT_SPILL_DIR ==="
mkdir -p "${MCSORT_SPILL_DIR}"
blocker="${MCSORT_SPILL_DIR}/not-a-dir"
touch "${blocker}"
start_server MCSORT_SPILL_DIR="${blocker}/spill"
if out="$(digest)"; then
  echo "FAIL: query answered with an unwritable spill directory: ${out}" >&2
  exit 1
fi
stop_server
rm -f "${blocker}"
if [[ "${out}" != *unavailable*"${blocker}/spill"* ]]; then
  echo "FAIL: expected an I/O error naming ${blocker}/spill, got: ${out}" >&2
  exit 1
fi
echo "${out}"

echo "=== served spill knobs: MCSORT_SPILL_DIR=${MCSORT_SPILL_DIR}/served ==="
start_server MCSORT_SPILL_DIR="${MCSORT_SPILL_DIR}/served"
if ! out="$(digest)"; then
  echo "FAIL: spilled query failed: ${out}" >&2
  exit 1
fi
stop_server
echo "${out}"
if [[ ! -d "${MCSORT_SPILL_DIR}/served" ]]; then
  echo "FAIL: the server did not spill into MCSORT_SPILL_DIR" >&2
  exit 1
fi
if ! grep -qE "^exec.spill.runs [1-9]" "${server_log}"; then
  echo "FAIL: the served query did not spill:" >&2
  grep "exec\." "${server_log}" >&2
  exit 1
fi
leftovers=$(find "${MCSORT_SPILL_DIR}" -type f 2> /dev/null | wc -l)
if [[ "${leftovers}" -ne 0 ]]; then
  echo "FAIL: ${leftovers} run files left in ${MCSORT_SPILL_DIR}" >&2
  exit 1
fi

echo "=== spill smoke passed ==="
