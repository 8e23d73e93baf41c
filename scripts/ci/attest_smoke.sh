#!/usr/bin/env bash
# One parameterized attest smoke check, replacing the near-identical
# fault-matrix steps: run `repro attest`, assert the expected verdict
# line is printed, assert no traceback leaked into the output, and
# assert each named metric family reached the Prometheus export.
#
#   attest_smoke.sh --name NAME [--grep-metric PATTERN]...
#                   [--expect PATTERN]       (default: ATTESTED)
#                   [--device PART]          (default: SIM-SMALL)
#                   [--seed N]               (default: 7)
#                   [--attest-flags "..."]   (after the subcommand)
#
# Outputs land in /tmp/attest-NAME.out and /tmp/attest-NAME.prom so a
# matrix job can run several shapes without clobbering evidence.
set -euo pipefail

name=""
expect="ATTESTED"
device="SIM-SMALL"
grep_metrics=()
seed="7"
attest_flags=""

usage() {
    sed -n '2,14p' "$0" >&2
    exit 64
}

while [[ $# -gt 0 ]]; do
    case "$1" in
        --name) name="$2"; shift 2 ;;
        --expect) expect="$2"; shift 2 ;;
        --device) device="$2"; shift 2 ;;
        --grep-metric) grep_metrics+=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --attest-flags) attest_flags="$2"; shift 2 ;;
        *) echo "attest_smoke.sh: unknown argument: $1" >&2; usage ;;
    esac
done

[[ -n "$name" ]] || { echo "attest_smoke.sh: --name is required" >&2; usage; }

out="/tmp/attest-${name}.out"
prom="/tmp/attest-${name}.prom"

# shellcheck disable=SC2086  # the flag string is intentionally word-split
python -m repro attest --device "$device" --seed "$seed" $attest_flags \
    --metrics-out "$prom" | tee "$out"

grep -q "$expect" "$out"
! grep -q 'Traceback' "$out"
for metric in ${grep_metrics[@]+"${grep_metrics[@]}"}; do
    grep -q "$metric" "$prom"
done
metrics="${grep_metrics[*]+${grep_metrics[*]}}"
echo "attest_smoke[${name}]: OK (expect=${expect} metrics=${metrics:-none})"
