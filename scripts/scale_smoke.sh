#!/usr/bin/env bash
# CI scale-smoke gate: run the design-size sweep at smoke sizes (~350 and
# ~1k elaborated ops) and enforce a generous wall-clock guard on the ~1k
# point.  The guard is deliberately loose (CI machines are slow and
# shared) — it exists to catch superlinear regressions that push the 1k
# point from under a second into the tens of seconds, not to benchmark.
# The smoke run writes _build/smoke/BENCH_scale.json, not the tracked file.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_WALL_1K="${MAX_WALL_1K:-15.0}"

dune exec bench/main.exe -- scale --smoke

python3 - "$MAX_WALL_1K" <<'EOF' 2>/dev/null || awk_fallback=1
import json, sys
limit = float(sys.argv[1])
with open("_build/smoke/BENCH_scale.json") as f:
    data = json.load(f)
points = data["points"]
assert len(points) >= 2, f"expected >= 2 smoke points, got {len(points)}"
big = max(points, key=lambda p: p["ops"])
assert big["ops"] >= 900, f"largest smoke point only {big['ops']} ops"
assert big["wall_s"] <= limit, (
    f"~1k-op point took {big['wall_s']:.2f}s > {limit}s wall guard")
print(f"scale smoke OK: {big['ops']} ops in {big['wall_s']:.2f}s "
      f"(guard {limit}s)")
EOF

if [ "${awk_fallback:-0}" = "1" ]; then
  # no python3: pull the largest point's wall_s with sed/awk
  wall=$(sed 's/},{/}\n{/g' _build/smoke/BENCH_scale.json | grep -o '"ops":[0-9]*,"wall_s":[0-9.]*' |
    sort -t: -k2 -n | tail -1 | grep -o 'wall_s":[0-9.]*' | cut -d: -f2)
  awk -v w="$wall" -v m="$MAX_WALL_1K" 'BEGIN {
    if (w == "" || w + 0 > m + 0) { print "scale smoke FAILED: wall " w "s > " m "s"; exit 1 }
    print "scale smoke OK: ~1k point in " w "s (guard " m "s)" }'
fi
