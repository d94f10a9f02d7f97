#!/usr/bin/env bash
# Regenerates tests/golden/cycles.json from the current build. Run this
# only after an *intentional* timing-model change, and say why in the
# commit message — every other drift is a bug the goldens exist to catch.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default >/dev/null
cmake --build build --target golden_cycles_test -j"$(nproc)" >/dev/null

FPGADP_UPDATE_GOLDENS=1 ./build/tests/golden_cycles_test \
  --gtest_filter='GoldenCycles.MatchesBaseline'

# The refreshed baselines must read back and hold under the Step() loop too
# before they are worth committing: a golden that only the event-driven
# Run() reproduces would lock in a scheduler bug, not a timing model.
./build/tests/golden_cycles_test

echo "updated tests/golden/cycles.json (verified under Run() and Step()):"
cat tests/golden/cycles.json
