#!/usr/bin/env bash
# Run the repro test suite from ANY working directory.
#
# The seed shipped with `PYTHONPATH=src` — a relative path that stops
# resolving the moment a test (or a user) runs from a different cwd.
# This script pins PYTHONPATH to the repo's absolute src/ directory and
# passes pytest absolute paths, so it behaves identically from the repo
# root, from /tmp, or from CI's checkout directory.
#
# Usage:
#   scripts/check.sh                 # full tier-1 suite
#   scripts/check.sh --bench         # tier-1 suite + benchmarks/ suite
#   scripts/check.sh --gate          # suite, then record + regression gate
#   scripts/check.sh --smoke         # boot `repro serve` on an ephemeral
#                                    # port over a temp corpus store, hit
#                                    # /health, /corpus/stats (twice) and
#                                    # /metrics, shut down clean
#   scripts/check.sh tests/test_x.py # any pytest selection (repo-relative
#                                    # or absolute paths both work)
#
# --bench appends the benchmarks/ suite (timing assertions and the
# telemetry no-op-overhead guard) to whatever selection runs; each
# benchmark module's timings are aggregated into output/BENCH_<name>.json
# (see benchmarks/conftest.py), usable as `repro runs compare --bench`
# baselines.
#
# --gate runs the selected suite, records a study run into the ledger at
# output/runs/ (`repro replicate --record`), then compares it against the
# previous ledger entries (`repro runs compare`) and exits with the
# watchdog's verdict: 0 = clean, 3 = result drift, 4 = confirmed perf
# regression.  The first recorded run has nothing to compare against and
# gates clean.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:${PYTHONPATH}}"

RUN_BENCH=0
RUN_GATE=0
RUN_SMOKE=0
while :; do
    case "${1:-}" in
        --bench) RUN_BENCH=1; shift ;;
        --gate)  RUN_GATE=1; shift ;;
        --smoke) RUN_SMOKE=1; shift ;;
        *) break ;;
    esac
done

if [ "${RUN_SMOKE}" -eq 1 ]; then
    # Serve smoke test: boot the HTTP service on an ephemeral port in-
    # process over a three-record corpus store, hit /health, read
    # /corpus/stats twice (cold, then from the store's aggregate cache),
    # check /metrics counted both reads in a mergeable latency sketch,
    # and shut down gracefully (which also closes the store). Exercises
    # the real socket path (worker pool, keep-alive, graceful close) end
    # to end.
    python - <<'SMOKE'
import json
import sys
import tempfile
import urllib.request
from pathlib import Path

from repro.corpus.publication import Publication
from repro.corpus.store import CorpusStore
from repro.serve import ServerHandle, build_context
from repro.stats.sketch import QuantileSketch


def get(url):
    with urllib.request.urlopen(url, timeout=10) as r:
        return r.read()


with tempfile.TemporaryDirectory() as tmp:
    store_path = Path(tmp) / "corpus.sqlite3"
    with CorpusStore(store_path) as store:
        store.extend([
            Publication(key="k1", title="Workflow engines", year=2019),
            Publication(key="k2", title="Scientific pipelines", year=2021),
            Publication(key="k3", title="Workflow provenance"),
        ])
        expected = store.stats()
    expected["year_range"] = list(expected["year_range"])
    ctx = build_context(store_path=store_path, job_workers=1, queue_size=2)
    with ServerHandle(ctx, workers=4) as handle:
        payload = json.loads(get(handle.url + "/health"))
        cold = get(handle.url + "/corpus/stats")
        warm = get(handle.url + "/corpus/stats")
        metrics = json.loads(get(handle.url + "/metrics"))
assert payload["status"] == "ok", payload
assert cold == warm, (cold, warm)
assert json.loads(cold) == expected, (cold, expected)
latency = metrics["serve.request_seconds.corpus_stats"]
assert latency["count"] == 2, latency
assert QuantileSketch.from_dict(latency["sketch"]).count == 2, latency
print(f"serve smoke: /health ok on {handle.url}, /corpus/stats "
      f"{expected['records']} records twice, graceful shutdown clean")
sys.exit(0)
SMOKE
    exit 0
fi

if [ "$#" -eq 0 ]; then
    set -- "${REPO_ROOT}/tests"
else
    # Resolve repo-relative selections (tests/test_x.py[::node]) so they
    # work regardless of the caller's cwd.
    args=()
    for arg in "$@"; do
        file="${arg%%::*}"
        if [ "${arg#-}" = "${arg}" ] && [ ! -e "${file}" ] \
            && [ -e "${REPO_ROOT}/${file}" ]; then
            arg="${REPO_ROOT}/${arg}"
        fi
        args+=("${arg}")
    done
    set -- "${args[@]}"
fi

if [ "${RUN_BENCH}" -eq 1 ]; then
    set -- "$@" "${REPO_ROOT}/benchmarks"
fi

if [ "${RUN_GATE}" -eq 0 ]; then
    exec python -m pytest "$@" --rootdir="${REPO_ROOT}" -q
fi

python -m pytest "$@" --rootdir="${REPO_ROOT}" -q

RUNS_DIR="${REPRO_RUNS_DIR:-${REPO_ROOT}/output/runs}"
python -m repro replicate --record --runs-dir "${RUNS_DIR}" >/dev/null

# Exit with the watchdog verdict (0 clean, 3 drift, 4 perf regression).
# With a single recorded run there is nothing to compare; that exits 0.
set +e
python -m repro runs compare --runs-dir "${RUNS_DIR}"
verdict=$?
set -e
exit "${verdict}"
