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
#                                    # /metrics, send one /corpus/query
#                                    # nested past the parser's bound
#                                    # (must get a 400 JSON error) and
#                                    # one chunked POST (must get 501 +
#                                    # Connection: close),
#                                    # shut down clean; then ingest a
#                                    # three-entry .bib with `repro corpus
#                                    # ingest` and require `repro corpus
#                                    # dedup` to drop exactly 1 record;
#                                    # then run `repro figures` twice
#                                    # (cold, warm)
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
    # send one query nested deeper than the parser allows (a 400 JSON
    # error, not a 500), send one chunked POST (refused with a 501 on a
    # closed connection),
    # and shut down gracefully (which also closes the store). Exercises
    # the real socket path (worker pool, keep-alive, graceful close) end
    # to end.
    python - <<'SMOKE'
import json
import socket
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import quote

from repro.corpus.publication import Publication
from repro.corpus.query import MAX_QUERY_DEPTH
from repro.corpus.store import CorpusStore
from repro.serve import ServerHandle, build_context
from repro.stats.sketch import QuantileSketch


def get(url):
    with urllib.request.urlopen(url, timeout=10) as r:
        return r.read()


def get_error(url):
    """The status and JSON body of a request that must fail."""
    try:
        urllib.request.urlopen(url, timeout=10)
    except urllib.error.HTTPError as err:
        with err:
            return err.code, json.loads(err.read())
    raise AssertionError(f"{url} did not fail")


def send_chunked(handle):
    """One chunked POST over a raw socket; the reply up to close."""
    with socket.create_connection((handle.host, handle.port), timeout=10) as s:
        s.sendall(b"POST /sweeps HTTP/1.1\r\nHost: x\r\n"
                  b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n")
        reply = b""
        while chunk := s.recv(65536):
            reply += chunk
    return reply


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
        depth = MAX_QUERY_DEPTH + 1
        nested = get_error(handle.url + "/corpus/query?q="
                           + quote("(" * depth + "workflow" + ")" * depth))
        chunked = send_chunked(handle)
assert payload["status"] == "ok", payload
assert cold == warm, (cold, warm)
assert json.loads(cold) == expected, (cold, expected)
latency = metrics["serve.request_seconds.corpus_stats"]
assert latency["count"] == 2, latency
assert QuantileSketch.from_dict(latency["sketch"]).count == 2, latency
assert nested[0] == 400, nested
assert "nests deeper" in nested[1]["error"], nested
chunked_head = chunked.partition(b"\r\n\r\n")[0].split(b"\r\n")
assert chunked_head[0].split()[1] == b"501", chunked
assert b"Connection: close" in chunked_head, chunked
print(f"serve smoke: /health ok on {handle.url}, /corpus/stats "
      f"{expected['records']} records twice, nested /corpus/query refused "
      "400, chunked POST refused 501, "
      "graceful shutdown clean")
sys.exit(0)
SMOKE

    # Dedup smoke: ingest three entries into a temp store through the
    # CLI, then dedup it. Two entries carry one 249-character title with
    # two spellings of its last four words (Jaccard 0.900, containment
    # 0.949); the third is unrelated. Exactly one record must go.
    dedup_tmp="$(mktemp -d)"
    trap 'rm -rf "${dedup_tmp}"' EXIT
    stem="A systematic mapping study of Italian research on workflows for"
    stem="${stem} scientific computing across the cloud edge continuum with"
    stem="${stem} provenance tracing energy aware placement and reproducible"
    stem="${stem} execution of data intensive"
    cat > "${dedup_tmp}/smoke.bib" <<BIB
@article{variant-z,
  title = {${stem} workflowz kubernetz pipelinez schedulerz},
  year = {2021}
}
@article{variant-s,
  title = {${stem} workflows kubernetes pipelines schedulers},
  year = {2021}
}
@article{unrelated,
  title = {Energy-aware placement of virtual machines},
  year = {2019}
}
BIB
    python -m repro corpus ingest --store "${dedup_tmp}/store.sqlite3" \
        "${dedup_tmp}/smoke.bib" > /dev/null
    dedup_out="$(python -m repro corpus dedup \
        --store "${dedup_tmp}/store.sqlite3")"
    if ! grep -qF ", 1 record(s) dropped " <<< "${dedup_out}"; then
        echo "dedup smoke: expected 1 record(s) dropped, got: ${dedup_out}" >&2
        exit 1
    fi
    echo "dedup smoke: ${dedup_out}"
    rm -rf "${dedup_tmp}"
    trap - EXIT

    # Figures smoke: render the artifact set through the CLI twice into
    # one temp directory with a disk cache (cold, then warm). Every path
    # printed must exist, and both runs must name the same artifacts.
    fig_tmp="$(mktemp -d)"
    trap 'rm -rf "${fig_tmp}"' EXIT
    for run in cold warm; do
        python -m repro figures --output "${fig_tmp}" \
            --cache-dir "${fig_tmp}/cache" > "${fig_tmp}/${run}.txt"
        while IFS= read -r line; do
            if [ ! -e "${line#*: }" ]; then
                echo "figures smoke: ${run} run printed missing ${line}" >&2
                exit 1
            fi
        done < "${fig_tmp}/${run}.txt"
        cut -d: -f1 "${fig_tmp}/${run}.txt" > "${fig_tmp}/${run}.names"
    done
    if [ ! -s "${fig_tmp}/cold.names" ] \
        || ! cmp -s "${fig_tmp}/cold.names" "${fig_tmp}/warm.names"; then
        echo "figures smoke: cold and warm runs name different artifacts" >&2
        exit 1
    fi
    echo "figures smoke: $(wc -l < "${fig_tmp}/cold.names") artifacts" \
        "rendered cold and warm, every printed path exists"
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
