"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and nothing else, so one seed
always yields the same inputs.  A seed changes *which* words, edges and
samples appear, never *how much* work there is: record counts, duplicate
counts, query mix, DAG sizes and task counts are fixed.  That keeps the
spread between runs with different seeds down to the program's own
run-to-run noise.

The module imports only the standard library; nothing here touches the
program under test.
"""

from __future__ import annotations

import random

# -- corpus -------------------------------------------------------------------

#: Records in the corpus workload, of which DUP_FRACTION are planted
#: near-duplicates of earlier records.
CORPUS_RECORDS = 10_000
SERVE_RECORDS = 5_000
DUP_FRACTION = 0.02
#: Share of the corpus bulk-ingested before the mixed read/write stream.
BULK_FRACTION = 0.8
#: Passes of the timed work in one run; a phase reports its mean over
#: the passes.
REPEATS = 3
#: Records per bulk ingest_bibtex call.
INGEST_CHUNK = 1_000
#: Queries in one pass of the mixed stream, and the cadence of the calls
#: between them.
QUERIES = 2_000
AGG_EVERY = 20          # one by_year/by_venue call per this many queries
INGEST_EVERY = 50       # one small ingest batch per this many queries

_VOCAB_SIZE = 20_000
_WORD_LEN = 7
_SURNAMES = (
    "Aldinucci", "Bianchi", "Colonnelli", "Danelutto", "Esposito",
    "Ferrari", "Greco", "Lombardi", "Marino", "Ricci", "Romano", "Torquati",
)
_VENUES = (
    "Future Generation Computer Systems", "IEEE TPDS", "JPDC",
    "Euro-Par", "CCGrid", "PDP", "Journal of Supercomputing",
)
#: Venue words used as the common operand of AND / NOT queries.
_VENUE_TERMS = ("systems", "tpds", "jpdc", "ccgrid", "pdp", "supercomputing")


def _study_tag(i: int) -> str:
    """Unique base-26 tag, low letters first, so each record's title has
    shingles no other record shares (as real titles do) and rare-shingle
    blocking stays selective."""
    return "".join(chr(97 + (i // 26**k) % 26) for k in range(6))


def _entry(key: str, title: str, author: str, year: int, venue: str) -> str:
    return (
        f"@article{{{key},\n"
        f"  title = {{{title}}},\n"
        f"  author = {{{author}}},\n"
        f"  year = {{{year}}},\n"
        f"  journal = {{{venue}}}\n"
        f"}}"
    )


class CorpusInputs:
    """A BibTeX corpus with planted near-duplicates, split into a bulk
    part and a streamed part, plus the query stream run against it.

    Attributes
    ----------
    entries:
        BibTeX entries in ingest order.  Every planted duplicate comes
        after its source record, so deduplication keeps the source key.
    original_keys:
        The keys deduplication must keep (and the only ones it keeps).
    titles:
        The original titles, whose words the queries are built from.
    """

    def __init__(self, n_records: int, seed: int) -> None:
        rng = random.Random(seed)
        vocab = [
            "".join(chr(97 + rng.randrange(26)) for _ in range(_WORD_LEN))
            for _ in range(_VOCAB_SIZE)
        ]
        n_dups = int(n_records * DUP_FRACTION)
        n_originals = n_records - n_dups
        placed: list[tuple[float, str]] = []
        originals: list[tuple[str, str, int, str]] = []
        self.titles: list[str] = []
        for i in range(n_originals):
            w = [vocab[rng.randrange(_VOCAB_SIZE)] for _ in range(5)]
            title = (
                f"{w[0]} {w[1]} {w[2]} for {w[3]} {w[4]}:"
                f" evidence from study {_study_tag(i)}"
            )
            author = f"{_SURNAMES[i % len(_SURNAMES)]}, {chr(65 + i % 26)}."
            year = 2005 + i % 19
            venue = _VENUES[i % len(_VENUES)]
            placed.append((float(i), _entry(f"syn-{i:06d}", title, author,
                                            year, venue)))
            originals.append((title, author, year, venue))
            self.titles.append(title)
        # The three mutations synthetic corpora use: case folding,
        # subtitle truncation, off-by-one year.
        for j in range(n_dups):
            src = rng.randrange(n_originals)
            title, author, year, venue = originals[src]
            kind = j % 3
            if kind == 0:
                title = title.upper()
            elif kind == 1:
                title = title.split(":")[0]
            else:
                year += 1
            position = rng.uniform(src + 0.5, n_originals)
            placed.append((position, _entry(
                f"dup-{j:05d}-of-syn-{src:06d}", title, author, year, venue
            )))
        placed.sort(key=lambda item: item[0])
        self.entries = [entry for _, entry in placed]
        self.original_keys = frozenset(f"syn-{i:06d}" for i in range(n_originals))
        self.n_duplicates = n_dups
        self._rng = rng

    def bibtex(self, start: int = 0, stop: int | None = None) -> str:
        return "\n\n".join(self.entries[start:stop])

    def queries(self, count: int) -> list[str]:
        """A fixed mix of boolean queries: terms, prefixes, phrases and
        AND / OR / NOT combinations, all built from words in the corpus."""
        rng = self._rng
        titles = self.titles

        def word() -> str:
            return rng.choice(titles).split()[rng.randrange(3)]

        def phrase() -> str:
            words = rng.choice(titles).split()
            start = rng.randrange(2)
            return f'"{words[start]} {words[start + 1]}"'

        makers = (
            lambda: word(),
            lambda: word()[:3] + "*",
            phrase,
            lambda: f"{word()} AND {rng.choice(_VENUE_TERMS)}",
            lambda: f"{word()} OR {word()} OR {word()[:4]}*",
            lambda: f"({word()} OR {word()}) AND NOT {rng.choice(_VENUE_TERMS)}",
            lambda: f"{phrase()} OR {word()}",
        )
        return [makers[i % len(makers)]() for i in range(count)]


# -- sweep --------------------------------------------------------------------

#: The plan phase: one large workflow on one large continuum.
PLAN_TASKS = 10_000
PLAN_EDGE_PROBABILITY = 0.0004
PLAN_CONTINUUM = {"n_hpc": 100, "n_cloud": 300, "n_edge": 600}
PLAN_JITTER = 0.1
PLAN_MTBF = 200.0

#: The adaptive Monte-Carlo grid: 6 workflows x 3 schedulers x 3 MTBFs x
#: 2 policies = 108 cells.
MC_FLEET = 6
MC_WORKFLOW_TASKS = 50
MC_GRID = {
    "schedulers": ("heft", "energy", "round_robin"),
    "mtbfs": (10.0, 40.0, None),
    "jitters": (0.1,),
    "policies": ("restart", "migrate"),
}
MC_TARGET_CI = 0.01
MC_CAP = 400
#: The fleet and continuum of the Monte-Carlo sweep and the replays are
#: fixed; the workload seed draws their random streams.  The slowest
#: replays, which set the p99, belong to a few workflows, so a fleet
#: drawn from the seed moved the p99 twice as much between seeds.
MC_FLEET_SEED = 2023
#: Replays in the replicate_once stream, spread over sampled cells.
REPLAYS = 5_000

#: Adaptive stat sweep: bootstrap shares plus permutation tests.
STAT_SHARES = 16
STAT_PERMUTATION_TESTS = 24
STAT_CATEGORIES = 8
STAT_SAMPLE = 200
STAT_TARGET_SE = 1e-3
STAT_MAX_DRAWS = 20_000


def stat_task_data(seed: int) -> dict:
    """Counts and samples for the stat sweep.

    Shares, group sizes and effect sizes are fixed; the seed only draws
    the noise.  Half of the permutation tests carry a strong effect (p
    near 0: they stop after one round), half a weak one (p near 0.3 for
    means, 0.8 for total variation: their standard error stays above the
    target until the cap), so the number of draws hardly moves with the
    seed.
    """
    rng = random.Random(seed)
    weights = [1.0 / (k + 1) for k in range(STAT_SHARES)]
    total = sum(weights)
    counts = [max(1, round(400 * w / total + rng.uniform(-1, 1)))
              for w in weights]
    tvd = []
    for i in range(STAT_PERMUTATION_TESTS // 2):
        a = [rng.randint(40, 60) for _ in range(STAT_CATEGORIES)]
        b = list(a)
        moved = 40 if i % 2 == 0 else 6
        for k in range(0, STAT_CATEGORIES, 2):
            b[k] += moved
            b[k + 1] = max(1, b[k + 1] - moved)
        tvd.append((a, b))
    means = []
    n = STAT_SAMPLE
    for i in range(STAT_PERMUTATION_TESTS // 2):
        a = [rng.gauss(0.0, 1.0) for _ in range(n)]
        b = [rng.gauss(0.0, 1.0) for _ in range(n)]
        # Shift b so the observed mean difference is exactly k standard
        # errors: k = 6 is a strong effect, k = 1 a weak one.
        k = 6.0 if i % 2 == 0 else 1.0
        shift = k * (2.0 / n) ** 0.5 - (sum(b) - sum(a)) / n
        means.append((a, [v + shift for v in b]))
    return {"counts": counts, "tvd": tvd, "means": means}


# -- serve --------------------------------------------------------------------

#: The /study endpoints the server answers and the request mix uses.
STUDY_ENDPOINTS = ("table1", "table2", "fig2", "fig3", "fig4", "report")
#: Keep-alive connections of the closed loop, one client thread each.
#: With two, a query waits behind the other connection's 45 ms
#: /corpus/stats call for store_lock or not as the two streams happen
#: to align, and the median latency spread 0.17 and 0.28 over two sets
#: of 10 seeds.
LOAD_CONNECTIONS = 1
#: Sweep jobs posted, one at a time, after the timed loop.
JOBS_AFTER_LOAD = 2
JOB_GRID = "scheduler=heft,energy,round_robin;mtbf=10,40;policy=restart,migrate"
JOB_FLEET = 4
JOB_TARGET_CI = 0.02
JOB_CAP = 200
#: The jobs' sweep seed is fixed, like the study seed the server uses:
#: it picks the job's workflow fleet, and fleets of other seeds differ
#: up to twofold in cost.
JOB_SEED = 2023


#: Requests per block of the serve mix; every block holds the exact mix.
MIX_BLOCK = 30


def request_paths(queries: list[str], count: int, seed: int) -> list[str]:
    """The serve request mix: 50 % ``/study/*``, 40 % ``/corpus/query``,
    10 % ``/corpus/by_year|by_venue|stats``, in a seeded order.

    The order is shuffled within blocks of ``MIX_BLOCK`` requests, so any
    stretch of the loop holds the mix: a 45 ms ``/corpus/stats`` call is
    one request in 30 but takes most of the loop's time, and with the
    whole list shuffled the throughput of a few seconds' loop moved by a
    quarter with the number of them that fell in it."""
    from urllib.parse import quote

    rng = random.Random(seed)
    aggregates = ("/corpus/by_year", "/corpus/by_venue", "/corpus/stats")
    paths = []
    for i in range(count):
        slot = i % 10
        if slot < 5:
            paths.append(f"/study/{STUDY_ENDPOINTS[rng.randrange(6)]}")
        elif slot < 9:
            q = queries[rng.randrange(len(queries))]
            paths.append(f"/corpus/query?q={quote(q)}&limit=20")
        else:
            paths.append(aggregates[(i // 10) % 3])
    for start in range(0, count, MIX_BLOCK):
        block = paths[start:start + MIX_BLOCK]
        rng.shuffle(block)
        paths[start:start + MIX_BLOCK] = block
    return paths
