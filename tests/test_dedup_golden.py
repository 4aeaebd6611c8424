"""Golden digests of both deduplication entry points.

Pins, as literal values, what :meth:`CorpusStore.deduplicate` and
:meth:`Corpus.deduplicate` do to one seeded corpus: a digest of every
surviving record (all fields, in order), the cluster and drop counts,
the store's ``pairs_scored`` and a digest of the in-memory cluster
membership.  The corpus is ~3k records with a wide title vocabulary and
planted duplicates, plus the edge cases blocking must survive:
non-ASCII titles, year-less records, titles of four characters or
fewer, and titles that normalize to nothing.  A change to blocking,
rare-key order, scoring, the year gate or the merge policy moves at
least one of these values.
"""

from __future__ import annotations

import random

from repro.corpus.corpus import Corpus
from repro.corpus.dedup import find_duplicates
from repro.corpus.publication import Publication
from repro.corpus.store import CorpusStore
from repro.pipeline.cache import stable_digest

#: (surviving-records digest, clusters, dropped, pairs_scored)
STORE_GOLDEN = (
    "71639b481fddb5186702a2d3afdea6a9c6b751c23ddf7eeb1c3097478719ff65",
    196,
    232,
    7915,
)
#: (surviving-records digest, cluster-membership digest, clusters, dropped)
CORPUS_GOLDEN = (
    "71639b481fddb5186702a2d3afdea6a9c6b751c23ddf7eeb1c3097478719ff65",
    "81ab308d4b9a3813680f42e7df1bbe203c4be7666e71c254e9730a30a96709cc",
    196,
    232,
)

N_ORIGINALS = 2_700
N_DUPLICATES = 300
SEED = 16

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
#: Titles whose non-ASCII letters normalization folds or drops.
_ACCENTED = (
    "Études des flux de travail à grande échelle",
    "Über die Orchestrierung verteilter Workflows",
    "Análisis de flujos científicos en la nube",
    "Ottimizzazione dei workflow: un'analisi più ampia",
    "Ἐργαλεῖα ροῆς ἐργασιῶν",
    "ワークフロー管理システム",
    "Kelvin-scale ﬁle staging for ΣCI workflows",
    "İstanbul workflow symposium — proceedings",
)
#: Titles of four characters or fewer after normalization, and titles
#: that normalize to the empty string (no shingles at all).
_SHORT = ("HPC", "Flow", "AI", "DAGs", "e", "I/O", "—", "!!!", "日本")


def golden_records() -> list[Publication]:
    rng = random.Random(SEED)
    vocab = [
        "".join(rng.choice(_LETTERS) for _ in range(rng.randint(3, 10)))
        for _ in range(8_000)
    ]
    originals: list[Publication] = []
    for i in range(N_ORIGINALS):
        if i % 97 == 5:
            title = rng.choice(_SHORT)
        elif i % 53 == 7:
            title = f"{rng.choice(_ACCENTED)} {rng.choice(vocab)}"
        else:
            words = [rng.choice(vocab) for _ in range(rng.randint(3, 9))]
            title = " ".join(words)
            if rng.random() < 0.3:
                title += ": " + " ".join(rng.choice(vocab) for _ in range(3))
        originals.append(Publication(
            key=f"rec-{i:05d}",
            title=title,
            authors=(f"Author{i % 41}, {_LETTERS[i % 26].upper()}.",),
            year=None if i % 11 == 0 else 1995 + i % 29,
            venue="" if i % 5 == 0 else f"Venue {i % 13}",
            abstract="" if i % 3 else f"abstract of {i}",
            doi="" if i % 4 else f"10.1000/{i}",
            keywords=tuple(rng.sample(vocab[:50], i % 3)),
            kind=("article", "inproceedings")[i % 2],
        ))

    records: list[tuple[float, Publication]] = [
        (float(i), pub) for i, pub in enumerate(originals)
    ]
    for j in range(N_DUPLICATES):
        src = rng.randrange(N_ORIGINALS)
        base = originals[src]
        title, year = base.title, base.year
        kind = j % 7
        if kind == 0:
            title = title.upper()
        elif kind == 1 and ":" in title:
            title = title.split(":")[0]
        elif kind == 2 and year is not None:
            year += 1
        elif kind == 3:
            year = None
        elif kind == 4 and year is not None:
            year = min(year + 3, 2100)  # outside the year slack
        elif kind == 5:
            title = title.replace("a", "á").replace("e", "è")
        elif kind == 6:
            words = title.split()
            if len(words) > 3:
                words[rng.randrange(len(words))] = rng.choice(vocab)
            title = " ".join(words)
        dup = Publication(
            key=f"dup-{j:04d}-of-{src:05d}",
            title=title,
            authors=base.authors if j % 2 else (),
            year=year,
            venue=base.venue or f"Venue {j % 13}",
            abstract=base.abstract + (" extended" if j % 3 == 0 else ""),
            doi=base.doi or ("" if j % 2 else f"10.2000/{j}"),
            url=f"https://example.org/{j}" if j % 4 == 0 else "",
            keywords=base.keywords + (f"kw{j % 5}",),
            kind=base.kind,
        )
        records.append((rng.uniform(src + 0.5, N_ORIGINALS), dup))
    records.sort(key=lambda item: item[0])
    return [pub for _, pub in records]


def records_digest(pubs) -> str:
    return stable_digest([
        (p.key, p.title, p.authors, p.year, p.venue, p.abstract, p.doi,
         p.url, p.keywords, p.kind, p.language)
        for p in pubs
    ])


def test_golden_corpus_covers_edge_cases():
    records = golden_records()
    titles = [p.normalized_title for p in records]
    assert len(records) == N_ORIGINALS + N_DUPLICATES
    assert any(not t.isascii() for t in (p.title for p in records))
    assert any(p.year is None for p in records)
    assert any(0 < len(t) <= 4 for t in titles)
    assert any(t == "" for t in titles)


def test_store_dedup_golden():
    store = CorpusStore()
    store.extend(golden_records())
    summary = store.deduplicate()
    assert (
        records_digest(store),
        summary.clusters,
        summary.dropped,
        summary.pairs_scored,
    ) == STORE_GOLDEN


def test_corpus_dedup_golden():
    corpus = Corpus(golden_records())
    clusters = find_duplicates(list(corpus))
    deduped = corpus.deduplicate()
    assert (
        records_digest(deduped),
        stable_digest([[p.key for p in cluster] for cluster in clusters]),
        len(clusters),
        len(corpus) - len(deduped),
    ) == CORPUS_GOLDEN
