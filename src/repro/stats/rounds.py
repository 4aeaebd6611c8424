"""The adaptive round engine behind every randomized sweep.

Two sweeps ask many noisy questions at once and stop each one once its
answer is precise enough: :func:`repro.continuum.montecarlo.run_sweep`
(a *unit* is a grid cell, a draw one replay of its schedule) and
:func:`repro.stats.fanout.run_stat_sweep` (a unit is a bootstrap or
permutation estimate, a draw one resample).  Both run on this engine,
which owns what they share:

* **identity → entropy → streams**: a unit's draws derive from a
  content-addressed entropy word (:func:`unit_entropy`), one
  ``SeedSequence`` child per draw index (:func:`round_rng`), built for a
  whole round at once (:func:`round_rngs`);
* **the cache**: an :class:`~repro.pipeline.cache.ArtifactCache` hit
  replaces all of a unit's draws; every computed unit is stored;
* **the round queue**: fixed mode enqueues every round upfront,
  round-major; adaptive mode keeps one round outstanding per unit and
  enqueues the next only once its predecessor folds and the stop rule
  says continue.  Rounds run in-process or on a process pool, in queue
  order or shuffled by ``steal_seed``, and a round that completes out of
  order waits until every earlier round of its unit has folded;
* **observability**: one span, the ``<prefix>.*`` counters and a
  ``<prefix>-sweep`` ledger record (:func:`~repro.obs.build_sweep_record`).

A caller plugs in a :class:`Rounds` object for the parts that differ,
each called once per round or once per unit, never once per draw.

A round's draws depend only on its unit's identity and its position in
the unit's stream, units fold rounds in stream order, and stop decisions
fall only on folded round boundaries, so results are bit-identical
across worker counts, steal orders, the serial path, and whichever
other units share the sweep.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, ClassVar, Mapping, Sequence

import numpy as np

from repro.errors import StatsError
from repro.telemetry import ensure

__all__ = [
    "Z_95",
    "Unit",
    "Rounds",
    "SweepOutcome",
    "unit_entropy",
    "round_rng",
    "round_rngs",
    "run_rounds",
]

#: Normal-approximation z of a two-sided 95% confidence interval.
Z_95 = 1.959963984540054


def unit_entropy(identity: Mapping[str, Any]) -> int:
    """The ``SeedSequence`` entropy word a unit's draws derive from.

    Content-addressed: a unit's streams depend only on its own identity,
    never on its position in the sweep, so identical units in different
    sweeps draw identically (and cache hits are sound).
    """
    from repro.pipeline.cache import stable_digest

    return int(stable_digest(identity)[:32], 16)


def round_rng(entropy: int, index: int) -> np.random.Generator:
    """The dedicated generator for draw *index* of a unit's stream.

    By definition it is NumPy's
    ``default_rng(SeedSequence(entropy, spawn_key=(index,)))``, the
    oracle ``tests/oracles.py::unit_stream_rng`` pins; it is built by
    :func:`round_rngs`.
    """
    return round_rngs(entropy, index, 1)[0]


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # pool words, and 32-bit words of the largest entropy taken


def _hash_consts(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The ``(xor, multiplier)`` pairs of *n* successive hash steps."""
    pairs = []
    for _ in range(n):
        nxt = (init * mult) & _MASK32
        pairs.append((init, nxt))
        init = nxt
    return pairs


# Mixing a 4-word entropy pool takes 4 + 12 hash steps, the spawn word
# the next 4, one per pool word.  generate_state(4, uint64) reads 8
# words, cycling the pool twice, so the spawn arrays below are laid out
# over those 8 rows.
_A_STEPS = _hash_consts(_INIT_A, _MULT_A, 4 + 12 + _POOL)
_SPAWN_XOR = np.array([[x] for x, _ in _A_STEPS[16:]] * 2, np.uint32)
_SPAWN_MUL = np.array([[m] for _, m in _A_STEPS[16:]] * 2, np.uint32)
_B_STEPS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_STATE_XOR = np.array([[x] for x, _ in _B_STEPS], np.uint32)
_STATE_MUL = np.array([[m] for _, m in _B_STEPS], np.uint32)


@lru_cache(maxsize=1024)
def _entropy_pool(entropy: int) -> np.ndarray:
    """SeedSequence's pool mixed from *entropy* alone, before the spawn
    word: what every index of a unit's stream shares.  Returned as the
    left operand of the spawn word's ``mix``, over the 8 state rows."""
    steps = iter(_A_STEPS)

    def hashmix(value: int) -> int:
        xor, mul = next(steps)
        value = ((value ^ xor) * mul) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix((entropy >> (32 * i)) & _MASK32) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = (_MIX_L * pool[dst] - _MIX_R * hashmix(pool[src]))
                mixed &= _MASK32
                pool[dst] = mixed ^ (mixed >> 16)
    left = np.array([[(_MIX_L * word) & _MASK32] for word in pool] * 2,
                    np.uint32)
    left.flags.writeable = False  # shared by every caller of the cache
    return left


@lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """An ``ISeedSequence`` holding the PCG64 seed words of one spawned
    SeedSequence, precomputed.  Defined on first use: ``numpy.random``
    costs about 6 MB and 30 ms to import, which ``import repro`` skips.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for exactly these 4 uint64

    return SeedWords


def round_rngs(
    entropy: int, start: int, count: int
) -> list[np.random.Generator]:
    """The generators of draws ``[start, start + count)`` of a unit's
    stream: ``[round_rng(entropy, k) for k in range(start, start + count)]``.

    SeedSequence's entropy pool is mixed once; the spawn word and the
    seed words are computed for all *count* indices at once in
    ``uint32``, and each ``PCG64`` seeds itself from its words as it
    would from the SeedSequence.  *entropy* must lie in ``[0, 2**128)``
    and every index in ``[0, 2**32)``: outside those ranges NumPy mixes
    a different number of words, and :class:`StatsError` is raised.
    """
    if not 0 <= entropy < 1 << 128:
        raise StatsError(f"entropy must be in [0, 2**128), got {entropy}")
    if count < 0 or start < 0 or start + count > 1 << 32:
        raise StatsError(
            f"stream indices [{start}, {start + count}) must lie in "
            "[0, 2**32)"
        )
    spawn = np.arange(start, start + count, dtype=np.uint32)
    spawn = (spawn ^ _SPAWN_XOR) * _SPAWN_MUL  # (8, count)
    spawn ^= spawn >> 16
    state = _entropy_pool(entropy) - _MIX_R * spawn
    state ^= state >> 16
    state = (state ^ _STATE_XOR) * _STATE_MUL
    state ^= state >> 16
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8")
    words = words.astype(np.uint64, copy=False)
    seed_words = _seed_words_type()
    pcg64, generator = np.random.PCG64, np.random.Generator
    return [generator(pcg64(seed_words(row))) for row in words]


@dataclass(frozen=True, slots=True)
class Unit:
    """One unit of a sweep, as the engine sees it.

    ``uid`` names it in a result's ``computed``/``cached`` lists, ``key``
    is its cache key, ``identity`` pins its random streams, and ``spec``
    is the caller's own description of it.
    """

    uid: str
    key: str
    identity: Mapping[str, Any]
    spec: Any

    @property
    def entropy(self) -> int:
        """:func:`unit_entropy` of the unit's identity."""
        return unit_entropy(self.identity)


@dataclass(frozen=True)
class SweepOutcome:
    """Per-unit result cells plus the computed/cached split.

    ``computed``/``cached`` partition the unit ids by whether their draws
    ran in this call or came from the artifact cache;
    ``n_replications_run`` counts the draws actually executed.
    ``n_replications_budget`` is what a fixed sweep at the draw cap would
    have executed for the same computed units; the difference is what
    sequential stopping saved (zero in fixed mode).
    """

    cells: tuple[Any, ...]
    computed: tuple[str, ...]
    cached: tuple[str, ...]
    n_replications_run: int
    n_replications_budget: int = 0

    #: The engine version :meth:`to_dict` reports; set by each subclass.
    engine_version: ClassVar[str] = ""

    @property
    def n_replications_saved(self) -> int:
        return self.n_replications_budget - self.n_replications_run

    def to_dict(self) -> dict[str, Any]:
        return {
            "engine_version": self.engine_version,
            "cells": [cell.to_dict() for cell in self.cells],
            "computed": list(self.computed),
            "cached": list(self.cached),
            "n_replications_run": self.n_replications_run,
            "n_replications_budget": self.n_replications_budget,
        }


class Rounds:
    """The parts of a sweep that differ between sweep kinds.

    Class attributes name the sweep's telemetry: its ``span``, counter
    ``prefix`` (``<prefix>-sweep`` is also the ledger kind) and plural
    nouns for its ``units`` and ``draws``; ``result`` is the
    :class:`SweepOutcome` subclass :func:`run_rounds` returns.  The hooks
    address a computed unit by its *index* among the cache misses:

    * ``decode(unit, payload)``: a result cell from its cached
      ``to_dict()``;
    * ``prepare(misses, telemetry)``: set up the units to compute and
      return ``(draw, init, initargs)``.  ``draw((index, start, count))``
      returns the values of draws ``[start, start + count)``;
      ``init(*initargs)`` (or ``None``) runs once per pool worker, or
      once in-process on the serial path.  With a pool, both must be
      picklable module-level functions;
    * ``fold(index, values)``: fold one round, in stream order;
    * ``stop(index, folded)``: adaptive mode, whether to stop;
    * ``finish(index, folded)``: the unit's result cell.
    """

    span: ClassVar[str]
    prefix: ClassVar[str]
    units: ClassVar[str]
    draws: ClassVar[str]
    result: ClassVar[type[SweepOutcome]]


def run_rounds(
    rounds: Rounds,
    units: Sequence[Unit],
    *,
    cap: int,
    round_size: int,
    adaptive: bool,
    meta: Mapping[str, Any],
    cache=None,
    telemetry=None,
    registry=None,
    workers: int = 0,
    steal_seed: int | None = None,
) -> SweepOutcome:
    """Run every unit of a sweep, cached, traced and recorded.

    Each unit runs at most *cap* draws in rounds of *round_size*; with
    *adaptive* it stops at the first folded round boundary where
    ``rounds.stop`` holds.  ``workers > 1`` runs the rounds on a process
    pool of that size.  *meta* annotates the ledger record.
    """
    from repro.pipeline.cache import stable_digest

    tel = ensure(telemetry)
    tags = {rounds.units: len(units), rounds.draws: cap}
    with tel.tracer.span(
        rounds.span, **tags, workers=workers, adaptive=adaptive
    ) as span:
        cells: dict[str, Any] = {}
        cached: list[str] = []
        misses: list[Unit] = []
        for unit in units:
            payload = cache.get(unit.key) if cache is not None else None
            if payload is None:
                misses.append(unit)
            else:
                cells[unit.uid] = rounds.decode(unit, payload)
                cached.append(unit.uid)

        folded: list[int] = []
        rounds_run = 0
        if misses:
            folded, rounds_run = _drain(
                rounds, len(misses), rounds.prepare(misses, tel),
                cap=cap, round_size=round_size, adaptive=adaptive,
                workers=workers, steal_seed=steal_seed,
            )
            for index, unit in enumerate(misses):
                cells[unit.uid] = rounds.finish(index, folded[index])
                if cache is not None:
                    cache.store(unit.key, cells[unit.uid].to_dict())

        result = rounds.result(
            cells=tuple(cells[unit.uid] for unit in units),
            computed=tuple(unit.uid for unit in misses),
            cached=tuple(cached),
            n_replications_run=sum(folded),
            n_replications_budget=cap * len(misses),
        )
        counts = {
            rounds.draws: result.n_replications_run,
            f"{rounds.units}_computed": len(misses),
            f"{rounds.units}_cached": len(cached),
        }
        if misses:
            counts["rounds"] = rounds_run
        if adaptive:
            counts[f"{rounds.draws}_saved"] = result.n_replications_saved
        for name, value in counts.items():
            tel.metrics.counter(f"{rounds.prefix}.{name}").inc(value)
        if registry is not None:
            from repro.obs import build_sweep_record

            registry.record(
                build_sweep_record(
                    result,
                    telemetry=tel if tel.enabled else None,
                    config_digest=stable_digest(
                        sorted(unit.key for unit in units)
                    ),
                    kind=f"{rounds.prefix}-sweep",
                    meta=meta,
                )
            )
        span.tags.update(computed=len(misses), cached=len(cached))
        tel.log.info(
            f"{rounds.span}.finish",
            **{rounds.units: len(units)},
            computed=len(misses),
            cached=len(cached),
            **{f"{rounds.draws}_run": result.n_replications_run},
        )
    return result


def _drain(
    rounds: Rounds,
    n_units: int,
    prepared: tuple[Callable, Callable | None, tuple],
    *,
    cap: int,
    round_size: int,
    adaptive: bool,
    workers: int,
    steal_seed: int | None,
) -> tuple[list[int], int]:
    """Drain every unit's ``(index, start, count)`` rounds through one
    queue; return each unit's folded draw count and the rounds run.

    Workers take whatever round is next (no static assignment), so a
    unit that stops early frees its worker for the slow ones.
    """
    draw, init, initargs = prepared
    pending: deque[tuple[int, int, int]] = deque()
    if adaptive:
        pending.extend((i, 0, min(round_size, cap)) for i in range(n_units))
    else:
        for start in range(0, cap, round_size):
            count = min(round_size, cap - start)
            pending.extend((i, start, count) for i in range(n_units))
    steal_rng = (
        np.random.default_rng(steal_seed) if steal_seed is not None else None
    )
    folded = [0] * n_units
    buffers: list[dict[int, tuple[int, Any]]] = [{} for _ in range(n_units)]
    rounds_run = 0

    def receive(index: int, start: int, count: int, values: Any) -> None:
        nonlocal rounds_run
        buffer = buffers[index]
        buffer[start] = (count, values)
        while folded[index] in buffer:
            size, rows = buffer.pop(folded[index])
            rounds.fold(index, rows)
            folded[index] += size
            rounds_run += 1
            done = folded[index]
            if adaptive and done < cap and not rounds.stop(index, done):
                pending.append((index, done, min(round_size, cap - done)))

    def take() -> tuple[int, int, int]:
        if steal_rng is None or len(pending) == 1:
            return pending.popleft()
        position = int(steal_rng.integers(len(pending)))
        item = pending[position]
        del pending[position]
        return item

    if workers > 1:
        in_flight: dict[Any, tuple[int, int, int]] = {}
        with ProcessPoolExecutor(
            max_workers=workers, initializer=init, initargs=initargs
        ) as pool:
            while pending or in_flight:
                while pending and len(in_flight) < workers * 2:
                    item = take()
                    in_flight[pool.submit(draw, item)] = item
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in finished:
                    receive(*in_flight.pop(future), future.result())
    else:
        if init is not None:
            init(*initargs)
        while pending:
            item = take()
            receive(*item, draw(item))
    return folded, rounds_run
