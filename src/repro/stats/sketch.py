"""Mergeable quantile sketches with an exact, associative merge.

Fixed-bucket histograms answer quantile queries in O(buckets) memory,
but their accuracy is pinned to a range chosen *before* the data
arrives, and their merge story stops at "add the count arrays" — sound
only when every partial aggregate was built with identical edges.  The
package's quantiles need a summary whose partial states combine
*exactly*, no matter how the stream was split.  It has two users: the
Monte-Carlo sweep cells (:class:`repro.continuum.montecarlo.CellAggregate`),
whose partial aggregates from any worker or host combine into one cell,
and the telemetry histograms behind ``/metrics``
(:class:`repro.telemetry.metrics.Histogram`), whose snapshots from
separate registries, servers or processes merge into one.

:class:`QuantileSketch` is that summary.  It is a log-bucket sketch in
the DDSketch family (Masson et al., VLDB 2019): a value ``v > 0`` lands
in bucket ``ceil(log_gamma(v))`` where ``gamma = (1 + alpha)/(1 - alpha)``,
which guarantees every quantile estimate is within relative error
``alpha`` of a true sample value.  KLL-style compactors were considered
and rejected: their randomized (or stream-order-dependent) compaction
makes ``merge(a, b)`` only *statistically* equivalent to sketching the
combined stream.  Here the bucket a value lands in depends only on the
value, so the sketch state is a pure function of the inserted multiset —
which buys three properties the engine's determinism contract needs:

* **order-insensitive** — any insertion order yields the same state;
* **exactly mergeable** — ``merge`` of partial sketches equals the
  single-stream sketch, bit for bit;
* **associative/commutative** — partial aggregates from any process or
  host tree combine to one canonical answer.

Memory is O(distinct buckets): ~``log(max/min) / log(gamma)`` for data
spanning a bounded dynamic range (about 230 buckets per decade at the
default ``alpha = 0.01``).  The sketch refuses to grow past
``max_buckets`` (:class:`~repro.errors.StatsError`) instead of collapsing
buckets — collapse would silently break the exact-merge guarantee.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

from repro.errors import StatsError

__all__ = ["QuantileSketch"]

#: Serialized-state schema version (part of every payload).
_FORMAT = 1


class QuantileSketch:
    """Deterministic log-bucket quantile sketch (DDSketch family).

    Parameters
    ----------
    alpha:
        Relative-accuracy guarantee: ``quantile(q)`` is within
        ``alpha * |true value|`` of an actual inserted value at that
        rank.  Must be in ``(0, 1)``.
    max_buckets:
        Hard cap on distinct buckets (positive + negative).  Exceeding
        it raises :class:`~repro.errors.StatsError` rather than
        degrading accuracy or breaking merge exactness; at the default
        ``alpha`` it accommodates data spanning ~17 decades.

    Values may be any finite float (negative values mirror into their
    own bucket map; zeros are counted exactly).  ``add`` accepts a
    ``weight`` so pre-counted data folds in cheaply.
    """

    __slots__ = ("alpha", "max_buckets", "_gamma", "_log_gamma",
                 "_pos", "_neg", "_zeros")

    def __init__(self, alpha: float = 0.01, *, max_buckets: int = 4096) -> None:
        if not 0.0 < alpha < 1.0:
            raise StatsError(f"alpha must be in (0, 1), got {alpha}")
        if max_buckets < 1:
            raise StatsError("max_buckets must be >= 1")
        self.alpha = alpha
        self.max_buckets = max_buckets
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}
        self._zeros = 0

    # -- insertion ---------------------------------------------------------

    def _key(self, magnitude: float) -> int:
        """Bucket key for a positive magnitude: ``ceil(log_gamma(m))``.

        Bucket ``k`` covers ``(gamma**(k-1), gamma**k]``; the key is a
        pure function of the value, which is what makes the whole sketch
        order-insensitive.
        """
        return math.ceil(math.log(magnitude) / self._log_gamma - 1e-12)

    def add(self, value: float, weight: int = 1) -> None:
        if weight < 1:
            raise StatsError(f"weight must be >= 1, got {weight}")
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise StatsError(f"sketch values must be finite, got {value}")
        if value > 0.0:
            buckets = self._pos
            key = self._key(value)
        elif value < 0.0:
            buckets = self._neg
            key = self._key(-value)
        else:
            self._zeros += weight
            return
        if key in buckets:
            buckets[key] += weight
        else:
            buckets[key] = weight
            self._check_size()

    def _check_size(self) -> None:
        if len(self._pos) + len(self._neg) > self.max_buckets:
            raise StatsError(
                f"sketch exceeded max_buckets={self.max_buckets}; the data "
                "spans a wider dynamic range than the sketch was sized for "
                "(raise max_buckets or alpha)"
            )

    # -- merge -------------------------------------------------------------

    def _check_compatible(self, other: "QuantileSketch") -> None:
        if not isinstance(other, QuantileSketch):
            raise StatsError(
                f"can only merge QuantileSketch, got {type(other).__name__}"
            )
        if other.alpha != self.alpha:
            raise StatsError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} vs {other.alpha})"
            )

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold *other* into this sketch, in place; returns ``self``.

        Exact: the merged state equals the state of one sketch fed both
        streams, so the operation is associative and commutative across
        any split of the data (property-tested in
        ``tests/test_montecarlo.py``).
        """
        self._check_compatible(other)
        for key, count in other._pos.items():
            if key in self._pos:
                self._pos[key] += count
            else:
                self._pos[key] = count
        for key, count in other._neg.items():
            if key in self._neg:
                self._neg[key] += count
            else:
                self._neg[key] = count
        self._zeros += other._zeros
        self._check_size()
        return self

    def copy(self) -> "QuantileSketch":
        clone = QuantileSketch(self.alpha, max_buckets=self.max_buckets)
        clone._pos = dict(self._pos)
        clone._neg = dict(self._neg)
        clone._zeros = self._zeros
        return clone

    # -- queries -----------------------------------------------------------

    @property
    def count(self) -> int:
        return (
            self._zeros
            + sum(self._pos.values())
            + sum(self._neg.values())
        )

    def _representative(self, key: int) -> float:
        """Bucket midpoint ``2 * gamma**key / (gamma + 1)``.

        For any true value in the bucket's span the relative error of
        this representative is at most ``(gamma - 1)/(gamma + 1) ==
        alpha`` — the sketch's accuracy guarantee.
        """
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The *q*-quantile estimate, within ``alpha`` relative error.

        Rank convention matches ``numpy.quantile`` endpoints: ``q=0`` is
        the minimum bucket, ``q=1`` the maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise StatsError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            raise StatsError("quantile of an empty sketch")
        target = q * (total - 1)
        cumulative = 0
        # Ascending value order: most-negative first (descending |key|),
        # then zeros, then positives ascending.
        for key in sorted(self._neg, reverse=True):
            cumulative += self._neg[key]
            if cumulative > target:
                return -self._representative(key)
        if self._zeros:
            cumulative += self._zeros
            if cumulative > target:
                return 0.0
        for key in sorted(self._pos):
            cumulative += self._pos[key]
            if cumulative > target:
                return self._representative(key)
        # Floating slack at q == 1.0 lands here: the maximum bucket.
        return (
            self._representative(max(self._pos))
            if self._pos
            else 0.0 if self._zeros else -self._representative(min(self._neg))
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready state (bucket lists sorted by key).

        Two sketches over the same multiset serialize identically, so
        the payload is safe to digest, cache, and ship between hosts.
        """
        return {
            "format": _FORMAT,
            "alpha": self.alpha,
            "max_buckets": self.max_buckets,
            "zeros": self._zeros,
            "pos": [[key, self._pos[key]] for key in sorted(self._pos)],
            "neg": [[key, self._neg[key]] for key in sorted(self._neg)],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QuantileSketch":
        if not isinstance(payload, Mapping):
            raise StatsError("sketch payload must be a mapping")
        if payload.get("format") != _FORMAT:
            raise StatsError(
                f"unsupported sketch format {payload.get('format')!r}"
            )
        try:
            sketch = cls(
                float(payload["alpha"]),
                max_buckets=int(payload.get("max_buckets", 4096)),
            )
            zeros = int(payload["zeros"])
            pos = _load_buckets(payload["pos"])
            neg = _load_buckets(payload["neg"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StatsError(f"malformed sketch payload: {exc}") from None
        if zeros < 0:
            raise StatsError("sketch payload has negative zero count")
        sketch._zeros = zeros
        sketch._pos = pos
        sketch._neg = neg
        sketch._check_size()
        return sketch

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self._zeros == other._zeros
            and self._pos == other._pos
            and self._neg == other._neg
        )

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={len(self._pos) + len(self._neg)})"
        )


def _load_buckets(entries: Iterable[Any]) -> dict[int, int]:
    buckets: dict[int, int] = {}
    for entry in entries:
        key, count = entry
        key, count = int(key), int(count)
        if count < 1:
            raise ValueError(f"bucket {key} has non-positive count {count}")
        if key in buckets:
            raise ValueError(f"duplicate bucket key {key}")
        buckets[key] = count
    return buckets
