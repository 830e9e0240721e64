"""Mergeable streaming statistics for fleet-scale aggregation.

The fleet engine (:mod:`repro.usecases.fleet`) prices 10^4-10^6 simulated
devices; retaining a per-device trace — or even a per-device scalar — would
cost O(devices) memory and make multi-process aggregation awkward. A
:class:`StreamingStats` instead folds every observation into a compact
value-count distribution the moment it is seen, and two accumulators merge
into one that is *exactly* equal to the accumulator a single pass over the
union would have produced.

Design constraints, in order:

* **Exact merges.** ``merge`` must be associative and commutative with
  bit-identical results, so sharded runs agree with serial runs for any
  worker count. All internal state is therefore integer-valued (counts and
  integer observations); no float accumulation order can leak in.
* **Exact percentiles.** Fleet observations are drawn from discrete
  parameter grids (scenario family x size bucket x accesses x retry
  count), so the number of *distinct* values is bounded by the grid, not
  the population. A ``Counter`` over exact values gives exact p50/p95/p99
  at O(distinct values) memory.
* **Cheap ingestion.** ``add`` is a dict increment.

For observations from continuous domains, quantize before adding (the
accumulator raises on non-integer values rather than silently degrading).
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Tuple

#: The percentile levels fleet reports quote.
REPORT_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class StatsSummary:
    """A point-in-time summary of one :class:`StreamingStats`."""

    count: int
    total: int
    minimum: Optional[int]
    maximum: Optional[int]
    mean: float
    p50: Optional[int]
    p95: Optional[int]
    p99: Optional[int]


@dataclass
class StreamingStats:
    """Exact, mergeable distribution over integer observations."""

    counts: Counter = field(default_factory=Counter)

    def add(self, value: int, weight: int = 1) -> None:
        """Fold in ``value`` observed ``weight`` times."""
        if value.__class__ is not int and (
                not isinstance(value, int) or isinstance(value, bool)):
            raise TypeError("observations must be integers; quantize "
                            "continuous values before adding")
        if weight < 0:
            raise ValueError("weight must be non-negative")
        if weight:
            self.counts[value] += weight

    def extend(self, values: Iterable[int]) -> None:
        """Fold in many observations."""
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingStats") -> "StreamingStats":
        """Exact union of two accumulators (associative, commutative)."""
        merged = Counter(self.counts)
        merged.update(other.counts)
        return StreamingStats(counts=merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingStats):
            return NotImplemented
        # Counter equality ignores zero-count keys only when absent;
        # normalize so add(v, 0) histories cannot break equality.
        return ({k: v for k, v in self.counts.items() if v}
                == {k: v for k, v in other.counts.items() if v})

    # -- scalar statistics -----------------------------------------------
    @property
    def count(self) -> int:
        """Number of observations."""
        return sum(self.counts.values())

    @property
    def total(self) -> int:
        """Sum of observations."""
        return sum(value * count for value, count in self.counts.items())

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        count = self.count
        return self.total / count if count else 0.0

    @property
    def minimum(self) -> Optional[int]:
        """Smallest observation, ``None`` when empty."""
        return min(self.counts) if self.counts else None

    @property
    def maximum(self) -> Optional[int]:
        """Largest observation, ``None`` when empty."""
        return max(self.counts) if self.counts else None

    def percentile(self, p: float) -> Optional[int]:
        """Exact percentile via the nearest-rank method.

        The nearest-rank definition (smallest value with cumulative count
        >= ceil(p/100 * N)) returns an actually-observed value and is
        stable under merges — unlike interpolating estimators.
        """
        return self._nearest_ranks(sorted(self.counts), self.count, (p,))[0]

    def summary(self) -> StatsSummary:
        """Snapshot all reported statistics at once, in one sorted walk."""
        values = sorted(self.counts)
        count = sum(self.counts.values())
        total = sum(value * weight for value, weight in self.counts.items())
        p50, p95, p99 = self._nearest_ranks(values, count,
                                            REPORT_PERCENTILES)
        return StatsSummary(
            count=count, total=total,
            minimum=values[0] if values else None,
            maximum=values[-1] if values else None,
            mean=total / count if count else 0.0,
            p50=p50, p95=p95, p99=p99,
        )

    def _nearest_ranks(self, values, count: int,
                       levels: Tuple[float, ...]
                       ) -> Tuple[Optional[int], ...]:
        """Nearest-rank values at ascending ``levels`` over sorted ``values``.

        One walk over the sorted distinct values serves every level.
        """
        for p in levels:
            if not 0.0 < p <= 100.0:
                raise ValueError("percentile must be in (0, 100]")
        if not count:
            return (None,) * len(levels)
        # Exact ceil(p * count / 100) in rational arithmetic. Two float
        # traps lurk in the obvious spellings: ``int(p * count)``
        # truncates the fractional part *before* the ceiling (p=50.25,
        # N=2 -> rank 1 instead of 2), and ``p * count / 100`` can land
        # an epsilon above an integer (p=64.1, N=1000 -> ceil 642
        # instead of 641). ``Fraction(repr(p))`` recovers the decimal
        # the caller wrote, making the rank exact for both.
        ranks = []
        for p in levels:
            exact = Fraction(repr(float(p))) * count / 100
            ranks.append(max(-((-exact.numerator) // exact.denominator), 1))
        found = []
        cumulative = 0
        for value in values:
            cumulative += self.counts[value]
            while cumulative >= ranks[len(found)]:
                found.append(value)
                if len(found) == len(ranks):
                    return tuple(found)
        # Unreachable while every weight is non-negative.
        return tuple(found) + (values[-1],) * (len(ranks) - len(found))


@dataclass
class TimeWeightedStats:
    """Exact time-average of an integer step function.

    The simulation kernel (:mod:`repro.sim`) needs time-averaged queue
    depths and server occupancies: quantities of the form
    ``(1/T) * integral of N(t) dt`` where ``N(t)`` is piecewise constant
    between events. With integer timestamps and integer values the
    integral is an exact integer area, so Little's-law identities hold
    bit-exactly instead of approximately.

    Unlike :class:`StreamingStats` this accumulator is *not* mergeable:
    two observers of the same timeline would double-count, and observers
    of different timelines share no common time axis.
    """

    area: int = 0
    maximum: int = 0
    _value: int = 0
    _since: int = 0

    def observe(self, value: int, now: int) -> None:
        """Record that the tracked quantity became ``value`` at ``now``."""
        if value.__class__ is not int and (
                not isinstance(value, int) or isinstance(value, bool)):
            raise TypeError("time-weighted values must be integers")
        if now < self._since:
            raise ValueError("observations must not move backwards in "
                             "time")
        self.area += self._value * (now - self._since)
        self._value = value
        self._since = now
        if value > self.maximum:
            self.maximum = value

    def area_until(self, now: int) -> int:
        """Exact integral of the step function over ``[0, now]``."""
        if now < self._since:
            raise ValueError("cannot integrate into the past")
        return self.area + self._value * (now - self._since)

    def mean(self, now: int) -> float:
        """Time-average value over ``[0, now]`` (0.0 on an empty span)."""
        return self.area_until(now) / now if now else 0.0


def merge_all(accumulators: Iterable[StreamingStats]) -> StreamingStats:
    """Left fold of :meth:`StreamingStats.merge` over ``accumulators``."""
    result = StreamingStats()
    for accumulator in accumulators:
        result = result.merge(accumulator)
    return result
