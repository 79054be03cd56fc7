"""Monte Carlo cohort simulation with a counter-based deterministic PRNG.

Random number generation.  Reproducibility across platforms, processes, and
call orders matters more here than raw statistical sophistication, so the
generator is pinned to a fixed, published algorithm rather than delegated
to a library default that might change between releases: splitmix64
(the 64-bit finalizer of Steele, Lea & Flood's SplittableRandom), used in
pure counter mode.  Output k of the stream for a 64-bit ``seed`` is

    value(k) = mix64(seed + k * 0x9E3779B97F4A7C15)      (mod 2^64)

where mix64 is the xor-shift/multiply finalizer, and uniforms in [0, 1)
take the top 53 bits.  Subject i of a cohort consumes exactly outputs
2i+1 (disease draw) and 2i+2 (test draw), so every subject's fate is a pure
function of (seed, i): results are identical no matter how the work is
chunked, ordered, or parallelized, and are bit-identical across platforms
because everything is integer arithmetic mod 2^64.

Subject model: disease with probability phi; if diseased, a positive test
with probability sensitivity, else a positive test with probability
1 - specificity.  Zero-positive cohorts yield absent estimates with a
reason, never a fabricated value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ScreeningTest, _require_int, _require_probability
from .errors import AbsentEstimateError, ParameterError

__all__ = [
    "CohortResult",
    "EmpiricalPoint",
    "simulate_cohort",
    "empirical_ppv_curve",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_TWO = np.uint64(2)

#: Subjects are simulated in blocks of this size to bound peak memory.
_CHUNK = 1 << 20


def _mix64(state: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 arrays (wraps mod 2^64)."""
    state = (state ^ (state >> np.uint64(30))) * _MIX_1
    state = (state ^ (state >> np.uint64(27))) * _MIX_2
    return state ^ (state >> np.uint64(31))


def _stream_output(seed: np.uint64, counter: np.ndarray) -> np.ndarray:
    """Raw 64-bit output ``value(counter)`` of the seeded counter stream."""
    return _mix64(seed + counter * _GOLDEN)


def _to_unit_interval(words: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word as a float64 uniform in [0, 1)."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _normalize_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    return seed % (1 << 64)


@dataclass(frozen=True)
class CohortResult:
    """Confusion-matrix counts and empirical estimates for one simulated cohort.

    ``empirical_ppv`` is true_pos / (true_pos + false_pos) when at least one
    subject tested positive, else None with ``ppv_reason`` set.
    ``empirical_lr_plus`` is the ratio of the empirical true-positive and
    false-positive rates; it is reported only when all four of diseased,
    healthy, true positives, and false positives are nonzero, else None
    with ``lr_reason`` set.
    """

    n: int
    seed: int
    true_pos: int
    false_pos: int
    true_neg: int
    false_neg: int
    empirical_ppv: float | None
    empirical_lr_plus: float | None
    ppv_reason: str | None = None
    lr_reason: str | None = None

    def require_ppv(self) -> float:
        if self.empirical_ppv is None:
            raise AbsentEstimateError(self.ppv_reason or "empirical ppv absent")
        return self.empirical_ppv

    def require_lr_plus(self) -> float:
        if self.empirical_lr_plus is None:
            raise AbsentEstimateError(self.lr_reason or "empirical LR+ absent")
        return self.empirical_lr_plus


@dataclass(frozen=True)
class EmpiricalPoint:
    """One grid point of an empirical curve; ``ppv`` is None when absent."""

    phi: float
    ppv: float | None
    reason: str | None
    cohort: CohortResult

    def require(self) -> float:
        if self.ppv is None:
            raise AbsentEstimateError(
                self.reason or f"empirical ppv absent at phi={self.phi:g}"
            )
        return self.ppv


def simulate_cohort(
    test: ScreeningTest, phi: float, n: int, seed: int
) -> CohortResult:
    """Simulate ``n`` subjects at prevalence ``phi`` with the given seed.

    Deterministic: the same (test, phi, n, seed) always produces identical
    counts (see the module docstring for the exact stream layout).  Negative
    seeds are accepted and reduced mod 2^64.

    Raises ParameterError for phi outside [0, 1], n < 1, or a non-integer seed.
    """
    phi = _require_probability("phi", phi)
    n = _require_int("n", n, 1)
    seed_value = _normalize_seed(seed)
    seed64 = np.uint64(seed_value)
    a = test.sensitivity
    fpr = 1.0 - test.specificity

    true_pos = false_pos = true_neg = false_neg = 0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        index = np.arange(lo, hi, dtype=np.uint64)
        disease_draw = _to_unit_interval(
            _stream_output(seed64, index * _TWO + _ONE)
        )
        test_draw = _to_unit_interval(
            _stream_output(seed64, index * _TWO + _TWO)
        )
        diseased = disease_draw < phi
        positive = np.where(diseased, test_draw < a, test_draw < fpr)
        true_pos += int(np.count_nonzero(diseased & positive))
        false_neg += int(np.count_nonzero(diseased & ~positive))
        false_pos += int(np.count_nonzero(~diseased & positive))
        true_neg += int(np.count_nonzero(~diseased & ~positive))

    positives = true_pos + false_pos
    diseased_total = true_pos + false_neg
    healthy_total = false_pos + true_neg

    ppv_value: float | None
    ppv_reason: str | None
    if positives > 0:
        ppv_value, ppv_reason = true_pos / positives, None
    else:
        ppv_value = None
        ppv_reason = f"no subject tested positive in {n} draws"

    lr_value: float | None = None
    lr_reason: str | None = None
    if diseased_total == 0:
        lr_reason = "no diseased subjects were drawn"
    elif healthy_total == 0:
        lr_reason = "no healthy subjects were drawn"
    elif false_pos == 0:
        lr_reason = "no false positives: empirical LR+ is unbounded"
    elif true_pos == 0:
        lr_reason = "no true positives: empirical LR+ collapses to 0"
    else:
        lr_value = (true_pos / diseased_total) / (false_pos / healthy_total)

    return CohortResult(
        n=n,
        seed=seed_value,
        true_pos=true_pos,
        false_pos=false_pos,
        true_neg=true_neg,
        false_neg=false_neg,
        empirical_ppv=ppv_value,
        empirical_lr_plus=lr_value,
        ppv_reason=ppv_reason,
        lr_reason=lr_reason,
    )


def empirical_ppv_curve(
    test: ScreeningTest, phis: Sequence[float], n: int, seed: int
) -> list[EmpiricalPoint]:
    """Simulate one cohort per prevalence and collect the empirical ppv values.

    Grid point k runs under its own derived seed, the (k+1)-th raw output of
    the master stream, so points are independent of each other and of the
    grid layout while remaining fully determined by (seed, k).  Points whose
    cohort has no positives are reported with ``ppv=None`` and a reason.
    """
    n = _require_int("n", n, 1)
    seed64 = np.uint64(_normalize_seed(seed))
    prevalences = [_require_probability(f"phis[{k}]", p) for k, p in enumerate(phis)]

    points: list[EmpiricalPoint] = []
    for k, phi in enumerate(prevalences):
        counter = np.array([k + 1], dtype=np.uint64)
        derived_seed = int(_stream_output(seed64, counter)[0])
        cohort = simulate_cohort(test, phi, n, derived_seed)
        points.append(
            EmpiricalPoint(
                phi=phi,
                ppv=cohort.empirical_ppv,
                reason=cohort.ppv_reason,
                cohort=cohort,
            )
        )
    return points
