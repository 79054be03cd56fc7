"""Monte Carlo cohort simulation with a counter-based deterministic PRNG.

Random number generation.  Reproducibility across platforms, processes and
call orders matters more here than statistical sophistication, so the
generator is splitmix64 (the 64-bit finalizer of Steele, Lea & Flood's
SplittableRandom) in pure counter mode, not a library default that might
change between releases.  Output k of the stream for a 64-bit ``seed`` is

    value(k) = mix64(seed + k * 0x9E3779B97F4A7C15)      (mod 2^64)

where mix64 is the xor-shift/multiply finalizer, and uniforms in [0, 1)
take the top 53 bits.  Subject i consumes exactly outputs 2i+1 (disease
draw) and 2i+2 (test draw), so its fate is a pure function of (seed, i):
results do not depend on how the work is chunked or ordered, and are
bit-identical across platforms because all of it is integer arithmetic.

Subject model: disease with probability phi; if diseased, a positive test
with probability sensitivity, else a positive test with probability
1 - specificity.  Zero-positive cohorts yield absent estimates with a
reason, never a fabricated value.

Kernel.  A draw never becomes a float: the uniform (w >> 11) * 2^-53 of a
word w is below p exactly when w < ceil(p * 2^53) * 2^11, since w >> 11 is
an integer and p * 2^53 is exact; at p = 1 every draw passes.  Words are
mixed in place, and only diseased subjects and true and false positives are
counted, in blocks of 2^15 subjects (``_CHUNK``) run one after another on
the calling thread: two threads on a shared two-core host took from half to
all of one thread's time.  numpy is imported on the first simulation.

Buffers.  A call's buffers, about 1.4 MiB whatever n is, stay in a core's
2 MiB L2 cache from one block to the next; larger blocks spill out of it,
and smaller ones cost more in per-block numpy calls than the cache saves.
A load waits for a store still in flight whose address has the same low
12 bits (4K aliasing), so passes over buffers a few bytes apart modulo
4096, as the allocator placed a call's words and scratch, ran at half
speed.  ``_buffers`` puts every buffer in one allocation, on a cache line
(glibc starts such blocks 16 bytes into one, which cost 12-15%) and at
least 12 cache lines from every other modulo 4096.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from .core import ScreeningTest, _Record, _require_int, _require_probability
from .errors import AbsentEstimateError, ParameterError

__all__ = [
    "CohortResult",
    "EmpiricalPoint",
    "simulate_cohort",
    "empirical_ppv_curve",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

#: Subjects per block, so that a call's buffers stay in L2 (module docstring).
_CHUNK = 1 << 15


def _mix64(z: int) -> int:
    """splitmix64 finalizer on one 64-bit integer (wraps mod 2^64)."""
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


@functools.cache
def _numpy():
    """numpy and the finalizer's uint64 multipliers, imported on first use."""
    import numpy as np

    return np, np.uint64(_MIX_1), np.uint64(_MIX_2)


@functools.cache
def _steps(size: int):
    """Read-only counter offsets 2j * golden (mod 2^64) for j < size.

    Sizes are powers of two, so a small cohort keeps only a small array.
    """
    np = _numpy()[0]
    steps = np.arange(size, dtype=np.uint64) * np.uint64(2 * _GOLDEN & _MASK)
    steps.flags.writeable = False
    return steps


def _buffers(size: int):
    """(steps, words, scratch, sick, hit) for blocks of up to ``size`` subjects.

    uint64 arrays of size, 2 * size and 2 * size words, then two bool arrays
    of size flags, in one allocation; the steps are copied from the cache.
    """
    import ctypes

    np = _numpy()[0]
    # The spare words cover the skips: under 64 bytes to the block's first
    # cache line, ``line`` words in, and under 4096 before each later buffer.
    block = np.empty(42 * size // 8 + 2057, dtype=np.uint64)
    line = -ctypes.addressof(ctypes.c_char.from_buffer(block)) % 64 // 8
    # Buffer k starts 832 * k bytes (13 cache lines) past that line, modulo
    # 4096, so a buffer of x bytes takes x + (832 - x) % 4096 of the block.
    a, b, c = (x + (832 - x) % 4096 for x in (8 * size, 16 * size, size))
    w, s, n = line + a // 8, line + (a + b) // 8, 2 * size
    flags = block[line + (a + 2 * b) // 8 :].view(bool)
    steps = block[line : line + size]
    np.copyto(steps, _steps(1 << (size - 1).bit_length())[:size])
    return steps, block[w : w + n], block[s : s + n], flags[:size], flags[c : c + size]


def _mix_in_place(words, scratch) -> None:
    """splitmix64 finalizer, elementwise and in place on a uint64 array."""
    np, mix_1, mix_2 = _numpy()
    for shift, factor in ((30, mix_1), (27, mix_2)):
        np.right_shift(words, shift, out=scratch)
        np.bitwise_xor(words, scratch, out=words)
        np.multiply(words, factor, out=words)
    np.right_shift(words, 31, out=scratch)
    np.bitwise_xor(words, scratch, out=words)


def _cutoff(p: float) -> int:
    """The word w0 with (w >> 11) * 2^-53 < p exactly when w < w0."""
    return math.ceil(p * 2.0**53) << 11


def _below(words, cutoff: int, out):
    """``words < cutoff`` into the bool array ``out``; 2^64 passes every word."""
    if cutoff > _MASK:
        out.fill(True)
        return out
    np = _numpy()[0]
    return np.less(words, np.uint64(cutoff), out=out)


def _tally(seed: int, cutoffs: tuple[int, int, int], lo: int, hi: int):
    """(diseased, true positives, false positives) among subjects [lo, hi)."""
    np = _numpy()[0]
    phi_cut, a_cut, fpr_cut = cutoffs
    chunk = _CHUNK
    # A block of m subjects holds its disease words in words[:m] and its
    # test words in words[m:2m], so one pass mixes both.
    steps, words, scratch, sick_buffer, hit_buffer = _buffers(min(chunk, hi - lo))
    diseased = true_pos = false_pos = 0
    for start in range(lo, hi, chunk):
        m = min(chunk, hi - start)
        # Subject start + j draws from counters 2(start + j) + 1 and + 2.
        base = seed + (2 * start + 1) * _GOLDEN
        disease, test = words[:m], words[m : 2 * m]
        np.add(steps[:m], np.uint64(base & _MASK), out=disease)
        np.add(steps[:m], np.uint64((base + _GOLDEN) & _MASK), out=test)
        _mix_in_place(words[: 2 * m], scratch[: 2 * m])
        sick = _below(disease, phi_cut, sick_buffer[:m])
        diseased += int(np.count_nonzero(sick))
        hit = _below(test, a_cut, hit_buffer[:m])
        true_pos += int(np.count_nonzero(np.logical_and(hit, sick, out=hit)))
        hit = _below(test, fpr_cut, hit)
        false_pos += int(np.count_nonzero(np.greater(hit, sick, out=hit)))
    return diseased, true_pos, false_pos


def _normalize_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    return seed % (1 << 64)


class CohortResult(_Record):
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


class EmpiricalPoint(_Record):
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
    cutoffs = (
        _cutoff(phi),
        _cutoff(test.sensitivity),
        _cutoff(1.0 - test.specificity),
    )
    diseased_total, true_pos, false_pos = _tally(seed_value, cutoffs, 0, n)
    healthy_total = n - diseased_total
    positives = true_pos + false_pos

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
        true_neg=healthy_total - false_pos,
        false_neg=diseased_total - true_pos,
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
    seed_value = _normalize_seed(seed)
    prevalences = [_require_probability(f"phis[{k}]", p) for k, p in enumerate(phis)]

    points: list[EmpiricalPoint] = []
    for k, phi in enumerate(prevalences):
        derived_seed = _mix64((seed_value + (k + 1) * _GOLDEN) & _MASK)
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
