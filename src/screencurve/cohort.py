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

Draws.  A draw never becomes a float: the uniform (w >> 11) * 2^-53 of a
word w is below p exactly when w < ceil(p * 2^53) * 2^11, since w >> 11 is
an integer and p * 2^53 is exact; at p = 1 every draw passes.  Only diseased
subjects and true and false positives are counted, in blocks run one after
another on the calling thread: two threads on a shared two-core host took
from half to all of one thread's time.

Kernels.  Two kernels give the same counts bit for bit, so no output
depends on which one ran.  The numpy kernel mixes words in place, in blocks
of 2^15 subjects (``_CHUNK``), at about 6 ns a subject, but importing numpy
costs about 120 ms.  The SWAR kernel (SIMD within a register) runs the same
arithmetic on plain Python ints, one 128-bit lane a word, at about 0.2 us a
subject.  ``_tally`` takes the SWAR kernel while numpy is not loaded and the
subjects this process has simulated, the call's own included, stay within
``_SWAR_BUDGET``, about the import's cost in SWAR time; after that it
imports numpy.  So a cold ``simulate`` at its default n = 10^5 never loads
numpy, and a long loop of small calls spends at most about one import's
time in SWAR before it switches.  Where numpy cannot be imported, every call
takes the SWAR kernel, with the same counts, and the import is tried once.

Buffers.  A numpy call's buffers, about 1.4 MiB whatever n is, stay in a
core's 2 MiB L2 cache from one block to the next; larger blocks spill out of
it, and smaller ones cost more in per-block numpy calls than the cache saves.
A load waits for a store still in flight whose address has the same low
12 bits (4K aliasing), so passes over buffers a few bytes apart modulo
4096, as the allocator placed a call's words and scratch, ran at half
speed.  ``_buffers`` puts every buffer in one allocation, on a cache line
(glibc starts such blocks 16 bytes into one, which cost 12-15%) and at
least 12 cache lines from every other modulo 4096.  One such block, sized for
``_CHUNK`` with its counter steps written once, is kept per process from one
call to the next, so a small call allocates nothing and a call after a large
free maps no fresh pages.  A call takes the block out of ``_kept`` and puts
it back after its last block, so no two calls ever count in one block.  A
call that finds none there (another call holds it, on this thread or
another, or an interrupted call never put it back) builds a full block and
puts that back in turn; the last call to finish decides which block stays.
"""

from __future__ import annotations

import functools
import math
import sys
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

#: Subjects per block of the SWAR kernel: 2^12 lanes, 64 KiB per int.  Blocks
#: of 2^10 to 2^14 lanes ran at 0.20-0.22 us a subject on a 2-vCPU Xeon with
#: CPython 3.11.
_SWAR_CHUNK = 1 << 11

#: Subjects the SWAR kernel may simulate in one process before ``_tally``
#: imports numpy: about numpy's import (medians of 65-150 ms over a bare
#: interpreter's start, CPython 3.11, numpy 2.4, a 2-vCPU Xeon) over the SWAR
#: kernel's ~0.2 us a subject.
_SWAR_BUDGET = 1 << 19

#: Subjects the SWAR kernel has simulated in this process.  A lost update
#: between threads only moves the switch to numpy, which no count depends on.
_swar_subjects = 0

#: The numpy kernel's kept ``_buffers``, by the ``_CHUNK`` each was built for.
#: A call pops its block (one atomic step) and puts it back when done, so no
#: two calls count in one block (module docstring).
_kept = {}


def _mix64(z: int, low: int = _MASK) -> int:
    """splitmix64 finalizer on one 64-bit word, or on every lane of a SWAR int.

    ``low`` masks each step: 2^64 - 1 for one word (wrapping it mod 2^64), or
    the low half of every 128-bit lane of ``z``, as ``_tally_swar`` packs it.
    A shift is masked before its xor, so no lane takes bits from the next.
    """
    z = ((z ^ ((z >> 30) & low)) * _MIX_1) & low
    z = ((z ^ ((z >> 27) & low)) * _MIX_2) & low
    return z ^ ((z >> 31) & low)


@functools.cache
def _numpy():
    """numpy and the finalizer's uint64 multipliers, imported on first use; None without numpy.

    The result is kept, a failed import's too, so no later call tries again.
    """
    try:
        import numpy as np
    except ImportError:
        return None
    return np, np.uint64(_MIX_1), np.uint64(_MIX_2)


def _buffers(size: int):
    """(steps, words, scratch, sick, hit) for blocks of up to ``size`` subjects.

    uint64 arrays of size, 2 * size and 2 * size words, then two bool arrays
    of size flags, in one allocation; each block gets the counter offsets
    2j * golden (mod 2^64), j < size, written into its steps once.
    """
    np = _numpy()[0]
    # The spare words cover the skips: under 64 bytes to the block's first
    # cache line, ``line`` words in, and under 4096 before each later buffer.
    block = np.empty(42 * size // 8 + 2057, dtype=np.uint64)
    line = -block.__array_interface__["data"][0] % 64 // 8
    # Buffer k starts 832 * k bytes (13 cache lines) past that line, modulo
    # 4096, so a buffer of x bytes takes x + (832 - x) % 4096 of the block.
    a, b, c = (x + (832 - x) % 4096 for x in (8 * size, 16 * size, size))
    w, s, n = line + a // 8, line + (a + b) // 8, 2 * size
    flags = block[line + (a + 2 * b) // 8 :].view(bool)
    steps = block[line : line + size]
    np.multiply(np.arange(size, dtype=np.uint64), np.uint64(2 * _GOLDEN & _MASK), out=steps)
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
    """(diseased, true positives, false positives) among subjects [lo, hi).

    ``seed`` is in [0, 2^64) and each cutoff in [0, 2^64], as ``_cutoff``
    gives them; the kernel is chosen as the module docstring says.
    """
    global _swar_subjects
    if "numpy" not in sys.modules and _swar_subjects + hi - lo <= _SWAR_BUDGET:
        _swar_subjects += hi - lo
        return _tally_swar(seed, cutoffs, lo, hi)
    if _numpy() is None:  # numpy cannot be imported: the SWAR kernel counts alike
        return _tally_swar(seed, cutoffs, lo, hi)
    return _tally_numpy(seed, cutoffs, lo, hi)


def _tally_numpy(seed: int, cutoffs: tuple[int, int, int], lo: int, hi: int):
    """``_tally`` on numpy arrays, in blocks of ``_CHUNK`` subjects."""
    np = _numpy()[0]
    phi_cut, a_cut, fpr_cut = cutoffs
    chunk = _CHUNK
    buffers = _kept.pop(chunk, None) or _buffers(chunk)
    # A block of m subjects holds its disease words in words[:m] and its
    # test words in words[m:2m], so one pass mixes both.
    steps, words, scratch, sick_buffer, hit_buffer = buffers
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
    _kept[chunk] = buffers
    return diseased, true_pos, false_pos


@functools.cache
def _lanes():
    """(R, L, steps, even) for one full block of the SWAR kernel.

    Each int holds 2 * _SWAR_CHUNK lanes of 128 bits: R has bit 0 of every
    lane set, L = R * (2^64 - 1) the low half of every lane, the steps hold
    k * golden (mod 2^64) in lane k, and even is R's even lanes only.  Lane
    k of a tail block is lane k of a full one, so a tail masks these.
    """
    lanes = 2 * _SWAR_CHUNK
    r = int.from_bytes((1).to_bytes(16, "little") * lanes, "little")
    even = int.from_bytes((1).to_bytes(32, "little") * _SWAR_CHUNK, "little")
    steps = b"".join((k * _GOLDEN & _MASK).to_bytes(16, "little") for k in range(lanes))
    return r, r * _MASK, int.from_bytes(steps, "little"), even


def _complements(disease_cut: int, test_cut: int, m: int) -> int:
    """2^64 - disease_cut in each disease lane of m subjects, 2^64 - test_cut in each test lane."""
    pair = ((1 << 64) - disease_cut) | ((1 << 64) - test_cut) << 128
    return int.from_bytes(pair.to_bytes(32, "little") * m, "little")


def _tally_swar(seed: int, cutoffs: tuple[int, int, int], lo: int, hi: int):
    """``_tally`` on Python ints, one 128-bit lane a word (SWAR).

    Lane 2j holds subject start + j's disease word and lane 2j + 1 its test
    word.  A 64-bit word times a 64-bit multiplier fits its lane and a shift
    is masked back to the low half, so no lane spills into the next.  Lane
    k of ``w + 2^64 - cut`` has bit 64 set exactly when its word w >= cut.
    """
    phi_cut, a_cut, fpr_cut = cutoffs
    full = _lanes()
    diseased = true_pos = false_pos = 0
    size = 0
    for start in range(lo, hi, _SWAR_CHUNK):
        m = min(_SWAR_CHUNK, hi - start)
        if m != size:
            size, mask = m, (1 << 256 * m) - 1
            r, low, steps, even = (c & mask for c in full)
            cuts = _complements(phi_cut, a_cut, m)
            fpr_cuts = _complements(0, fpr_cut, m)
        # Subject start + j draws from counters 2(start + j) + 1 and + 2.
        w = _mix64((steps + ((seed + (2 * start + 1) * _GOLDEN) & _MASK) * r) & low, low)
        # Bit 0 of each disease lane: set when that subject is healthy, when
        # its test misses at a, and when it misses at 1 - b.
        flags = w + cuts
        healthy = (flags >> 64) & even
        miss = (flags >> 192) & even
        no_false_hit = ((w + fpr_cuts) >> 192) & even
        healthy_count = healthy.bit_count()
        diseased += m - healthy_count
        true_pos += m - (healthy | miss).bit_count()
        false_pos += healthy_count - (healthy & no_false_hit).bit_count()
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
    with ``lr_reason`` set.  When several of those counts are zero, the
    reason names the first in this order: no diseased subjects, no healthy
    subjects, no false positives, no true positives.
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
        _cutoff(test.false_positive_rate),
    )
    diseased_total, true_pos, false_pos = _tally(seed_value, cutoffs, 0, n)
    healthy_total = n - diseased_total
    positives = true_pos + false_pos
    # The first empty count names why LR+ is absent (see CohortResult).
    lr_reason = next((reason for count, reason in (
        (diseased_total, "no diseased subjects were drawn"),
        (healthy_total, "no healthy subjects were drawn"),
        (false_pos, "no false positives: empirical LR+ is unbounded"),
        (true_pos, "no true positives: empirical LR+ collapses to 0"),
    ) if count == 0), None)
    return CohortResult(
        n=n,
        seed=seed_value,
        true_pos=true_pos,
        false_pos=false_pos,
        true_neg=healthy_total - false_pos,
        false_neg=diseased_total - true_pos,
        empirical_ppv=true_pos / positives if positives else None,
        empirical_lr_plus=None if lr_reason is not None else (
            (true_pos / diseased_total) / (false_pos / healthy_total)),
        ppv_reason=None if positives else f"no subject tested positive in {n} draws",
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

    Raises ParameterError unless ``phis`` is an iterable of probabilities,
    for n < 1, or for a non-integer seed.
    """
    n = _require_int("n", n, 1)
    seed_value = _normalize_seed(seed)
    try:
        phis = iter(phis)
    except TypeError:
        raise ParameterError(f"phis must be an iterable of probabilities, got {phis!r}") from None
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
