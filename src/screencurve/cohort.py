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

Kernel.  A draw never becomes a float: for a word w and a probability p,
the uniform (w >> 11) * 2^-53 is below p exactly when w < ceil(p * 2^53) *
2^11.  Proof: k = w >> 11 is an integer and p * 2^53 is exact (scaling by a
power of two), so k * 2^-53 < p <=> k < p * 2^53 <=> k < ceil(p * 2^53) <=>
w < ceil(p * 2^53) * 2^11.  At p = 1 that cutoff is 2^64 and every draw
passes.  Words are mixed in place in uint64 buffers allocated once per
call, and only three numbers are counted: diseased subjects, true positives
and false positives.  The blocks run one after another on the calling
thread.  By the stream layout above, counts summed over any cut of [0, n)
into contiguous ranges are the same, so a split between workers would not
change a count; but two threads on a shared two-core host took anywhere
from about half to all of one thread's time per call, depending on the
interpreter lock and on the other core being free.  numpy is imported on
the first simulation, not when the package is imported.

Where the buffers sit matters as much as what runs on them.  A load whose
address has the same low 12 bits as a store still in flight waits for that
store (4K aliasing), so a pass that reads one buffer while writing another
that starts a few bytes further on, modulo 4096, stalls on every word.
Left to the allocator, the word and scratch buffers of one call came out 16
bytes apart modulo 4096 once glibc served them from its heap, one after
the other, and the shift passes ran at half speed.  So ``_steps`` records
where the cached counter steps start modulo 4096, and each call carves its
word, scratch and two flag buffers from one allocation at fixed offsets
from there (``_BLOCK_AT``), all at least 12 cache lines apart, whatever
the allocation history before the call.  The carving adds about 3 us to a
2000-subject call in a loop of such calls (about 60 us each) and 5-9 us
when each call follows a report and a curve (about 80 us).

Blocks hold 2^15 subjects (``_CHUNK``), so one call's buffers, about
1.1 MiB whatever n is, stay in a core's 2 MiB L2 cache from one pass to
the next, and a large call no longer maps fresh memory and pays its page
faults.  Median ms per 1e7-subject call on a 2-vCPU Xeon with AVX-512, 21
calls per size with the sizes interleaved, in two runs, with the same
counts at every block size:

    subjects per block   2^20     2^17     2^16     2^15   2^14   2^13
    ms per call          199-221  148-150  106-113  81-82  87-88  101-114

Below 2^15 the per-block numpy calls cost more than the cache saves.  The
placement still pays at this size: with the buffers left to the allocator
(words and scratch 16 bytes apart modulo 4096), the same call took a
median of 90-93 ms against 85-88 ms placed, in alternating sets of five
calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .core import ScreeningTest, _require_int, _require_probability
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

#: Subjects per block: a block's 2^16 words are mixed in place in two
#: 512 KiB buffers, which with the flags and the 256 KiB of counter steps
#: stay in a core's 2 MiB L2 cache.  A 1e7-subject call runs about 2.5
#: times as fast as with 2^20-subject blocks and allocates 1.1 against
#: 34 MiB (see the module docstring for the sweep).
_CHUNK = 1 << 15


def _mix64(z: int) -> int:
    """splitmix64 finalizer on one 64-bit integer (wraps mod 2^64)."""
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


@functools.cache
def _numpy():
    """numpy, the finalizer's uint64 multipliers and an array's address.

    Imported on first use; numpy itself loads ctypes.
    """
    import ctypes

    import numpy as np

    def address(array) -> int:
        """Address of a writable array's first byte.

        Between other work this costs a few microseconds, about a third of
        ``array.ctypes.data`` or ``array.__array_interface__``.
        """
        return ctypes.addressof(ctypes.c_char.from_buffer(array))

    return np, np.uint64(_MIX_1), np.uint64(_MIX_2), address


#: Where each call's words, scratch, disease flags and test flags start,
#: in bytes past the cache line where the cached counter steps start,
#: modulo 4096: 13 cache lines apart, and 12 from the test flags round to
#: the steps, so that no pass reads one buffer a few bytes behind where it
#: writes another, modulo 4096 (see the module docstring).
_BLOCK_AT = (832, 1664, 2496, 3328)


@functools.cache
def _steps(size: int):
    """Read-only counter offsets 2j * golden (mod 2^64) for j < size.

    Returns the array and the start of its first cache line modulo 4096.
    Sizes are powers of two, so a small cohort builds and keeps only a
    small array.
    """
    np, _, _, address = _numpy()
    steps = np.arange(size, dtype=np.uint64) * np.uint64(2 * _GOLDEN & _MASK)
    steps_at = address(steps) % 4096 // 64 * 64
    steps.flags.writeable = False
    return steps, steps_at


def _buffers(size: int, steps_at: int):
    """(words, scratch, sick, hit) for blocks of up to ``size`` subjects.

    Two uint64 arrays of 2 * size words and two bool arrays of size flags,
    in order and without overlap in one uint64 allocation, whose address
    is looked up once; buffer k starts at ``steps_at + _BLOCK_AT[k]``
    modulo 4096.  Each start skips fewer than 4096 bytes, which the 2048
    spare words cover.
    """
    np, _, _, address = _numpy()
    first, second, third, fourth = _BLOCK_AT
    n = 2 * size
    block = np.empty(2 * n + size // 4 + 2048, dtype=np.uint64)
    # Word indices of the two word buffers and of the flags; the test flags
    # sit h bytes after the disease flags.
    w = (steps_at + first - address(block)) % 4096 // 8
    s = w + n + (second - first - 8 * n) % 4096 // 8
    k = s + n + (third - second - 8 * n) % 4096 // 8
    h = size + (fourth - third - size) % 4096
    flags = block[k:].view(bool)
    return block[w : w + n], block[s : s + n], flags[:size], flags[h : h + size]


def _mix_in_place(words, scratch) -> None:
    """splitmix64 finalizer, elementwise and in place on a uint64 array."""
    np, mix_1, mix_2, _ = _numpy()
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
    size = min(chunk, hi - lo)
    steps, steps_at = _steps(1 << (size - 1).bit_length())
    # A block of m subjects holds its disease words in words[:m] and its
    # test words in words[m:2m], so one pass mixes both.
    words, scratch, sick_buffer, hit_buffer = _buffers(size, steps_at)
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
