"""Independent references for the benchmark's correctness checks.

Nothing here imports screencurve.  Each quantity is computed from its
defining formula by a different route than the library takes:

* curve geometry in 60-digit ``mpmath`` arithmetic on the exact binary
  values of the float inputs, area by ``a/d - (a c / d^2) ln(a/c)``
  (exactly 1/2 at d = 0);
* the predictive value by Bayes' rule in posterior-odds form;
* cohort counts by a pure-Python splitmix64 in counter mode, checked against
  the published seed-0 output vector before it is trusted;
* sampling bounds for simulated counts from Bernstein's inequality.
"""

from __future__ import annotations

import math

#: splitmix64 outputs 1..3 for seed 0 (Steele, Lea & Flood, OOPSLA'14).
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

#: Per-check tail probability of the sampling bounds is 2*exp(-BOUND_LOG),
#: about 4e-9, the two-sided tail of a 6-sigma normal bound.
BOUND_LOG = 20.0

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 2.0**-53

REPORT_FIELDS = (
    "lr_plus", "phi_e", "rho_e", "beta_rad", "psi", "origin_slope",
    "slope", "intercept", "auc",
)


def degenerate(a: float, b: float) -> bool:
    """True where LR+ is 0, infinite or 0/0, so no report field is defined."""
    return a == 0.0 or b == 1.0


def report_reference(a: float, b: float) -> dict[str, float | None]:
    """Every report field of the test (a, b) to double precision.

    Degenerate tests get None for every field.  ``intercept`` is the
    endpoint chord's intercept, 1 - slope.
    """
    if degenerate(a, b):
        return dict.fromkeys(REPORT_FIELDS)
    import mpmath  # on first use, so that set-up time does not include it

    with mpmath.workdps(60):
        a_ = mpmath.mpf(a)
        c = 1 - mpmath.mpf(b)
        d = a_ - c
        root_a, root_c = mpmath.sqrt(a_), mpmath.sqrt(c)
        phi_e = root_c / (root_a + root_c)
        psi = root_c / root_a
        if d == 0:
            auc = mpmath.mpf(1) / 2
        else:
            auc = a_ / d - (a_ * c / d**2) * mpmath.log(a_ / c)
        values = {
            "lr_plus": a_ / c,
            "phi_e": phi_e,
            "rho_e": 1 - phi_e,
            "beta_rad": mpmath.atan(psi),
            "psi": psi,
            "origin_slope": 1 / psi,
            "slope": psi,
            "intercept": 1 - psi,
            "auc": auc,
        }
        return {key: float(value) for key, value in values.items()}


def ppv_odds(a: float, b: float, phi: float) -> float | None:
    """Predictive value by posterior odds; None where it is 0/0."""
    c = 1.0 - b
    if phi == 0.0:
        return 0.0 if c > 0.0 else None
    if phi == 1.0:
        return 1.0 if a > 0.0 else None
    if c == 0.0:
        return 1.0 if a > 0.0 else None
    odds = (phi / (1.0 - phi)) * (a / c)
    return odds / (1.0 + odds)


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int, mod 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_word(seed: int, k: int) -> int:
    """Output k of the counter stream: mix64(seed + k * golden) mod 2^64."""
    return mix64((seed + k * _GOLDEN) & _MASK)


def check_splitmix64() -> None:
    """Raise unless the stream reproduces the published seed-0 vector."""
    got = tuple(stream_word(0, k) for k in (1, 2, 3))
    if got != SPLITMIX64_SEED0:
        raise AssertionError(f"splitmix64 reference is wrong: {[hex(v) for v in got]}")


def cohort_counts(a: float, b: float, phi: float, n: int, seed: int) -> tuple[int, int, int, int]:
    """(true_pos, false_pos, true_neg, false_neg) of the counter-mode cohort.

    Subject i draws disease from output 2i+1 and the test from output 2i+2,
    each as the top 53 bits of the word over 2^53.
    """
    check_splitmix64()
    fpr = 1.0 - b
    state = (seed + _GOLDEN) & _MASK
    tp = fp = tn = fn = 0
    for _ in range(n):
        u_disease = (mix64(state) >> 11) * _UNIT
        state = (state + _GOLDEN) & _MASK
        u_test = (mix64(state) >> 11) * _UNIT
        state = (state + _GOLDEN) & _MASK
        if u_disease < phi:
            if u_test < a:
                tp += 1
            else:
                fn += 1
        elif u_test < fpr:
            fp += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def binomial_halfwidth(trials: int, p: float) -> float:
    """Deviation t of a Binomial(trials, p) count with P(|X - mean| >= t) <= 2e^-20.

    Bernstein's inequality; about 6.3 sigma for large counts, and wide
    enough for counts of a few events, where a normal 6-sigma band is not.
    """
    variance = trials * p * (1.0 - p)
    if variance == 0.0:
        return 0.0
    third = BOUND_LOG / 3.0
    return third + math.sqrt(third * third + 2.0 * BOUND_LOG * variance)


def within_binomial(count: int, trials: int, p: float) -> bool:
    """True if ``count`` is a plausible draw of Binomial(trials, p)."""
    return abs(count - trials * p) <= binomial_halfwidth(trials, p)


def lr_plus_interval(a: float, b: float, diseased: int, healthy: int) -> tuple[float, float]:
    """Range of empirical LR+ allowed by the true- and false-positive bounds."""
    c = 1.0 - b
    tp_half = binomial_halfwidth(diseased, a) / diseased
    fp_half = binomial_halfwidth(healthy, c) / healthy
    low_fp = c - fp_half
    low = max(a - tp_half, 0.0) / (c + fp_half)
    high = math.inf if low_fp <= 0.0 else (a + tp_half) / low_fp
    return low, high
