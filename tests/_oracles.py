"""Independent oracles and frozen high-precision reference values.

The constants below were computed once with 50-digit arbitrary-precision
arithmetic from the defining formulas and frozen at 12 significant digits.
The helper functions deliberately use *different* routes than the library:
posterior odds instead of the rational curve form, bisection instead of the
closed-form threshold, and finite differences instead of calculus.
"""

from __future__ import annotations

# --- frozen 12-digit references -------------------------------------------

# test (a=0.95, b=0.75)
PHI_E_9575 = 0.339056738915
RHO_E_9575 = 0.660943261085
PSI_9575 = 0.512989176043
BETA_9575 = 0.473984870691
ORIGIN_SLOPE_9575 = 1.949358868962
ENDPOINT_SLOPE_9575 = 0.512989176043
ENDPOINT_INTERCEPT_9575 = 0.487010823957
AUC_9575 = 0.710076013574

# test (a=0.75, b=0.95)
PHI_E_7595 = 0.205213096158
RHO_E_7595 = 0.794786903842
PSI_7595 = 0.258198889747
BETA_7595 = 0.252680255142
ORIGIN_SLOPE_7595 = 3.872983346207
ENDPOINT_INTERCEPT_7595 = 0.741801110253
AUC_7595 = 0.864179831548

# pointwise predictive values: (a, b, phi) -> rho
PPV = {
    (0.95, 0.75, 0.34): 0.661885245902,
    (0.75, 0.95, 0.34): 0.885416666667,
    (0.95, 0.75, 0.5): 0.791666666667,
    (0.75, 0.95, 0.5): 0.9375,
    (0.95, 0.75, 0.1): 0.296875,
    (0.95, 0.75, 0.339): 0.660886517546,
    (0.95, 0.75, 0.9): 0.971590909091,
    (0.02, 0.02, 0.5): 0.02,
}

# areas under the curve: (a, b) -> auc
AUC = {
    (0.95, 0.75): AUC_9575,
    (0.75, 0.95): AUC_7595,
    (0.999, 0.999): 0.994074473573,
    (0.9, 0.6): 0.632260488649,
    (0.6, 0.9): 0.769977727385,
    (0.75, 0.75): 0.676040783499,
    (0.875, 0.875): 0.788295248795,
    (0.02, 0.02): 0.061935414326,
    (0.98, 0.98): 0.938064585674,
    (0.85, 0.95): 0.874356926371,
}

# comparison margins for the equal-gain pair above (second minus first)
AUC_DIFF_PAIR = 0.154103817975
BETA_DIFF_PAIR = -0.221304615549
AUC_DIFF_0906_0609 = 0.137717238737

# limit sweep: 20 steps of a = b = 1 - 2**-k ends here, strictly increasing
SWEEP20_FINAL_AUC = 0.999987732906

# exact predictive value at the Monte Carlo anchor point
MC_PPV_9575_AT_034 = 0.661885245902

# areas at small LR+: sensitivity -> auc for specificity 0.5, computed with
# 50-digit arithmetic at the exact binary value of each sensitivity and
# frozen at 20 significant digits, to pin digits beyond the 12th
AUC_SMALL_LR_B05 = {
    1e-10: 4.2665407516227187548e-09,
    1e-13: 5.6480918056748291188e-12,
    1e-16: 7.0296428614689598361e-15,
    1e-20: 8.8717109358641931989e-19,
}

# threshold point and endpoint chord where 1 - rho_e and 1 - phi_e cancel:
# (a, b) -> (rho_e, endpoint-chord slope), computed with 50-digit arithmetic
# at the exact binary value of each input and frozen at 20 significant digits
THRESHOLD_EXTREMES = {
    (1e-20, 0.5): (1.4142135621730950100e-10, 7071067811.8654754379),
    (0.42873345447165806, 1.0 - 2.0**-53): (0.99999998390794822184, 1.6092052037112902566e-08),
}

# areas near epsilon = 1, at r = a/c - 1 = +-1e-3 and +-1e-2 for specificity
# 0.5: sensitivity -> auc, computed and frozen as above
AUC_NEAR_ONE_B05 = {
    0.5005: 0.50016658338330000545,
    0.4995: 0.49983324994996664269,
    0.505: 0.50165838300236323449,
    0.495: 0.49832494966426771564,
}


# --- independent computational routes --------------------------------------

def ppv_odds_form(a: float, b: float, phi: float) -> float:
    """Posterior probability via Bayes' rule in odds form."""
    if phi == 0.0:
        return 0.0
    if phi == 1.0:
        return 1.0
    posterior_odds = (phi / (1.0 - phi)) * (a / (1.0 - b))
    return posterior_odds / (1.0 + posterior_odds)


def grid_gaps(first: tuple[float, float], second: tuple[float, float],
              points: int = 1000) -> list[float]:
    """Curve gaps rho_second - rho_first on an interior grid of prevalences.

    A dominance oracle: where every gap has one sign, that test's curve lies
    above the other's at every sampled prevalence.
    """
    phis = [k / (points + 1.0) for k in range(1, points + 1)]
    return [ppv_odds_form(*second, phi) - ppv_odds_form(*first, phi) for phi in phis]


def bisect_root(f, lo: float, hi: float, iterations: int = 200) -> float:
    """Plain bisection for a sign change of ``f`` on [lo, hi]."""
    f_lo = f(lo)
    assert f_lo * f(hi) <= 0.0, "bisection bracket must straddle the root"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def central_diff(f, x: float, h: float = 1e-6) -> float:
    """Symmetric finite-difference derivative estimate."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def trapezoid_auc(a: float, b: float, n: int = 4_000_001) -> float:
    """Crude trapezoid integral of the curve, for low-precision cross-checks."""
    c = 1.0 - b
    total = 0.0
    step = 1.0 / (n - 1)
    prev = 0.0
    for k in range(1, n):
        phi = k * step
        cur = a * phi / (a * phi + c * (1.0 - phi))
        total += 0.5 * (prev + cur) * step
        prev = cur
    return total
