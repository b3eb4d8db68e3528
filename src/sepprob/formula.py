"""Exact evaluator of the conjectured Hilbert-Schmidt separability
probability P(alpha) as an infinite telescoping sum.

P(alpha) = sum_{i>=0} f(alpha + i), where f(alpha) = P(alpha) - P(alpha+1)
is a closed-form ratio of Gamma functions times a quintic polynomial.
alpha acts as a Dyson-index-like parameter: alpha = 1/2, 1, 2 give the
real, complex and quaternionic two-qubit values 29/64, 8/33, 26/323.
"""

from __future__ import annotations

from math import exp, isfinite, lgamma, log

# quintic polynomial coefficients, highest degree first
_Q_COEFFS = (185000.0, 779750.0, 1289125.0, 1042015.0, 410694.0, 63000.0)

_LN2 = log(2.0)
_LN3 = log(3.0)


class DomainError(ValueError):
    """alpha outside the domain 0 < alpha < inf (NaN is outside too)."""


def q_poly(alpha: float) -> float:
    """The quintic q(alpha), evaluated in Horner form."""
    acc = 0.0
    for c in _Q_COEFFS:
        acc = acc * alpha + c
    return acc


def f_term(alpha: float) -> float:
    """f(alpha) = P(alpha) - P(alpha+1), via log-Gamma; 0.0 where it underflows."""
    if not (isfinite(alpha) and alpha > 0):
        raise DomainError(f"f_term requires finite alpha > 0, got {alpha}")
    if alpha > 1000.0:
        # f(1000) is 2e-377, and q_poly or lgamma overflow far above it
        return 0.0
    ln = (-(4.0 * alpha + 6.0) * _LN2
          + lgamma(3.0 * alpha + 2.5) + lgamma(5.0 * alpha + 2.0)
          - _LN3 - lgamma(alpha + 1.0) - lgamma(2.0 * alpha + 3.0)
          - lgamma(5.0 * alpha + 6.5))
    return q_poly(alpha) * exp(ln)


def p_alpha_terms(alpha: float, tol: float = 1e-16) -> tuple[float, int]:
    """(P(alpha), number of summed terms).

    Truncation is relative: summing stops at the first term that is 0.0 or
    below tol * partial_sum.  Terms fall geometrically, by a ratio that
    tends to 27/64 (0.318 at alpha = 1), and are 0.0 above alpha = 1000, so
    the sum always ends.  Above alpha of about 805.7 the first term
    underflows to 0.0 and the result is (0.0, 1).
    """
    if not (isfinite(alpha) and alpha > 0):
        raise DomainError(f"p_alpha requires finite alpha > 0, got {alpha}")
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    total, terms = 0.0, 0
    while True:
        term = f_term(alpha + terms)
        total += term
        terms += 1
        if term == 0.0 or term < tol * total:
            return total, terms


def p_alpha(alpha: float, tol: float = 1e-16) -> float:
    """The summation-formula separability probability P(alpha)."""
    return p_alpha_terms(alpha, tol)[0]
