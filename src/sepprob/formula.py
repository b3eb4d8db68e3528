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
    """f(alpha) = P(alpha) - P(alpha+1), via log-Gamma to avoid overflow."""
    if not (isfinite(alpha) and alpha > 0):
        raise DomainError(f"f_term requires finite alpha > 0, got {alpha}")
    ln = (-(4.0 * alpha + 6.0) * _LN2
          + lgamma(3.0 * alpha + 2.5) + lgamma(5.0 * alpha + 2.0)
          - _LN3 - lgamma(alpha + 1.0) - lgamma(2.0 * alpha + 3.0)
          - lgamma(5.0 * alpha + 6.5))
    return q_poly(alpha) * exp(ln)


def p_alpha_terms(alpha: float, tol: float = 1e-16,
                  max_terms: int = 10000) -> tuple[float, int]:
    """(P(alpha), number of summed terms).

    Truncation is relative: summing stops at the first term below
    tol * partial_sum.  Terms decay super-geometrically, so this happens
    after a few tens of terms.  Above alpha of about 805.7 the first term
    underflows to 0.0, every later one is smaller, and the result is
    (0.0, 1).
    """
    if not (isfinite(alpha) and alpha > 0):
        raise DomainError(f"p_alpha requires finite alpha > 0, got {alpha}")
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    total = 0.0
    for i in range(max_terms):
        term = f_term(alpha + i)
        total += term
        if total == 0.0 or term < tol * total:
            return total, i + 1
    raise RuntimeError(f"series did not converge within {max_terms} terms")


def p_alpha(alpha: float, tol: float = 1e-16) -> float:
    """The summation-formula separability probability P(alpha)."""
    return p_alpha_terms(alpha, tol)[0]
