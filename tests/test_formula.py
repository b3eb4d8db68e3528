import math
import sys

import pytest

from sepprob import formula


class TestQPoly:
    def test_constant_term(self):
        assert formula.q_poly(0.0) == 63000.0

    def test_at_one(self):
        # direct sum of the printed coefficients
        assert formula.q_poly(1.0) == 185000 + 779750 + 1289125 + 1042015 + 410694 + 63000
        assert formula.q_poly(1.0) == 3769584.0

    def test_horner_matches_term_sum(self):
        coeffs = (185000, 779750, 1289125, 1042015, 410694, 63000)
        for alpha in (-1.0, 0.5, 2.7):
            direct = sum(c * alpha ** (5 - i) for i, c in enumerate(coeffs))
            assert math.isclose(formula.q_poly(alpha), direct, rel_tol=1e-13)


class TestFTerm:
    def test_difference_identity_alpha_one(self):
        # f(1) = P(1) - P(2) = 8/33 - 26/323
        assert abs(formula.f_term(1.0) - (8 / 33 - 26 / 323)) < 1e-12

    def test_difference_identity_alpha_half(self):
        # f(1/2) = P(1/2) - P(3/2); the step in alpha is 1, not 1/2
        want = formula.p_alpha(0.5) - formula.p_alpha(1.5)
        assert abs(formula.f_term(0.5) - want) < 1e-12

    def test_positive_on_domain(self):
        for alpha in (0.1, 0.5, 1.0, 2.5, 5.0, 10.0):
            assert formula.f_term(alpha) > 0.0

    def test_no_overflow_at_large_alpha(self):
        assert formula.f_term(50.0) > 0.0
        assert math.isfinite(formula.f_term(50.0))

    def test_domain_error(self):
        with pytest.raises(formula.DomainError):
            formula.f_term(0.0)


class TestPAlpha:
    @pytest.mark.parametrize("alpha,want", [
        (1.0, 8 / 33), (0.5, 29 / 64), (2.0, 26 / 323)])
    def test_known_values(self, alpha, want):
        assert abs(formula.p_alpha(alpha) - want) < 1e-12

    def test_telescoping_identity(self):
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            lhs = formula.p_alpha(alpha) - formula.p_alpha(alpha + 1.0)
            assert abs(lhs - formula.f_term(alpha)) < 1e-12

    def test_strictly_decreasing(self):
        grid = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0]
        vals = [formula.p_alpha(a) for a in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_truncation_bound(self):
        tol = 1e-16
        for alpha in (0.5, 1.0, 2.0):
            val, terms = formula.p_alpha_terms(alpha, tol)
            extra = sum(formula.f_term(alpha + terms + i) for i in range(10))
            assert extra < 10 * tol * val

    def test_term_count_is_small(self):
        _, terms = formula.p_alpha_terms(1.0)
        assert terms < 100
        assert [formula.p_alpha_terms(a)[1] for a in (1.0, 0.5, 2.0)] == [42, 41, 42]

    @pytest.mark.parametrize("alpha, tol", [(100.0, 1e-300), (805.0, 1e-30)])
    def test_stops_where_tolerance_underflows(self, alpha, tol):
        # tol * total is 0.0 here, so summing ends at the first term that is 0.0
        value, terms = formula.p_alpha_terms(alpha, tol)
        assert 0.0 < value < 1e-30 and math.isfinite(value)
        assert formula.f_term(alpha + terms - 1) == 0.0
        assert formula.f_term(alpha + terms - 2) > 0.0

    @pytest.mark.parametrize("alpha", [1e200, 1e308, sys.float_info.max])
    def test_huge_alpha_gives_zero(self, alpha):
        # q_poly is inf above about 4e60 (inf * 0 was nan) and lgamma raised
        # OverflowError above about 5e304
        assert formula.f_term(alpha) == 0.0
        assert formula.p_alpha_terms(alpha) == (0.0, 1)

    def test_domain_error(self):
        with pytest.raises(formula.DomainError):
            formula.p_alpha(-1.0)
        with pytest.raises(ValueError):
            formula.p_alpha(1.0, tol=0.0)

    @pytest.mark.parametrize("alpha", [858.6, 1000.0])
    def test_underflow_gives_zero(self, alpha):
        # the first term is 0.0 in double precision (f(858.6) is 2.3e-324
        # exactly, under half the smallest subnormal), and every later one
        # smaller
        assert formula.f_term(alpha) == 0.0
        assert formula.p_alpha_terms(alpha) == (0.0, 1)

    def test_smallest_representable_value(self):
        # near the foot of the normal range P keeps its value: against the
        # closed form summed term by term at 40 digits
        mp = pytest.importorskip("mpmath")

        def f(a):
            coeffs = (185000, 779750, 1289125, 1042015, 410694, 63000)
            q = sum(c * a ** (5 - i) for i, c in enumerate(coeffs))
            return (q * mp.power(2, -(4 * a + 6)) * mp.gamma(3 * a + 2.5)
                    * mp.gamma(5 * a + 2) / (3 * mp.gamma(a + 1) * mp.gamma(2 * a + 3)
                                             * mp.gamma(5 * a + 6.5)))

        with mp.workdps(40):
            want = sum(f(mp.mpf(805.714) + i) for i in range(200))
        got, _ = formula.p_alpha_terms(805.714)
        assert abs(got - want) < 1e-11 * want
        assert formula.f_term(858.5) > 0.0  # subnormal, but not 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN slips past alpha <= 0 and inf makes every term NaN
        with pytest.raises(formula.DomainError):
            formula.p_alpha(bad)
        with pytest.raises(formula.DomainError):
            formula.f_term(bad)
        with pytest.raises(ValueError, match="tol"):
            formula.p_alpha(1.0, tol=bad)
