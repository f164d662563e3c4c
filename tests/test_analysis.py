import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import regularized_lower_gamma, sample_from_row, sample_row_endpoints

from urnchain.analysis import (
    EmpiricalDistribution,
    _chi_square_tail,
    chi_square_statistic,
    chi_square_threshold,
    evaluate_polynomials,
    tv_distance,
)
from urnchain.coefficients import (
    IntegerParameters,
    Parameters,
    TransitionRow,
    lu_coefficients,
    lu_coefficients_integer,
    reconstruct_row,
)
from urnchain.urns import COMPOSITE, RngStream, composite_distribution, sample_endpoints

F = Fraction
IP = IntegerParameters(2, 3, 1)


class TestTvDistance:
    def test_identical_distributions(self):
        assert tv_distance({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0

    def test_direct_formula(self):
        assert tv_distance({0: 0.5, 1: 0.5}, {0: 0.25, 1: 0.75}) == pytest.approx(0.25)

    def test_accepts_rows_and_empiricals(self):
        row = reconstruct_row(lu_coefficients_integer(IP, 0), 0)
        empirical = EmpiricalDistribution.from_counts({0: 3, 1: 4})
        assert tv_distance(empirical, row) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        p, q = {0: 0.2, 1: 0.8}, {0: 0.7, 1: 0.3}
        assert tv_distance(p, q) == tv_distance(q, p)


class TestChiSquare:
    def test_exactly_proportional_sample(self):
        empirical = EmpiricalDistribution.from_counts({0: 300, 1: 400})
        statistic, dof = chi_square_statistic(empirical, {0: F(3, 7), 1: F(4, 7)})
        assert statistic == pytest.approx(0.0, abs=1e-20)
        assert dof == 1

    def test_seeded_large_sample_below_999_quantile(self):
        row = reconstruct_row(lu_coefficients_integer(IP, 0), 0)
        counts = sample_row_endpoints(row, 100000, RngStream(0x4A50))
        statistic, dof = chi_square_statistic(
            EmpiricalDistribution.from_counts(counts), row
        )
        assert dof == 1
        assert statistic < 10.83
        assert statistic < chi_square_threshold(dof)

    def test_law_order_does_not_move_a_bit(self):
        # the exact sum, rounded once, for any key order; a float sum of the
        # cells gives ...71145 in descending state order
        law = composite_distribution(IntegerParameters(13, 46, 3), 36)
        empirical = EmpiricalDistribution.from_counts(
            {35: 36021, 34: 31219, 36: 26027, 37: 41882}
        )
        for order in (sorted(law), sorted(law, reverse=True), list(law)):
            statistic, dof = chi_square_statistic(empirical, {s: law[s] for s in order})
            assert (statistic, dof) == (192312.59454711448, 3)

    def test_zero_expected_cell_rejected(self):
        empirical = EmpiricalDistribution.from_counts({0: 1})
        with pytest.raises(ValueError, match="zero expected"):
            chi_square_statistic(empirical, {0: 1.0, 1: 0.0})

    def test_mismatched_support_rejected(self):
        empirical = EmpiricalDistribution.from_counts({0: 1, 5: 1})
        with pytest.raises(ValueError, match="support"):
            chi_square_statistic(empirical, {0: 0.5, 1: 0.5})

    def test_quantile_matches_table_value(self):
        # scipy.stats.chi2.ppf(0.999, dof) for the only dof compare can
        # produce (a composite row has at most four states), bit for bit
        assert chi_square_threshold(1) == 10.827566170662733
        assert chi_square_threshold(2) == 13.815510557964274
        assert chi_square_threshold(3) == 16.26623619623813

    @pytest.mark.parametrize("dof, quantile", [
        # scipy.stats.chi2.ppf(0.999, dof)
        (4, 18.46682695290317),
        (5, 20.515005652432873),
        (6, 22.457744484825323),
        (7, 24.321886347856854),
        (8, 26.12448155837614),
        (9, 27.877164871256568),
        (10, 29.58829844507442),
    ])
    def test_quantile_matches_recorded_values(self, dof, quantile):
        assert chi_square_threshold(dof) == pytest.approx(quantile, rel=1e-15, abs=0)

    @given(st.integers(1, 60), st.floats(0, 1024, exclude_min=True))
    @example(1, 1024.0)
    @example(60, 1024.0)
    @example(1, 5e-324)
    def test_tail_matches_the_incomplete_gamma(self, dof, x):
        # an independent oracle: the A&S 6.5.29 series for the CDF, not
        # the erfc / Poisson sums of the tail under test
        cdf = regularized_lower_gamma(dof / 2, x / 2)
        assert abs(_chi_square_tail(x, dof) - (1 - cdf)) <= 1e-12

    def test_quantile_inverts_the_tail(self):
        # the smallest double whose tail is at most the float 1 - 0.999
        for dof in range(1, 61):
            quantile = chi_square_threshold(dof)
            assert _chi_square_tail(quantile, dof) <= 1 - 0.999, dof
            assert _chi_square_tail(math.nextafter(quantile, 0), dof) > 1 - 0.999, dof

    # a quantile above 1024 (dof 900), where the tail sums would underflow
    @pytest.mark.parametrize("dof", [0, True, 900])
    def test_quantile_rejects_bad_input(self, dof):
        with pytest.raises(ValueError):
            chi_square_threshold(dof)


@st.composite
def laws_and_counts(draw):
    """The composite law of a small urn at a small start state, and
    counts on each of its states."""
    ip = draw(st.builds(IntegerParameters, st.integers(1, 60), st.integers(1, 60),
                        st.integers(0, 8)))
    law = composite_distribution(ip, draw(st.integers(0, 12)))
    counts = draw(st.fixed_dictionaries({state: st.integers(0, 10**5) for state in law}))
    return law, {**counts, max(law): counts[max(law)] + 1}  # a non-empty sample


class TestExactStatistics:
    """Both statistics are the exact rational value, rounded once."""

    def test_pinned_law_and_counts(self):
        # a float sum gives tv ...845 (...844 from Python 3.12 on, whose
        # sum() compensates) and chi-square 9.063650407518669
        law = composite_distribution(IntegerParameters(3, 37, 6), 3)
        empirical = EmpiricalDistribution.from_counts({1: 61, 2: 5347, 3: 30855, 4: 63737})
        assert tv_distance(empirical, law) == 0.004087732106708837
        assert chi_square_statistic(empirical, law) == (9.06365040751868, 3)

    @given(laws_and_counts())
    def test_equal_the_rounded_exact_expression(self, law_and_counts):
        # the oracle works on integers: each probability p is w / scale
        law, counts = law_and_counts
        scale = math.lcm(*(p.denominator for p in law.values()))
        weight = {s: int(p * scale) for s, p in law.items()}
        n = sum(counts.values())
        tv = Fraction(sum(abs(counts[s] * scale - n * w) for s, w in weight.items()), 2 * n * scale)
        chi = sum(Fraction((counts[s] * scale - n * w) ** 2, scale * n * w)
                  for s, w in weight.items())
        empirical = EmpiricalDistribution.from_counts(counts)
        assert tv_distance(empirical, law) == float(tv)
        assert chi_square_statistic(empirical, law) == (float(chi), len(law) - 1)

    def test_float_cell_counts_at_its_binary_value(self):
        # 0.1 is 3602879701896397 / 2**55, a little above 1/10
        tv = tv_distance({0: 0.1, 1: 0.9}, {0: F(1, 10), 1: F(9, 10)})
        assert tv == float((abs(F(0.1) - F(1, 10)) + abs(F(0.9) - F(9, 10))) / 2)
        assert tv > 0

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_raises(self, cell):
        # Fraction refuses them: ValueError for NaN, OverflowError for an infinity
        empirical = EmpiricalDistribution.from_counts({0: 1, 1: 1})
        with pytest.raises((ValueError, OverflowError)):
            tv_distance({0: cell, 1: 0.5}, empirical)
        with pytest.raises((ValueError, OverflowError)):
            chi_square_statistic(empirical, {0: cell, 1: 0.5})


class TestRowSampling:
    def test_degenerate_row_always_moves_up(self):
        row = TransitionRow(0, 1, 0, None, None)
        gen = RngStream(3).generator()
        assert all(sample_from_row(row, gen) == 1 for _ in range(200))

    def test_row_zero_frequencies_within_four_standard_errors(self):
        row = reconstruct_row(lu_coefficients_integer(IP, 0), 0)
        trials = 100000
        counts = sample_row_endpoints(row, trials, RngStream(77))
        for state, p in row.probabilities().items():
            p = float(p)
            se = (p * (1 - p) / trials) ** 0.5
            assert abs(counts.get(state, 0) / trials - p) <= 4 * se

    def test_reference_and_urn_samplers_agree_in_distribution(self):
        trials = 100000
        c = lu_coefficients_integer(IP, 5)
        for m in range(6):
            row = reconstruct_row(c, m)
            row_counts = sample_row_endpoints(row, trials, RngStream(m))
            urn_counts = sample_endpoints(IP, m, COMPOSITE, trials, 1000 + m)
            tv = tv_distance(
                EmpiricalDistribution.from_counts(row_counts),
                EmpiricalDistribution.from_counts(urn_counts),
            )
            assert tv < 0.01
            # both samplers target the same exact row and pass the same cut
            for counts in (row_counts, urn_counts):
                statistic, dof = chi_square_statistic(
                    EmpiricalDistribution.from_counts(counts), row
                )
                assert statistic < chi_square_threshold(dof), (m, statistic)


class TestEmpiricalDistribution:
    def test_frequencies_sum_to_one(self):
        empirical = EmpiricalDistribution.from_counts(Counter({2: 5, 3: 15}))
        assert empirical.total == 20
        assert empirical.frequencies() == {2: F(1, 4), 3: F(3, 4)}
        assert sum(empirical.frequencies().values()) == 1

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution.from_counts({})
        with pytest.raises(ValueError):
            EmpiricalDistribution.from_counts({0: -1, 1: 2})


class TestPolynomials:
    def test_normalized_at_one_exactly(self):
        c = lu_coefficients_integer(IP, 100)
        values = evaluate_polynomials(c, 1, 100).values
        assert len(values) == 101
        assert all(value == 1 for value in values)

    def test_first_value_at_zero(self):
        c = lu_coefficients_integer(IP, 1)
        evaluation = evaluate_polynomials(c, F(0), 1)
        assert evaluation.values[0] == 1
        assert evaluation.values[1] == F(-3, 4)

    def test_leading_value_is_one_everywhere(self):
        c = lu_coefficients_integer(IP, 1)
        for x in (F(0), F(7, 3), F(-2), F(3, 4)):
            assert evaluate_polynomials(c, x, 0).values == (1,)
            # q_0 takes x's kind, as the later values do
            assert isinstance(evaluate_polynomials(c, x, 2).values[0], F)

    def test_recursion_residual_vanishes(self):
        # x q_n - (d_n q_{n-2} + c_n q_{n-1} + b_n q_n + a_n q_{n+1}) = 0
        c = lu_coefficients_integer(IP, 40)
        for x in (F(1), F(-1, 2), F(5, 7)):
            q = evaluate_polynomials(c, x, 40).values
            for n in range(40):
                row = reconstruct_row(c, n)
                acc = row.b * q[n] + row.a * q[n + 1]
                if n >= 1:
                    acc += row.c * q[n - 1]
                if n >= 2:
                    acc += row.d * q[n - 2]
                assert x * q[n] - acc == 0

    def test_float_route_matches_exact_route(self):
        ip = IntegerParameters(3, 2, 1)
        exact = evaluate_polynomials(lu_coefficients_integer(ip, 30), F(1, 2), 30)
        approx = evaluate_polynomials(
            lu_coefficients(Parameters(1 / 3, 1 / 2, 1.0), 30), 0.5, 30
        )
        for exact_value, float_value in zip(exact.values, approx.values):
            assert float_value == pytest.approx(float(exact_value), rel=1e-9)

    def test_insufficient_coefficients(self):
        c = lu_coefficients_integer(IP, 3)
        with pytest.raises(ValueError, match="insufficient"):
            evaluate_polynomials(c, 1, 10)
