from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnchain.coefficients import (
    IntegerParameters,
    ParameterError,
    Parameters,
    _formula_row,
    lu_coefficients,
    lu_coefficients_integer,
    reconstruct_row,
    validate_integer_parameters,
    validate_parameters,
)

F = Fraction
TOL = 1e-12


def random_valid_parameters(gen: np.random.Generator) -> Parameters:
    """Seeded draw from the valid region: all entries > -1 and the
    alpha/beta gap inside (-1, 1)."""
    while True:
        alpha = gen.uniform(-0.9, 3.0)
        beta = alpha + gen.uniform(-0.9, 0.9)
        if beta > -1:
            return Parameters(alpha, beta, gen.uniform(-0.9, 3.0))


class TestValidation:
    def test_accepts_valid_triple(self):
        assert validate_parameters(Parameters(0.5, 1 / 3, 0.0)) == ()

    def test_rejects_wide_alpha_beta_gap(self):
        violations = validate_parameters(Parameters(0.5, 2.0, 0.0))
        assert len(violations) == 1
        assert "|alpha - beta|" in violations[0]

    def test_rejects_boundary_alpha(self):
        violations = validate_parameters(Parameters(-1.0, 0.0, 0.0))
        assert any("alpha" in v for v in violations)

    def test_alpha_equal_beta_is_allowed(self):
        assert validate_parameters(Parameters(1.0, 1.0, 0.0)) == ()

    def test_integer_form(self):
        assert validate_integer_parameters(IntegerParameters(2, 3, 1)) == ()
        assert validate_integer_parameters(IntegerParameters(0, 3, 1))
        assert validate_integer_parameters(IntegerParameters(2, 3, -1))

    @pytest.mark.parametrize("triple", [(True, 2, 0), (2, True, 0), (2, 3, False)])
    def test_integer_form_rejects_bool(self, triple):
        violations = validate_integer_parameters(IntegerParameters(*triple))
        assert len(violations) == 1 and "must be an integer" in violations[0]

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_float(self, name, value):
        triple = {"alpha": 0.5, "beta": 0.3, "gamma": 1.0, name: value}
        violations = validate_parameters(Parameters(**triple))
        assert f"{name} must be finite (got {value})" in violations

    def test_huge_fraction_stays_valid(self):
        # math.isfinite would overflow converting this Fraction to a float
        assert validate_parameters(Parameters(F(1, 2), F(1, 3), F(10**400))) == ()

    def test_builders_reject_invalid(self):
        with pytest.raises(ParameterError):
            lu_coefficients(Parameters(0.5, 2.0, 0.0), 5)
        with pytest.raises(ParameterError):
            lu_coefficients_integer(IntegerParameters(2, 3, -1), 5)
        with pytest.raises(ParameterError):
            lu_coefficients(IntegerParameters(2, 3, -1), 5)
        with pytest.raises(TypeError, match="not Parameters"):
            lu_coefficients_integer(Parameters(F(1, 2), F(1, 3), F(1)), 5)

    def test_forced_invalid_gap_turns_a_t_negative(self):
        # alpha - beta = 1.5 violates the gate; bypassing it makes the
        # odd-index down-two weight negative, so the gate is necessary
        _, _, t, _, _ = _formula_row(Parameters(2.0, 0.5, 0.0), 3)
        assert t < 0


class TestGeneralFormulas:
    def test_first_birth_pair_at_alpha_beta_one(self):
        c = lu_coefficients(Parameters(1.0, 1.0, 0.0), 0)
        assert c.x[0] == pytest.approx(1 / 3, abs=1e-15)
        assert c.y[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_boundary_death_values(self):
        gen = np.random.default_rng(7)
        for _ in range(10):
            c = lu_coefficients(random_valid_parameters(gen), 3)
            assert c.s[0] == 1 and c.t[0] == 0 and c.r[0] == 0 and c.t[1] == 0
            # floats, not the ints 0 and 1, so JSON prints 0.0 like every other cell
            assert all(type(v) is float for v in (c.s[0], c.t[0], c.r[0], c.t[1]))
        exact = lu_coefficients(Parameters(F(1, 2), F(1, 3), F(1)), 3)
        assert all(type(v) is Fraction for v in (exact.s[0], exact.t[0], exact.r[0], exact.t[1]))

    def test_down_two_weight_worked_value(self):
        # hand evaluation at index 2: (1 + 1/6) / ((9/2) * (11/2)) = 14/297
        c = lu_coefficients(Parameters(0.5, 1 / 3, 1.0), 2)
        assert c.t[2] == pytest.approx(14 / 297, abs=1e-15)
        exact = lu_coefficients(Parameters(F(1, 2), F(1, 3), F(1)), 2)
        assert exact.t[2] == F(14, 297)

    def test_row_sums_and_bounds_random_parameters(self):
        gen = np.random.default_rng(13)
        for _ in range(5):
            c = lu_coefficients(random_valid_parameters(gen), 200)
            for n in range(201):
                assert abs(c.x[n] + c.y[n] - 1) <= TOL
                assert abs(c.t[n] + c.r[n] + c.s[n] - 1) <= TOL
                for seq in (c.x, c.y, c.t, c.r, c.s):
                    assert -TOL <= seq[n] <= 1 + TOL

    def test_degenerate_denominators_near_minus_one(self):
        # alpha + gamma = 0 zeroes the raw even denominators at n = 0;
        # the boundary values must still come out exactly
        c = lu_coefficients(Parameters(0.5, 0.2, -0.5), 4)
        assert c.t[0] == 0 and c.r[0] == 0 and c.s[0] == 1
        c = lu_coefficients(Parameters(-0.5, -0.5, -0.5), 4)
        assert c.t[1] == 0


class TestIntegerFormulas:
    def test_worked_example_values(self):
        c = lu_coefficients_integer(IntegerParameters(2, 3, 1), 2)
        assert (c.x[0], c.y[0]) == (F(4, 7), F(3, 7))
        assert (c.t[2], c.r[2], c.s[2]) == (F(14, 297), F(1369, 4752), F(117, 176))
        assert c.t[2] + c.r[2] + c.s[2] == 1

    def test_smallest_grid_point(self):
        c = lu_coefficients_integer(IntegerParameters(1, 1, 0), 1)
        assert (c.x[0], c.y[0]) == (F(1, 3), F(2, 3))
        assert (c.t[1], c.r[1], c.s[1]) == (0, F(1, 4), F(3, 4))
        assert c.x[1] == F(1, 2)

    def test_exact_stochasticity(self):
        c = lu_coefficients_integer(IntegerParameters(5, 2, 2), 200)
        for n in range(201):
            assert c.x[n] + c.y[n] == 1
            assert c.t[n] + c.r[n] + c.s[n] == 1
            for seq in (c.x, c.y, c.t, c.r, c.s):
                assert 0 <= seq[n] <= 1

    # the integer route reads the urn compositions, as the draw-tree
    # enumerator does; this ties both to the paper's general formulas
    @staticmethod
    def _check_matches_general(M, N, gamma, n):
        ip = IntegerParameters(M, N, gamma)
        direct = lu_coefficients_integer(ip, n)
        general = lu_coefficients(ip.as_parameters(), n)
        assert direct == general
        # the entry point takes the urn route for the integer form
        assert lu_coefficients(ip, n) == direct
        # an int 0 would print as the JSON number 0, not the string "0"
        for seq in (direct.x, direct.y, direct.t, direct.r, direct.s):
            assert all(type(v) is Fraction for v in seq)

    @pytest.mark.parametrize("M,N,gamma", [(1, 1, 0), (2, 3, 1), (5, 1, 2), (3, 5, 0)])
    def test_matches_general_formulas_exactly(self, M, N, gamma):
        self._check_matches_general(M, N, gamma, 60)

    @settings(deadline=None)
    @given(M=st.integers(1, 2**31), N=st.integers(1, 2**31), gamma=st.integers(0, 10))
    def test_matches_general_formulas_over_parameter_space(self, M, N, gamma):
        self._check_matches_general(M, N, gamma, 40)


class TestReconstructRow:
    def test_row_zero(self):
        c = lu_coefficients_integer(IntegerParameters(2, 3, 1), 0)
        row = reconstruct_row(c, 0)
        assert (row.a, row.b, row.c, row.d) == (F(4, 7), F(3, 7), None, None)
        assert sum(row.probabilities().values()) == 1

    def test_row_one_uses_single_down_product(self):
        c = lu_coefficients_integer(IntegerParameters(2, 3, 1), 1)
        row = reconstruct_row(c, 1)
        assert row.c == c.r[1] * c.y[0] == F(2, 21)
        assert row.d is None
        assert sum(row.probabilities().values()) == 1

    def test_down_two_entry(self):
        c = lu_coefficients_integer(IntegerParameters(2, 3, 1), 2)
        row = reconstruct_row(c, 2)
        assert row.d == c.t[2] * c.y[0] == F(2, 99)

    def test_rows_sum_to_one(self):
        c = lu_coefficients_integer(IntegerParameters(3, 2, 2), 50)
        for n in range(51):
            assert sum(reconstruct_row(c, n).probabilities().values()) == 1

    def test_out_of_range(self):
        c = lu_coefficients_integer(IntegerParameters(2, 3, 1), 3)
        with pytest.raises(IndexError):
            reconstruct_row(c, 4)

    def test_probabilities_map(self):
        c = lu_coefficients_integer(IntegerParameters(2, 3, 1), 5)
        probs = reconstruct_row(c, 4).probabilities()
        assert set(probs) == {2, 3, 4, 5}
        assert sum(probs.values()) == 1
