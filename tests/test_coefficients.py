import math
from fractions import Fraction
from types import SimpleNamespace

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


def old_text(triple: tuple, integer: bool = False) -> str:
    """The joined violations of the stochasticity check that ran apart
    from the constructors (``validate_parameters`` and, for the
    ``integer`` form, ``validate_integer_parameters``): the text a
    constructor must raise, empty when the triple is admissible."""
    violations = []
    if integer:
        for name, value in zip(("M", "N", "gamma"), triple):
            if not isinstance(value, int) or isinstance(value, bool):
                violations.append(f"{name} must be an integer (got {value!r})")
        if not violations:
            M, N, gamma = triple
            if M < 1:
                violations.append(f"M must be >= 1 (got {M})")
            if N < 1:
                violations.append(f"N must be >= 1 (got {N})")
            if gamma < 0:
                violations.append(f"gamma must be >= 0 (got {gamma})")
        return "; ".join(violations)
    for name, value in zip(("alpha", "beta", "gamma"), triple):
        if isinstance(value, float) and not math.isfinite(value):
            violations.append(f"{name} must be finite (got {value})")
        elif not value > -1:
            violations.append(f"{name} must be > -1 (got {value})")
    alpha, beta, _ = triple
    if not abs(alpha - beta) < 1:
        violations.append(f"|alpha - beta| must be < 1 (got {abs(alpha - beta)})")
    return "; ".join(violations)


def raised(build, *args, **kwargs) -> str:
    """The text of the ParameterError that ``build(*args, **kwargs)``
    raises, empty when it returns."""
    try:
        build(*args, **kwargs)
    except ParameterError as exc:
        return str(exc)
    return ""


class TestValidation:
    def test_accepts_valid_triple(self):
        assert Parameters(0.5, 1 / 3, 0.0) == (0.5, 1 / 3, 0.0)

    def test_rejects_wide_alpha_beta_gap(self):
        assert raised(Parameters, 0.5, 2.0, 0.0) == "|alpha - beta| must be < 1 (got 1.5)"

    def test_rejects_boundary_alpha(self):
        assert raised(Parameters, -1.0, 0.0, 0.0) == (
            "alpha must be > -1 (got -1.0); |alpha - beta| must be < 1 (got 1.0)"
        )

    def test_alpha_equal_beta_is_allowed(self):
        assert Parameters(1.0, 1.0, 0.0).alpha == 1.0

    def test_integer_form(self):
        assert IntegerParameters(2, 3, 1) == (2, 3, 1)
        assert raised(IntegerParameters, 0, 3, 1) == "M must be >= 1 (got 0)"
        assert raised(IntegerParameters, 2, 3, -1) == "gamma must be >= 0 (got -1)"

    @pytest.mark.parametrize("triple", [(True, 2, 0), (2, True, 0), (2, 3, False)])
    def test_integer_form_rejects_bool(self, triple):
        at = [type(value) for value in triple].index(bool)
        assert raised(IntegerParameters, *triple) == (
            f"{('M', 'N', 'gamma')[at]} must be an integer (got {triple[at]!r})"
        )

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_float(self, name, value):
        triple = {"alpha": 0.5, "beta": 0.3, "gamma": 1.0, name: value}
        assert f"{name} must be finite (got {value})" in raised(Parameters, **triple).split("; ")

    def test_huge_fraction_stays_valid(self):
        # math.isfinite would overflow converting this Fraction to a float
        assert Parameters(F(1, 2), F(1, 3), F(10**400)).gamma == 10**400

    def test_builders_reject_invalid(self):
        # no builder can be handed an invalid triple: building it raises
        with pytest.raises(ParameterError):
            lu_coefficients(Parameters(0.5, 2.0, 0.0), 5)
        with pytest.raises(ParameterError):
            lu_coefficients_integer(IntegerParameters(2, 3, -1), 5)
        with pytest.raises(ParameterError):
            lu_coefficients(IntegerParameters(2, 3, -1), 5)
        with pytest.raises(TypeError, match="not Parameters"):
            lu_coefficients_integer(Parameters(F(1, 2), F(1, 3), F(1)), 5)

    def test_forced_invalid_gap_turns_a_t_negative(self):
        # alpha - beta = 1.5 violates the gate; reaching the formulas past
        # it makes the odd-index down-two weight negative, so the gate is
        # necessary
        _, _, t, _, _ = _formula_row(SimpleNamespace(alpha=2.0, beta=0.5, gamma=0.0), 3)
        assert t < 0


# each form's scalars, the admissible region's edges and non-finite values
# included; a triple holds one type
FLOAT_TRIPLES = st.tuples(
    *[st.floats(-3, 3) | st.floats() | st.sampled_from([-1.0, 0.0, 1.0])] * 3
)
FRACTION_TRIPLES = st.tuples(
    *[st.fractions(-3, 3, max_denominator=12) | st.sampled_from([F(10**400), F(-(10**400))])] * 3
)
INTEGER_TRIPLES = st.tuples(
    *[st.integers(-2, 4) | st.booleans() | st.sampled_from([10**400, -(10**400)])] * 3
)


class TestConstructors:
    """Each form checks its fields when a triple is built, with the text
    of the check it replaces, on every path that builds one."""

    @settings(max_examples=300)
    @given(FLOAT_TRIPLES | FRACTION_TRIPLES)
    def test_general_form_is_built_exactly_on_the_admissible_region(self, triple):
        alpha, beta, _ = triple
        admissible = all(-1 < v < math.inf for v in triple) and abs(alpha - beta) < 1
        text = raised(Parameters, *triple)
        assert (text == "") == admissible
        assert text == old_text(triple)
        if admissible:
            assert Parameters(*triple) == triple

    @settings(max_examples=300)
    @given(INTEGER_TRIPLES)
    def test_integer_form_is_built_exactly_on_the_admissible_region(self, triple):
        M, N, gamma = triple
        admissible = all(type(v) is int for v in triple) and M >= 1 and N >= 1 and gamma >= 0
        text = raised(IntegerParameters, *triple)
        assert (text == "") == admissible
        assert text == old_text(triple, integer=True)

    @pytest.mark.parametrize("triple, text", [
        ((-1.0, 0.0, 0.0), "alpha must be > -1 (got -1.0); |alpha - beta| must be < 1 (got 1.0)"),
        ((0.0, -1.5, 0.0), "beta must be > -1 (got -1.5); |alpha - beta| must be < 1 (got 1.5)"),
        ((0.0, 0.0, -2.0), "gamma must be > -1 (got -2.0)"),
        ((2.0, 0.5, 0.0), "|alpha - beta| must be < 1 (got 1.5)"),
        ((float("nan"), 0.3, 1.0),
         "alpha must be finite (got nan); |alpha - beta| must be < 1 (got nan)"),
        ((-2.0, 0.5, -3.0),
         "alpha must be > -1 (got -2.0); gamma must be > -1 (got -3.0); "
         "|alpha - beta| must be < 1 (got 2.5)"),
        ((F(-1), F(0), F(10**400)),
         "alpha must be > -1 (got -1); |alpha - beta| must be < 1 (got 1)"),
    ])
    def test_general_form_names_every_violation(self, triple, text):
        assert raised(Parameters, *triple) == text

    @pytest.mark.parametrize("triple, text", [
        ((0, 3, 1), "M must be >= 1 (got 0)"),
        ((0, 0, -1),
         "M must be >= 1 (got 0); N must be >= 1 (got 0); gamma must be >= 0 (got -1)"),
        # the int checks come first: no bound is named while one fails
        ((-2, 2.0, -1), "N must be an integer (got 2.0)"),
        ((True, 3, False), "M must be an integer (got True); gamma must be an integer (got False)"),
    ])
    def test_integer_form_names_every_violation(self, triple, text):
        assert raised(IntegerParameters, *triple) == text

    def test_replace_and_make_check_as_the_constructor(self):
        p = Parameters(0.5, 0.3, 1.0)
        assert raised(p._replace, gamma=-5) == "gamma must be > -1 (got -5)"
        assert raised(Parameters._make, (0.5, 2.0, 0.0)) == "|alpha - beta| must be < 1 (got 1.5)"
        ip = IntegerParameters(2, 3, 1)
        assert raised(ip._replace, M=0) == "M must be >= 1 (got 0)"
        assert raised(IntegerParameters._make, (2, 3, -1)) == "gamma must be >= 0 (got -1)"
        # and still build the admissible triples, as their own type
        assert type(p._replace(gamma=2.0)) is Parameters
        assert IntegerParameters._make((2, 3, 4)) == ip._replace(gamma=4) == (2, 3, 4)


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
