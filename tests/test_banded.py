import copy
import math
import pickle
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import build, identity, to_dense

from urnchain import banded
from urnchain.banded import (
    BandedMatrix,
    birth_factor,
    death_factor,
    multiply,
    reconstructed_matrix,
    verify_factorization,
    verify_lu,
)
from urnchain.coefficients import (
    IntegerParameters,
    LUCoefficients,
    Parameters,
    lu_coefficients,
    lu_coefficients_integer,
    reconstruct_row,
)

F = Fraction
IP = IntegerParameters(2, 3, 1)


def random_banded(gen: np.random.Generator, size: int, lower: int, upper: int) -> BandedMatrix:
    entries = {
        (i, j): F(int(gen.integers(-9, 10)), int(gen.integers(1, 10)))
        for i in range(size)
        for j in range(max(0, i - lower), min(size, i + upper + 1))
    }
    return build(size, lower, upper, lambda i, j: entries[(i, j)])


@st.composite
def banded_pairs(draw):
    """Two matrices of one size (1..8) and one scalar kind, Fraction or
    float, each with lower and upper bandwidths 0..3, so bands wider than
    the matrix occur; band values past the edges must be stored as 0."""
    size = draw(st.integers(1, 8))
    values = draw(st.sampled_from([
        st.fractions(-9, 9, max_denominator=9),
        st.floats(-1e20, 1e20, allow_nan=False, allow_infinity=False),
    ]))

    def matrix():
        lower, upper = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        band = st.lists(values, min_size=lower + upper + 1, max_size=lower + upper + 1)
        rows = draw(st.lists(band, min_size=size, max_size=size))
        return BandedMatrix(size, lower, upper, rows)

    return matrix(), matrix()


def total(values):
    """Sum from int 0, left to right."""
    out = 0
    for value in values:
        out += value
    return out


def dense_product(left, right):
    """Triple-loop product of two dense square matrices."""
    size = len(left)
    return [[total(left[i][k] * right[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


@st.composite
def coefficient_tuples(draw):
    """Coefficients for sizes 1..8, all Fraction, all float, or Fraction
    with floats allowed at t_0, r_0, t_1 and x_{size-1}, where the
    factors store 0 and so the product stays exact.  Any finite values:
    not necessarily stochastic, and floats large enough that products
    overflow to infinity and differences of them to NaN."""
    size = draw(st.integers(1, 8))
    fractions = st.fractions(-10, 10, max_denominator=100)
    floats = st.floats(allow_nan=False, allow_infinity=False)
    family = draw(st.sampled_from(["fraction", "float", "mixed"]))
    values = floats if family == "float" else fractions
    x, y, t, r, s = (draw(st.lists(values, min_size=size, max_size=size)) for _ in range(5))
    if family == "mixed":
        for seq, n in ((t, 0), (r, 0), (t, 1), (x, size - 1)):
            if n < size:
                seq[n] = draw(fractions | floats)
    return LUCoefficients(*map(tuple, (x, y, t, r, s))), size


def worst(deviations):
    """The first NaN, else the largest of 0 and the deviations."""
    nans = [dev for dev in deviations if dev != dev]
    return nans[0] if nans else max([0, *deviations])


def dense_checks(c: LUCoefficients, size: int) -> dict:
    """Check name -> (passed, deviation), read off dense views of the two
    factors, their triple-loop product and the direct chain, at the
    tolerance of the product's kind."""
    lower, upper = to_dense(death_factor(c, size)), to_dense(birth_factor(c, size))
    product = dense_product(lower, upper)
    direct = to_dense(reconstructed_matrix(c, size))
    x, y, t, r, s = (seq[:size] for seq in (c.x, c.y, c.t, c.r, c.s))
    deviations = {
        "coefficient_row_sums": [abs(x[n] + y[n] - 1) for n in range(size)]
        + [abs(t[n] + r[n] + s[n] - 1) for n in range(size)],
        "coefficient_bounds": [-v for seq in (x, y, t, r, s) for v in seq]
        + [v - 1 for seq in (x, y, t, r, s) for v in seq],
        "boundary_values": [abs(t[0]), abs(r[0]), abs(s[0] - 1)] + [abs(v) for v in t[1:2]],
        # the birth factor's last row loses x over the edge
        "factor_row_sums": [abs(total(row) - 1) for row in lower + upper[:-1]],
        # the last two rows reach past the truncation
        "lu_identity": [abs(product[i][j] - direct[i][j])
                        for i in range(size - 2) for j in range(size)],
        "product_row_sums": [abs(total(row) - 1) for row in product[:-1]],
    }
    # the report's kind is the product's: floats the factors zero leave it exact
    floats = any(isinstance(value, float) for row in product for value in row)
    tolerance = 1e-12 if floats else 0
    out = {"band_structure": (True, 0.0)}
    for name, devs in deviations.items():
        dev = worst(devs)
        out[name] = (math.isfinite(float(dev)) and dev <= tolerance, float(dev))
    return out


class TestBandedMatrix:
    def test_entry_and_band_zeros(self):
        m = random_banded(np.random.default_rng(0), 5, 1, 1)
        dense = to_dense(m)
        assert dense[0][3] == 0
        assert dense[4][1] == 0

    def test_constructor_zeroes_columns_outside_the_matrix(self):
        m = BandedMatrix(2, 2, 1, [(1, 2, 3, 4), (5, 6, 7, 8), (9, 9, 9, 9)])
        assert m.rows == ((0, 0, 3, 4), (0, 6, 7, 0))
        assert to_dense(m) == [[3, 4], [6, 7]]

    def test_constructor_rejects_bad_sizes(self):
        c = lu_coefficients_integer(IP, 3)
        for build_factor in (death_factor, birth_factor, reconstructed_matrix):
            with pytest.raises(ValueError, match="size must be >= 1"):
                build_factor(c, 0)
        with pytest.raises(ValueError, match="2 band rows for a 3x3 matrix"):
            BandedMatrix(3, 0, 0, [(1,), (1,)])

    @given(banded_pairs(), st.data())
    def test_make_replace_copy_and_pickle_build_through_the_constructor(self, pair, data):
        m = pair[0]
        assert m._make(m) == m
        assert copy.copy(m) == m
        assert pickle.loads(pickle.dumps(m)) == m
        # a smaller size keeps the leading block, its edge zeroed as built
        k = data.draw(st.integers(1, m.size))
        block = m._replace(size=k)
        assert block == BandedMatrix(k, m.lower_bandwidth, m.upper_bandwidth, m.rows)
        assert to_dense(block) == [row[:k] for row in to_dense(m)[:k]]

    def test_scalar_kind(self):
        assert identity(3).scalar_kind() == "int"
        assert random_banded(np.random.default_rng(2), 3, 1, 0).scalar_kind() == "exact"
        f = build(3, 0, 0, lambda i, j: 0.5)
        assert f.scalar_kind() == "float"

    def test_product_takes_the_kind_a_scan_finds(self):
        gen = np.random.default_rng(7)
        ints, exact = identity(4), random_banded(gen, 4, 1, 1)
        floats = build(4, 2, 0, lambda i, j: 0.5)
        for a, b, kind in [(ints, ints, "int"), (ints, exact, "exact"), (exact, ints, "exact"),
                           (exact, exact, "exact"), (ints, floats, "float"),
                           (floats, ints, "float"), (floats, floats, "float")]:
            assert multiply(a, b).scalar_kind() == kind

    def test_kind_mismatch_rejected(self):
        exact = random_banded(np.random.default_rng(3), 3, 1, 0)
        floats = build(3, 0, 0, lambda i, j: 0.5)
        with pytest.raises(ValueError, match="kind"):
            multiply(exact, floats)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            multiply(identity(3), identity(4))


class TestMultiply:
    def test_identity_is_neutral(self):
        m = random_banded(np.random.default_rng(4), 6, 2, 1)
        assert to_dense(multiply(identity(6), m)) == to_dense(m)
        assert to_dense(multiply(m, identity(6))) == to_dense(m)

    def test_bandwidths_add(self):
        a = random_banded(np.random.default_rng(5), 6, 1, 0)
        b = random_banded(np.random.default_rng(6), 6, 0, 2)
        product = multiply(a, b)
        assert (product.lower_bandwidth, product.upper_bandwidth) == (1, 2)

    @given(banded_pairs())
    def test_matches_dense_product(self, pair):
        # each entry summed from int 0 in ascending k: float rounding
        # matches only when the banded product adds its terms in that order
        a, b = pair
        assert to_dense(multiply(a, b)) == dense_product(to_dense(a), to_dense(b))

    def test_associative_on_random_triples(self):
        gen = np.random.default_rng(8)
        for _ in range(3):
            a = random_banded(gen, 6, 1, 1)
            b = random_banded(gen, 6, 2, 0)
            c = random_banded(gen, 6, 0, 1)
            left = multiply(multiply(a, b), c)
            right = multiply(a, multiply(b, c))
            assert to_dense(left) == to_dense(right)


class TestFactors:
    def test_death_factor_smallest_truncation(self):
        c = lu_coefficients_integer(IP, 0)
        assert to_dense(death_factor(c, 1)) == [[1]]

    def test_death_factor_row_two(self):
        c = lu_coefficients_integer(IP, 2)
        m = death_factor(c, 3)
        assert m.rows[2] == (F(14, 297), F(1369, 4752), F(117, 176))  # columns 0, 1, 2
        assert (m.lower_bandwidth, m.upper_bandwidth) == (2, 0)

    def test_death_factor_rows_sum_to_one(self):
        c = lu_coefficients_integer(IntegerParameters(5, 3, 2), 49)
        m = death_factor(c, 50)
        assert all(sum(m.rows[i]) == 1 for i in range(50))

    def test_birth_factor_rows(self):
        c = lu_coefficients_integer(IP, 2)
        m = birth_factor(c, 3)
        assert m.rows[0] == (F(3, 7), F(4, 7))  # columns 0, 1
        assert all(sum(m.rows[i]) == 1 for i in range(2))

    def test_birth_factor_smallest_grid_point(self):
        c = lu_coefficients_integer(IntegerParameters(1, 1, 0), 1)
        m = birth_factor(c, 2)
        assert m.rows[0] == (F(2, 3), F(1, 3))  # columns 0, 1

    def test_insufficient_coefficients(self):
        c = lu_coefficients_integer(IP, 3)
        with pytest.raises(ValueError, match="insufficient"):
            death_factor(c, 5)

    def test_short_table_raises_the_same_error_in_every_builder(self):
        # the constructor is the one check, so reconstructed_matrix raises it too
        # rather than an IndexError from reconstruct_row
        c = lu_coefficients_integer(IP, 3)
        for build_factor in (death_factor, birth_factor, reconstructed_matrix):
            with pytest.raises(ValueError, match=r"^insufficient rows: 4 band rows for a 5x5 matrix$"):
                build_factor(c, 5)

    def test_product_row_two_down_two_entry(self):
        c = lu_coefficients_integer(IP, 4)
        product = multiply(death_factor(c, 5), birth_factor(c, 5))
        assert to_dense(product)[2][0] == F(2, 99)

    def test_product_interior_rows_sum_to_one(self):
        c = lu_coefficients_integer(IP, 49)
        product = multiply(death_factor(c, 50), birth_factor(c, 50))
        assert all(sum(product.rows[i]) == 1 for i in range(49))

    def test_reconstructed_matrix_matches_rows(self):
        c = lu_coefficients_integer(IP, 9)
        dense = to_dense(reconstructed_matrix(c, 10))
        for n in range(10):
            probs = reconstruct_row(c, n).probabilities()
            for j, value in enumerate(dense[n]):
                assert value == probs.get(j, 0)


class TestVerify:
    def test_exact_run_passes_with_zero_deviation(self):
        report = verify_lu(IP, 100)
        assert report.passed and report.kind == "exact" and report.tolerance == 0
        assert max(check.deviation for check in report.checks) == 0

    def test_float_run_passes_within_tolerance(self):
        report = verify_lu(Parameters(0.9, 0.1, 0.5), 100)
        assert report.passed and report.kind == "float" and report.tolerance == 1e-12

    def test_smallest_grid_point(self):
        assert verify_lu(IntegerParameters(1, 1, 0), 10).passed

    def test_report_dict_shape(self):
        payload = verify_lu(IP, 20).to_dict()
        assert payload["passed"] is True
        assert {check["name"] for check in payload["checks"]} >= {
            "lu_identity",
            "band_structure",
            "product_row_sums",
        }

    def test_nan_coefficient_fails_every_check_that_reads_it(self):
        c = lu_coefficients(Parameters(0.5, 0.3, 1.0), 19)
        x = list(c.x)
        x[5] = float("nan")
        report = verify_factorization(LUCoefficients(tuple(x), c.y, c.t, c.r, c.s), 20)
        failed = {check.name for check in report.checks if not check.passed}
        assert failed == {
            "coefficient_row_sums", "coefficient_bounds", "factor_row_sums",
            "lu_identity", "product_row_sums",
        }
        assert not report.passed

    @pytest.mark.parametrize("size", [1, 2])
    def test_no_rows_compared_below_three_states(self, size):
        # the last two rows are never compared, so T <= 2 compares none
        for params in (IP, Parameters(0.9, 0.1, 0.5)):
            check = {c.name: c for c in verify_lu(params, size).checks}["lu_identity"]
            assert check.passed and check.deviation == 0
            assert check.detail == "product vs direct: no rows compared"
        check = {c.name: c for c in verify_lu(IP, 3).checks}["lu_identity"]
        assert check.detail == "product vs direct rows 0..0"

    @given(coefficient_tuples())
    def test_every_check_matches_a_dense_reference(self, case):
        c, size = case
        report = verify_factorization(c, size)
        expected = dense_checks(c, size)
        assert [check.name for check in report.checks] == [
            "coefficient_row_sums", "coefficient_bounds", "boundary_values",
            "band_structure", "factor_row_sums", "lu_identity", "product_row_sums",
        ]
        for check in report.checks:
            passed, deviation = expected[check.name]
            # repr, since NaN (from infinities that cancel) equals nothing
            assert (check.passed, repr(check.deviation)) == (passed, repr(deviation)), check.name

    def test_builders_are_called_through_the_module(self, monkeypatch):
        # the benchmark's tracer times each of these by swapping the name
        # in this module: verify must look them up there, once each
        calls = Counter()
        names = ("death_factor", "birth_factor", "multiply", "reconstructed_matrix")
        for name in names:
            def counting(*args, name=name, original=getattr(banded, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(banded, name, counting)
        verify_lu(IP, 10)
        assert calls == Counter(names)

    def test_each_factor_entry_is_scanned_once_for_its_kind(self, monkeypatch):
        # multiply scans the 3 + 2 band entries a row of its factors once,
        # and verify the 4 of the product's
        scanned = []

        class Counting(type):
            def __instancecheck__(cls, value):
                scanned.append(value)
                return isinstance(value, F)

        monkeypatch.setattr(banded, "Fraction", Counting("Fraction", (), {}))
        report = verify_lu(IP, 30)
        assert (report.kind, report.passed) == ("exact", True)
        assert len(scanned) == 30 * (3 + 2 + 4)

    def test_exact_failures_keep_their_fraction_deviation(self):
        # s_7 + 1/1000 and x_11 - 1/999: each failing check reports its
        # Fraction deviation rounded once, 1/999 and 1/1000
        c = lu_coefficients_integer(IP, 19)
        s, x = list(c.s), list(c.x)
        s[7] += F(1, 1000)
        x[11] -= F(1, 999)
        perturbed = LUCoefficients(tuple(x), c.y, c.t, c.r, tuple(s))
        report = verify_factorization(perturbed, 20)
        failed = {check.name: (check.deviation, check.passed)
                  for check in report.checks if not check.passed}
        assert failed == {
            "coefficient_row_sums": (0.001001001001001001, False),
            "factor_row_sums": (0.001001001001001001, False),
            "product_row_sums": (0.001, False),
        }
        # y_3 + 10**-400: the deviation rounds to 0.0 but is compared exactly
        y = list(c.y)
        y[3] += F(1, 10**400)
        report = verify_factorization(LUCoefficients(c.x, tuple(y), c.t, c.r, c.s), 20)
        assert [(check.name, check.deviation) for check in report.checks if not check.passed] == [
            ("coefficient_row_sums", 0.0), ("factor_row_sums", 0.0), ("product_row_sums", 0.0),
        ]

    @given(coefficient_tuples())
    def test_tolerance_is_the_kinds_constant(self, case):
        report = verify_factorization(*case)
        assert report.tolerance == (1e-12 if report.kind == "float" else 0)

    def test_passing_exact_entries_build_no_fraction_deviation(self, monkeypatch):
        # an exact entry whose deviation is 0 is settled on integers; only
        # boundary_values still subtracts and takes abs, a fixed number of times
        calls = Counter()
        for name in ("__sub__", "__rsub__", "__abs__"):
            def counting(*args, name=name, original=getattr(F, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(F, name, counting)
        counts = []
        for size in (50, 400):
            calls.clear()
            assert verify_lu(IP, size).passed
            counts.append(sum(calls.values()))
        assert counts[0] == counts[1]
