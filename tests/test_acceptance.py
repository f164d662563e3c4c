"""Acceptance suite: one test per criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (visible with
``pytest -s``)."""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from urnchain.analysis import (
    EmpiricalDistribution,
    chi_square_statistic,
    chi_square_threshold,
    evaluate_polynomials,
    tv_distance,
)
from urnchain.banded import birth_factor, death_factor, multiply, reconstructed_matrix
from urnchain.cli import main
from urnchain.coefficients import (
    IntegerParameters,
    Parameters,
    _death_triple,
    lu_coefficients,
    lu_coefficients_integer,
    reconstruct_row,
    urn_slots,
    validate_parameters,
)
from urnchain.urns import COMPOSITE, enumerate_step_distribution, sample_endpoints

F = Fraction

GRID = [
    IntegerParameters(M, N, gamma)
    for M in (1, 2, 3, 5)
    for N in (1, 2, 3, 5)
    for gamma in (0, 1, 2)
]
WORKED = IntegerParameters(2, 3, 1)
SEED = 0x4A50


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_exact_lu_identity():
    with criterion(1, "P_L*P_U equals the reconstructed chain exactly, T=200, full grid"):
        start = time.perf_counter()
        for ip in GRID:
            coeffs = lu_coefficients_integer(ip, 199)
            product = multiply(death_factor(coeffs, 200), birth_factor(coeffs, 200))
            direct = reconstructed_matrix(coeffs, 200)
            for i in range(198):
                assert product.row_entries(i) == direct.row_entries(i), (ip, i)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_stochasticity():
    with criterion(2, "row sums 1 and coefficients in [0,1]: exact on grid, 1e-12 for random reals"):
        for ip in GRID:
            c = lu_coefficients_integer(ip, 200)
            for n in range(201):
                assert c.x[n] + c.y[n] == 1
                assert c.t[n] + c.r[n] + c.s[n] == 1
                for seq in (c.x, c.y, c.t, c.r, c.s):
                    assert 0 <= seq[n] <= 1
        gen = np.random.default_rng(SEED)
        drawn = 0
        while drawn < 20:
            alpha = gen.uniform(-0.95, 3.0)
            beta = alpha + gen.uniform(-0.95, 0.95)
            gamma = gen.uniform(-0.95, 3.0)
            params = Parameters(alpha, beta, gamma)
            if validate_parameters(params):
                continue
            drawn += 1
            c = lu_coefficients(params, 200)
            for n in range(201):
                assert abs(c.x[n] + c.y[n] - 1) <= 1e-12
                assert abs(c.t[n] + c.r[n] + c.s[n] - 1) <= 1e-12
                for seq in (c.x, c.y, c.t, c.r, c.s):
                    assert -1e-12 <= seq[n] <= 1 + 1e-12


def test_criterion_3_specialization_consistency():
    with criterion(3, "general formulas at alpha=1/M, beta=1/N equal the integer forms exactly"):
        for ip in GRID:
            direct = lu_coefficients_integer(ip, 200)
            general = lu_coefficients(ip.as_parameters(), 200)
            assert direct == general, ip


def test_criterion_4_urn_mechanics_oracle():
    with criterion(4, "draw-tree enumeration reproduces the closed-form coefficients, m<=200"):
        for ip in GRID:
            c = lu_coefficients_integer(ip, 200)
            for m in range(201):
                death = enumerate_step_distribution(ip, m, 1)
                assert sum(death.values()) == 1
                assert death.get(m - 2, 0) == (c.t[m] if m >= 2 else 0)
                assert death.get(m - 1, 0) == (c.r[m] if m >= 1 else 0)
                assert death[m] == (c.s[m] if m >= 1 else 1)
                birth = enumerate_step_distribution(ip, m, 2)
                assert birth == {m + 1: c.x[m], m: c.y[m]}
            # state 1 uses the dedicated single-urn procedure
            M, gamma = ip.M, ip.gamma
            assert enumerate_step_distribution(ip, 1, 1) == {
                0: F(M, M * gamma + 3 * M + 1),
                1: F(M * gamma + 2 * M + 1, M * gamma + 3 * M + 1),
            }


def test_criterion_5_worked_example_lock_in():
    with criterion(5, "worked example (M=2, N=3, gamma=1) at m=2: urns, law, and d_2"):
        urn_a, urn_r, urn_b = urn_slots(WORKED, 2)[1:]  # (blue, total)
        assert urn_a == (2, 11)
        assert urn_r == (3, 16)
        assert urn_b == (7, 27)
        law = enumerate_step_distribution(WORKED, 2, 1)
        assert law == {0: F(14, 297), 1: F(1369, 4752), 2: F(117, 176)}
        assert sum(law.values()) == 1
        c = lu_coefficients_integer(WORKED, 2)
        assert reconstruct_row(c, 2).d == F(2, 99)


def test_criterion_6_monte_carlo_agreement():
    with criterion(6, "seeded 1e5-trial composite steps match exact rows (TV < 0.01, chi2 < q999)"):
        start = time.perf_counter()
        coeffs = lu_coefficients_integer(WORKED, 5)
        for m in range(6):
            counts = sample_endpoints(
                WORKED, m, COMPOSITE, 100000, SEED, stream_offset=m << 20
            )
            row = reconstruct_row(coeffs, m)
            empirical = EmpiricalDistribution.from_counts(counts)
            assert tv_distance(empirical, row) < 0.01, m
            statistic, dof = chi_square_statistic(empirical, row)
            assert statistic < chi_square_threshold(dof), (m, statistic)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_7_polynomial_normalization():
    with criterion(7, "q_n(1) = 1 exactly for n <= 100 on the grid; q_1(0) = -b_0/a_0"):
        for ip in GRID:
            c = lu_coefficients_integer(ip, 100)
            assert all(value == 1 for value in evaluate_polynomials(c, 1, 100).values)
        c = lu_coefficients_integer(WORKED, 1)
        assert evaluate_polynomials(c, F(0), 1).values[1] == F(-3, 4)


def test_criterion_8_validator_correctness():
    with criterion(8, "invalid parameters are rejected; the gap gate prevents negative weights"):
        assert validate_parameters(Parameters(-1.0, 0.0, 0.0))
        assert validate_parameters(Parameters(0.0, -1.5, 0.0))
        assert validate_parameters(Parameters(0.0, 0.0, -2.0))
        assert validate_parameters(Parameters(2.0, 0.5, 0.0))
        # forcing computation past the gate yields a negative down-two weight
        t_odd, _, _ = _death_triple(Parameters(2.0, 0.5, 0.0), 3)
        assert t_odd < 0
        assert validate_parameters(Parameters(0.5, 1 / 3, 0.0)) == ()


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "identical seeds give byte-identical CLI output across 1 and 8 threads"):
        outputs = {}
        for command, extra in (
            ("simulate", ["--aggregate", "--initial", "4", "--trials", "100000"]),
            ("compare", ["--initial", "2", "--initial", "5", "--trials", "50000"]),
        ):
            for threads in ("1", "8"):
                path = tmp_path / f"{command}-{threads}.csv"
                code = main(
                    [command, "--M", "2", "--N", "3", "--gamma", "1", "--seed", str(SEED),
                     "--threads", threads, "--output", str(path), *extra]
                )
                assert code == 0
                outputs[(command, threads)] = path.read_bytes()
            assert outputs[(command, "1")] == outputs[(command, "8")], command
        capsys.readouterr()
