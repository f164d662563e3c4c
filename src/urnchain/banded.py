"""Finite truncations of semi-infinite banded stochastic matrices.

Builds the pure-death factor (lower bandwidth 2), the pure-birth factor
(upper bandwidth 1) and the pentadiagonal composite chain from their band
rows (the coefficient tuples and :func:`reconstruct_row`), multiplies
banded truncations row by row, and cross-checks that the factor product
equals the directly reconstructed chain.

Truncating a semi-infinite matrix loses mass off the right edge in the
last ``upper_bandwidth`` rows.  The row-sum checks leave those rows out;
they are never renormalized, since that would silently change the chain.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .coefficients import (
    IntegerParameters,
    LUCoefficients,
    Parameters,
    Scalar,
    lu_coefficients,
    reconstruct_row,
)


class BandedMatrix(NamedTuple("BandedMatrix", [
    ("size", int), ("lower_bandwidth", int), ("upper_bandwidth", int), ("rows", tuple),
])):
    """Dense-in-band storage of a square banded matrix.

    ``rows[i][k]`` holds entry (i, i - lower_bandwidth + k); positions
    whose column falls outside [0, size) are stored as zero and are
    structurally zero outside the band.  :meth:`from_rows` builds one
    from the band of each row.
    """

    __slots__ = ()

    @classmethod
    def from_rows(
        cls, size: int, lower_bandwidth: int, upper_bandwidth: int,
        band_rows: Iterable[Sequence[Scalar]],
    ) -> "BandedMatrix":
        """Construct from the first ``size`` >= 1 band rows and bandwidths
        >= 0: row i gives its lower + upper + 1 values at columns i - lower
        .. i + upper, and those outside [0, size) are stored as 0.  The band
        builders' one check that a coefficient table covers the size."""
        if size < 1:
            raise ValueError(f"size must be >= 1 (got {size})")
        if min(lower_bandwidth, upper_bandwidth) < 0:
            raise ValueError(f"bandwidths must be >= 0 (got {lower_bandwidth}, {upper_bandwidth})")
        rows = [tuple(band) for band in islice(band_rows, size)]
        if len(rows) < size:
            raise ValueError(f"insufficient rows: {len(rows)} band rows for a {size}x{size} matrix")
        width = lower_bandwidth + upper_bandwidth + 1
        if set(map(len, rows)) != {width}:
            raise ValueError(f"band rows must hold {width} values (lower + upper + 1)")
        # only the first lower and last upper rows reach past an edge
        for i in {*range(min(lower_bandwidth, size)), *range(max(size - upper_bandwidth, 0), size)}:
            first = i - lower_bandwidth
            rows[i] = tuple(v if 0 <= first + k < size else 0 for k, v in enumerate(rows[i]))
        return cls(size, lower_bandwidth, upper_bandwidth, tuple(rows))

    def scalar_kind(self) -> str:
        """'float' / 'exact' (contains Fraction) / 'int' (ints only),
        from one scan of the entries."""
        has_float = has_fraction = False
        for row in self.rows:
            for value in row:
                if isinstance(value, float):
                    has_float = True
                elif isinstance(value, Fraction):
                    has_fraction = True
        if has_float and has_fraction:
            raise ValueError("matrix mixes float and Fraction entries")
        return "float" if has_float else "exact" if has_fraction else "int"


def multiply(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """Banded product; bandwidths add.  Exact when both factors are.
    Each entry starts at its first term and adds the others in ascending
    k; an entry with no term is int 0."""
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    kinds = {a.scalar_kind(), b.scalar_kind()}
    if "float" in kinds and "exact" in kinds:
        raise ValueError("scalar kind mismatch: cannot multiply float and exact matrices")
    lower = a.lower_bandwidth + b.lower_bandwidth
    upper = a.upper_bandwidth + b.upper_bandwidth
    size, b_rows = a.size, b.rows
    rows = []
    for i, left_row in enumerate(a.rows):
        band = [0] * (lower + upper + 1)
        end = 0  # band[:end] holds a term
        for k, left in enumerate(left_row, i - a.lower_bandwidth):
            if 0 <= k < size:
                # b's row k lands on band positions k - i + a.lower_bandwidth
                # on; its padding lands past the edges, which from_rows zeroes
                for position, right in enumerate(b_rows[k], k - i + a.lower_bandwidth):
                    term = left * right
                    band[position] = band[position] + term if position < end else term
                end = position + 1
        rows.append(band)
    return BandedMatrix.from_rows(size, lower, upper, rows)


def death_factor(c: LUCoefficients, size: int) -> BandedMatrix:
    """Pure-death factor: row n holds (t_n, r_n, s_n) at columns
    n-2, n-1, n; row 0 is the absorbing row (s_0 = 1)."""
    return BandedMatrix.from_rows(size, 2, 0, zip(c.t, c.r, c.s))


def birth_factor(c: LUCoefficients, size: int) -> BandedMatrix:
    """Pure-birth factor: row n holds (y_n, x_n) at columns n, n+1.
    The last row loses x over the truncation edge and is non-interior."""
    return BandedMatrix.from_rows(size, 0, 1, zip(c.y, c.x))


def reconstructed_matrix(c: LUCoefficients, size: int) -> BandedMatrix:
    """Pentadiagonal composite chain assembled row by row from
    :func:`reconstruct_row` (lower bandwidth 2, upper 1)."""
    rows = (reconstruct_row(c, n) for n in range(c.n_max + 1))
    return BandedMatrix.from_rows(size, 2, 1, ((row.d, row.c, row.b, row.a) for row in rows))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    deviation: float
    detail: str = ""


class FactorizationReport(NamedTuple):
    size: int
    kind: str
    tolerance: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "kind": self.kind,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "checks": [
                {
                    "name": check.name,
                    "passed": check.passed,
                    # JSON has no NaN or infinity; such a check has failed
                    "max_deviation": check.deviation if math.isfinite(check.deviation) else None,
                    "detail": check.detail,
                }
                for check in self.checks
            ],
        }


def _worst(deviations: Iterable[Scalar]) -> Scalar:
    """One check's deviation: the first NaN among ``deviations``, else
    the largest of 0 and them (ties keep the earlier value, as max()
    does).  max() alone drops a NaN that is not its first argument,
    which would let a NaN coefficient pass."""
    worst = 0
    for deviation in deviations:
        if not deviation <= worst:
            if deviation != deviation:  # NaN compares false both ways
                return deviation
            worst = deviation
    return worst


_EXACT = (int, Fraction)


def _sums_to_one(values: Iterable[Scalar]) -> bool:
    """True when every value is an int or a Fraction and they add up to
    exactly 1, decided by cross-multiplying numerators and denominators."""
    numerator, denominator = 0, 1
    for value in values:
        if not isinstance(value, _EXACT):
            return False
        n, d = value.as_integer_ratio()
        numerator, denominator = numerator * d + n * denominator, denominator * d
    return numerator == denominator


def _sum_excess(rows: Iterable[Sequence[Scalar]], exact: bool) -> Iterator[Scalar]:
    """|sum - 1| of each row, added left to right from int 0 with one
    plain addition per entry as in :func:`multiply` (not ``sum()``, which
    compensates floats from Python 3.12 on).  When ``exact``, a row that
    :func:`_sums_to_one` settles is skipped: its excess is 0."""
    for row in rows:
        if not (exact and _sums_to_one(row)):
            total = 0
            for value in row:
                total += value
            yield abs(total - 1)


def verify_factorization(c: LUCoefficients, size: int) -> FactorizationReport:
    """Build the chain two ways and report their agreement.

    Route one assembles the pentadiagonal rows directly from the factor
    coefficients; route two multiplies the death and birth factors.
    Entrywise equality is checked on rows 0..size-3, together with band
    structure, factor and product row sums, coefficient bounds and the
    boundary values t_0 = t_1 = r_0 = 0, s_0 = 1.

    A check's deviation is the largest absolute difference over its
    entries (for coefficient bounds, the distance outside [0, 1]), 0
    when it has none, or NaN, which fails the check; it passes when
    finite and, compared exactly, at most the report's tolerance: 0 for
    an exact product and 1e-12 for a float one (entries are O(1) ratios
    and the products sum at most three terms, so no cancellation grows
    the error).  No caller sets it: the gate cannot be loosened.

    Unless the product is float, each check first settles an entry whose
    values are ints or Fractions on their numerators and denominators
    alone: equal ratios for the LU identity, a cross-multiplied sum of 1
    for the row sums, 0 <= numerator <= denominator for the bounds.  Only
    an entry that fails this test gets its ``Fraction`` deviation
    computed; the skipped ones are at most 0 and cannot change a result.
    """
    lower = death_factor(c, size)
    upper = birth_factor(c, size)
    product = multiply(lower, upper)
    direct = reconstructed_matrix(c, size)
    kind = product.scalar_kind()
    exact = kind != "float"  # a float product has no entry worth settling on integers
    tolerance = 0.0 if exact else 1e-12

    def bounded(name: str, deviations: Iterable[Scalar], detail: str) -> CheckResult:
        deviation = _worst(deviations)
        dev = float(deviation)
        # compare the exact deviation: a tiny Fraction may round to 0.0
        return CheckResult(name, math.isfinite(dev) and deviation <= tolerance, dev, detail)

    x, y, t, r, s = (seq[:size] for seq in (c.x, c.y, c.t, c.r, c.s))
    boundary = [t[0], r[0], s[0] - 1, *t[1:2]]  # t_1 only when size > 1
    bands = (product.lower_bandwidth, product.upper_bandwidth)
    rows_compared = max(size - 2, 0)
    compared = f" rows 0..{rows_compared - 1}" if rows_compared else ": no rows compared"
    # both are (2, 1)-banded with 0 stored past the edges, so band rows align
    row_pairs = zip(product.rows[:rows_compared], direct.rows)
    # a row is interior when all its in-band columns fall inside the matrix
    lower_rows, upper_rows, product_rows = (
        m.rows[:size - m.upper_bandwidth] for m in (lower, upper, product)
    )

    checks = (
        bounded("coefficient_row_sums", _sum_excess(
            chain.from_iterable(zip(zip(x, y), zip(t, r, s))), exact
        ), "x+y = 1 and t+r+s = 1"),
        bounded("coefficient_bounds", (
            dev for seq in (x, y, t, r, s) for value in seq
            if not (exact and isinstance(value, _EXACT)
                    and 0 <= value.numerator <= value.denominator)
            for dev in (-value, value - 1)
        ), "all coefficients within [0, 1]"),
        bounded("boundary_values", map(abs, boundary), "t_0 = t_1 = r_0 = 0 and s_0 = 1"),
        CheckResult(
            "band_structure", bands == (2, 1), 0.0, f"product bandwidths (lower, upper) = {bands}"
        ),
        bounded("factor_row_sums", _sum_excess(chain(lower_rows, upper_rows), exact),
                "interior factor rows sum to 1"),
        # ints and Fractions are in lowest terms: equal values have equal ratios
        bounded("lu_identity", (
            abs(p - d) for rows in row_pairs for p, d in zip(*rows)
            if not (exact and isinstance(p, _EXACT) and isinstance(d, _EXACT)
                    and p.as_integer_ratio() == d.as_integer_ratio())
        ), f"product vs direct{compared}"),
        bounded("product_row_sums", _sum_excess(product_rows, exact),
                "interior product rows sum to 1"),
    )
    return FactorizationReport(size, kind, tolerance, checks)


def verify_lu(params: Parameters | IntegerParameters, size: int) -> FactorizationReport:
    """Run :func:`verify_factorization` on coefficients built from the
    given parameter form (exact for integer parameters)."""
    return verify_factorization(lu_coefficients(params, size - 1), size)
