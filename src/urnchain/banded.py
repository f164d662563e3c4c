"""Finite truncations of semi-infinite banded stochastic matrices.

Builds the pure-death factor (lower bandwidth 2), the pure-birth factor
(upper bandwidth 1) and the pentadiagonal composite chain from their band
rows (the coefficient tuples and :func:`reconstruct_row`), multiplies
banded truncations row by row, and cross-checks that the factor product
equals the directly reconstructed chain.

Truncating a semi-infinite matrix loses mass off the right edge in the
last ``upper_bandwidth`` rows.  Those rows are flagged non-interior and
excluded from row-sum checks; they are never renormalized, since that
would silently change the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

from .coefficients import (
    IntegerParameters,
    LUCoefficients,
    Parameters,
    Scalar,
    lu_coefficients,
    lu_coefficients_integer,
    reconstruct_row,
)


@dataclass(frozen=True)
class BandedMatrix:
    """Dense-in-band storage of a square banded matrix.

    ``rows[i][k]`` holds entry (i, i - lower_bandwidth + k); positions
    whose column falls outside [0, size) are stored as zero and are
    structurally zero outside the band.  :meth:`from_rows` builds one
    from the band of each row.
    """

    size: int
    lower_bandwidth: int
    upper_bandwidth: int
    rows: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def from_rows(
        cls, size: int, lower_bandwidth: int, upper_bandwidth: int,
        band_rows: Iterable[Sequence[Scalar]],
    ) -> "BandedMatrix":
        """Construct from the first ``size`` band rows: row i gives the
        values at columns i - lower_bandwidth .. i + upper_bandwidth, and
        those whose column falls outside [0, size) are stored as 0."""
        if size < 1:
            raise ValueError(f"size must be >= 1 (got {size})")
        rows = [tuple(band) for band in islice(band_rows, size)]
        if len(rows) < size:
            raise ValueError(f"{len(rows)} band rows for a {size}x{size} matrix")
        # only the first lower and last upper rows reach past an edge
        for i in {*range(min(lower_bandwidth, size)), *range(max(size - upper_bandwidth, 0), size)}:
            first = i - lower_bandwidth
            rows[i] = tuple(v if 0 <= first + k < size else 0 for k, v in enumerate(rows[i]))
        return cls(size, lower_bandwidth, upper_bandwidth, tuple(rows))

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"entry ({i}, {j}) outside a {self.size}x{self.size} matrix")
        offset = j - i
        if -self.lower_bandwidth <= offset <= self.upper_bandwidth:
            return self.rows[i][offset + self.lower_bandwidth]
        return 0

    def row_entries(self, i: int) -> list[tuple[int, Scalar]]:
        """In-band (column, value) pairs of row i, ascending column."""
        out = []
        for k, value in enumerate(self.rows[i]):
            j = i - self.lower_bandwidth + k
            if 0 <= j < self.size:
                out.append((j, value))
        return out

    def row_sum(self, i: int) -> Scalar:
        """Band row i added left to right from int 0, as :func:`multiply`
        adds (not ``sum()``, which compensates floats from Python 3.12 on)."""
        total = 0
        for value in self.rows[i]:
            total += value
        return total

    def is_interior(self, i: int) -> bool:
        """True when row i keeps all its in-band columns inside the
        truncation, so a stochastic row still sums to 1."""
        return i + self.upper_bandwidth < self.size

    def scalar_kind(self) -> str:
        """'float' / 'exact' (contains Fraction) / 'int' (ints only)."""
        has_float = has_fraction = False
        for row in self.rows:
            for value in row:
                if isinstance(value, float):
                    has_float = True
                elif isinstance(value, Fraction):
                    has_fraction = True
        if has_float and has_fraction:
            raise ValueError("matrix mixes float and Fraction entries")
        if has_float:
            return "float"
        return "exact" if has_fraction else "int"


def multiply(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """Banded product; bandwidths add.  Exact when both factors are.
    Each entry sums its terms from int 0 in ascending k."""
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    kinds = {a.scalar_kind(), b.scalar_kind()}
    if "float" in kinds and "exact" in kinds:
        raise ValueError("scalar kind mismatch: cannot multiply float and exact matrices")
    lower = a.lower_bandwidth + b.lower_bandwidth
    upper = a.upper_bandwidth + b.upper_bandwidth
    rows = []
    for i in range(a.size):
        band = [0] * (lower + upper + 1)
        first = i - lower
        for k, left in a.row_entries(i):
            # b's row k starts at column k - b.lower_bandwidth; its padding
            # lands on columns past the edges, which from_rows zeroes
            for position, right in enumerate(b.rows[k], k - b.lower_bandwidth - first):
                band[position] += left * right
        rows.append(band)
    return BandedMatrix.from_rows(a.size, lower, upper, rows)


def death_factor(c: LUCoefficients, size: int) -> BandedMatrix:
    """Pure-death factor: row n holds (t_n, r_n, s_n) at columns
    n-2, n-1, n; row 0 is the absorbing row (s_0 = 1)."""
    _require_coverage(c, size)
    return BandedMatrix.from_rows(size, 2, 0, zip(c.t, c.r, c.s))


def birth_factor(c: LUCoefficients, size: int) -> BandedMatrix:
    """Pure-birth factor: row n holds (y_n, x_n) at columns n, n+1.
    The last row loses x over the truncation edge and is non-interior."""
    _require_coverage(c, size)
    return BandedMatrix.from_rows(size, 0, 1, zip(c.y, c.x))


def reconstructed_matrix(c: LUCoefficients, size: int) -> BandedMatrix:
    """Pentadiagonal composite chain assembled row by row from
    :func:`reconstruct_row` (lower bandwidth 2, upper 1)."""
    _require_coverage(c, size)
    rows = (reconstruct_row(c, n) for n in range(size))
    return BandedMatrix.from_rows(size, 2, 1, ((row.d, row.c, row.b, row.a) for row in rows))


def _require_coverage(c: LUCoefficients, size: int) -> None:
    if c.n_max < size - 1:
        raise ValueError(f"insufficient coefficients: need indices 0..{size - 1}, have 0..{c.n_max}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    detail: str = ""


@dataclass(frozen=True)
class FactorizationReport:
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


def verify_factorization(
    c: LUCoefficients, size: int, tolerance: float | None = None
) -> FactorizationReport:
    """Build the chain two ways and report their agreement.

    Route one assembles the pentadiagonal rows directly from the factor
    coefficients; route two multiplies the death and birth factors.
    Entrywise equality is checked on rows 0..size-3, together with band
    structure, factor and product row sums, coefficient bounds and the
    boundary values t_0 = t_1 = r_0 = 0, s_0 = 1.

    A check's deviation is the largest absolute difference over its
    entries (for coefficient bounds, the distance outside [0, 1]), 0
    when it has none, or NaN, which fails the check; it passes when
    finite and, compared exactly, at most ``tolerance``.
    ``tolerance`` defaults to 0 for exact coefficients and 1e-12 for
    float coefficients (entries are O(1) ratios and the products sum at
    most three terms, so no cancellation grows the error).

    Unless the product is float, each check first settles an entry whose
    values are ints or Fractions on their numerators and denominators
    alone: equal ratios for the LU identity, a cross-multiplied sum of 1
    for the row sums (both coefficient sums of an index together),
    0 <= numerator <= denominator for the bounds.  Only an entry that
    fails this test gets its ``Fraction`` deviation computed; the skipped
    ones are at most 0 and cannot change a result.
    """
    lower = death_factor(c, size)
    upper = birth_factor(c, size)
    product = multiply(lower, upper)
    direct = reconstructed_matrix(c, size)
    kind = product.scalar_kind()
    exact = kind != "float"  # a float product has no entry worth settling on integers
    if tolerance is None:
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

    checks = (
        bounded("coefficient_row_sums", (
            abs(dev)
            for xn, yn, tn, rn, sn in zip(x, y, t, r, s)
            if not (exact and _sums_to_one((xn, yn)) and _sums_to_one((tn, rn, sn)))
            for dev in (xn + yn - 1, tn + rn + sn - 1)
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
        bounded("factor_row_sums", (
            abs(m.row_sum(i) - 1) for m in (lower, upper) for i in range(size)
            if m.is_interior(i) and not (exact and _sums_to_one(m.rows[i]))
        ), "interior factor rows sum to 1"),
        # ints and Fractions are in lowest terms: equal values have equal ratios
        bounded("lu_identity", (
            abs(p - d) for rows in row_pairs for p, d in zip(*rows)
            if not (exact and isinstance(p, _EXACT) and isinstance(d, _EXACT)
                    and p.as_integer_ratio() == d.as_integer_ratio())
        ), f"product vs direct{compared}"),
        bounded("product_row_sums", (
            abs(product.row_sum(i) - 1) for i in range(size)
            if product.is_interior(i) and not (exact and _sums_to_one(product.rows[i]))
        ), "interior product rows sum to 1"),
    )
    return FactorizationReport(size, kind, float(tolerance), checks)


def verify_lu(
    params: Parameters | IntegerParameters,
    size: int,
    tolerance: float | None = None,
) -> FactorizationReport:
    """Run :func:`verify_factorization` on coefficients built from the
    given parameter form (exact for integer parameters)."""
    if isinstance(params, IntegerParameters):
        coeffs = lu_coefficients_integer(params, size - 1)
    else:
        coeffs = lu_coefficients(params, size - 1)
    return verify_factorization(coeffs, size, tolerance)
