"""Empirical-vs-exact statistics and evaluation of the polynomial family
driven by the composite chain's four-band recursion."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .coefficients import LUCoefficients, Scalar, TransitionRow, reconstruct_row


class EmpiricalDistribution(NamedTuple):
    """Observed end-state counts of a repeated experiment."""

    counts: Mapping[int, int]
    total: int

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "EmpiricalDistribution":
        cleaned = {int(state): int(count) for state, count in sorted(counts.items())}
        if any(count < 0 for count in cleaned.values()):
            raise ValueError("negative count")
        total = sum(cleaned.values())
        if total == 0:
            raise ValueError("empty sample")
        return cls(cleaned, total)

    def frequencies(self) -> dict[int, Fraction]:
        """Each state's exact share of the sample, count / total."""
        return {state: Fraction(count, self.total) for state, count in self.counts.items()}


def _as_probabilities(dist) -> dict[int, Fraction]:
    if isinstance(dist, EmpiricalDistribution):
        return dist.frequencies()
    if isinstance(dist, TransitionRow):
        dist = dist.probabilities()
    return {int(state): Fraction(p) for state, p in dist.items()}


def tv_distance(first, second) -> float:
    """Total variation distance: half the L1 distance between two
    distributions over the union of their supports, summed exactly and
    rounded once.  Accepts empirical distributions, transition rows, or
    plain state -> probability maps; a float counts at its exact binary
    value, and a NaN or infinity raises (ValueError, OverflowError)."""
    p = _as_probabilities(first)
    q = _as_probabilities(second)
    return float(sum(abs(p.get(state, 0) - q.get(state, 0)) for state in p.keys() | q.keys()) / 2)


def chi_square_statistic(
    empirical: EmpiricalDistribution, exact
) -> tuple[float, int]:
    """Pearson statistic of an observed sample against an exact law,
    with dof = support size - 1 (no parameters are estimated), summed
    exactly and rounded once.  Raises on a zero expected cell and on
    observed mass outside the exact support.
    """
    expected = _as_probabilities(exact)
    if any(p <= 0.0 for p in expected.values()):
        raise ValueError("zero expected cell")
    outside = set(empirical.counts) - set(expected)
    if any(empirical.counts[state] > 0 for state in outside):
        raise ValueError(f"observed states {sorted(outside)} outside the exact support")
    n, observed = empirical.total, empirical.counts
    cells = ((observed.get(state, 0) - n * p) ** 2 / (n * p) for state, p in expected.items())
    return float(sum(cells)), len(expected) - 1


# the bracket's upper end: near x = 1500 the finite sums of
# _chi_square_tail start to underflow exp(-x/2) and overflow the terms
_TAIL_X_MAX = 1024.0
# the cut's tail probability, the float 1 - 0.999: 0.001 moves 24 of the
# quantiles for dof 1..60 up one ulp, dof 1-3 among them
_TAIL_P = 1 - 0.999


def _chi_square_tail(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square law with integer dof >= 1:
    the finite Poisson sum of Abramowitz & Stegun 26.4.4 for even dof,
    erfc plus the finite sum of 26.4.5 for odd dof."""
    half = x / 2
    if dof % 2 == 0:
        term = total = 1.0
        for k in range(1, dof // 2):
            term *= half / k
            total += term
        return math.exp(-half) * total
    root = math.sqrt(x)
    tail = math.erfc(root / math.sqrt(2))
    term = root * math.sqrt(2 / math.pi) * math.exp(-half)
    for k in range(1, (dof + 1) // 2):
        tail += term
        term *= x / (2 * k + 1)
    return tail


def chi_square_threshold(dof: int) -> float:
    """Upper 0.999 quantile of the chi-square distribution, the
    fixed-seed acceptance cut: the smallest double q whose tail
    (Abramowitz & Stegun 26.4.4 / 26.4.5) is <= 1 - 0.999.

    Found by bisection over doubles: the bracket [0, 1024] halves until
    its midpoint equals an end.  For dof 1, 2 and 3 this returns the same
    doubles as ``scipy.stats.chi2.ppf``.  Raises ValueError for a dof
    that is not an integer >= 1 and a quantile above 1024.
    """
    if isinstance(dof, bool) or not isinstance(dof, int) or dof < 1:
        raise ValueError(f"dof must be an integer >= 1 (got {dof!r})")
    if _chi_square_tail(_TAIL_X_MAX, dof) > _TAIL_P:
        raise ValueError(f"chi-square quantile above {_TAIL_X_MAX} (dof {dof})")
    low, high = 0.0, _TAIL_X_MAX
    while True:
        mid = (low + high) / 2
        if mid in (low, high):
            return high
        if _chi_square_tail(mid, dof) <= _TAIL_P:
            high = mid
        else:
            low = mid


class PolynomialEvaluation(NamedTuple):
    """Values q_0(x)..q_n(x) of the polynomial family attached to the
    composite chain."""

    x: Scalar
    values: tuple[Scalar, ...]


def evaluate_polynomials(c: LUCoefficients, x: Scalar, n_max: int) -> PolynomialEvaluation:
    """Evaluate q_0..q_{n_max} at x through the four-band recursion

        x q_n = d_n q_{n-2} + c_n q_{n-1} + b_n q_n + a_n q_{n+1}

    with q_0 = 1 and q_{-1} = q_{-2} = 0, solving each step for q_{n+1}.
    Exact when the coefficients and x are exact; since interior rows sum
    to 1, q_n(1) = 1 for every n.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0 (got {n_max})")
    if c.n_max < max(n_max - 1, 0):
        raise ValueError(
            f"insufficient coefficients: need indices 0..{n_max - 1}, have 0..{c.n_max}"
        )
    return PolynomialEvaluation(x, _recursion((reconstruct_row(c, n) for n in range(n_max)), x))


def _recursion(rows: Iterable[TransitionRow], x: Scalar) -> tuple[Scalar, ...]:
    """q_0(x)..q_n(x) from the composite rows 0..n - 1 by the recursion of
    :func:`evaluate_polynomials`: one table of rows serves every x."""
    values: list[Scalar] = [type(x)(1)]  # q_0 in x's kind: a Fraction prints as "1"
    for n, row in enumerate(rows):
        if not row.a > 0:
            raise ValueError(f"up probability a_{n} = {row.a} is not positive")
        acc = (x - row.b) * values[n]
        if n >= 1:
            acc -= row.c * values[n - 1]
        if n >= 2:
            acc -= row.d * values[n - 2]
        values.append(acc / row.a)
    return tuple(values)
