"""Test-only references: a sampler that draws end states straight from
an exact transition row, against which the urn samplers are compared,
a per-entry builder and the identity and dense views of banded
matrices, and the regularized incomplete gamma function the chi-square
quantile is checked against."""

import math
from collections import Counter
from typing import Callable

import numpy as np

from urnchain.banded import BandedMatrix
from urnchain.coefficients import Scalar, TransitionRow
from urnchain.urns import RngStream


def _cumulative(row: TransitionRow) -> tuple[list[int], np.ndarray]:
    probs = row.probabilities()
    outcomes = sorted(probs)
    return outcomes, np.cumsum([float(probs[state]) for state in outcomes])


def sample_from_row(row: TransitionRow, gen: np.random.Generator) -> int:
    """Sample one end state from an exact transition row; the reference
    sampler the urn mechanics are compared against."""
    outcomes, cumulative = _cumulative(row)
    index = int(np.searchsorted(cumulative, gen.random(), side="right"))
    return outcomes[min(index, len(outcomes) - 1)]


def sample_row_endpoints(row: TransitionRow, trials: int, stream: RngStream) -> Counter:
    """Vectorized end-state counts of repeated draws from a row."""
    outcomes, cumulative = _cumulative(row)
    gen = stream.generator()
    indices = np.searchsorted(cumulative, gen.random(trials), side="right")
    indices = np.minimum(indices, len(outcomes) - 1)
    counts = np.bincount(indices, minlength=len(outcomes))
    return Counter({state: int(count) for state, count in zip(outcomes, counts) if count})


def build(
    size: int, lower: int, upper: int, entry_fn: Callable[[int, int], Scalar]
) -> BandedMatrix:
    """A banded matrix from a function giving the in-band entry (i, j),
    called only for columns inside [0, size)."""
    return BandedMatrix(size, lower, upper, (
        [entry_fn(i, j) if 0 <= j < size else 0 for j in range(i - lower, i + upper + 1)]
        for i in range(size)
    ))


def identity(size: int) -> BandedMatrix:
    return build(size, 0, 0, lambda i, j: 1)


def to_dense(m: BandedMatrix) -> list[list[Scalar]]:
    """The full matrix: the in-band entries of each row, 0 elsewhere."""
    dense = [[0] * m.size for _ in range(m.size)]
    for i, row in enumerate(m.rows):
        for j, value in enumerate(row, i - m.lower_bandwidth):
            if 0 <= j < m.size:
                dense[i][j] = value
    return dense


def regularized_lower_gamma(a: float, x: float) -> float:
    """P(a, x) by the series of Abramowitz & Stegun 6.5.29,

        P(a, x) = x**a e**-x sum_{n >= 0} x**n / Gamma(a + n + 1),

    summed until a term no longer moves the total; the chi-square CDF
    with k degrees of freedom at q is P(k/2, q/2)."""
    if x <= 0:
        return 0.0
    terms = [1.0]
    total = n = 1.0
    while n <= x or terms[-1] > 1e-17 * total:
        terms.append(terms[-1] * x / (a + n))
        total += terms[-1]
        n += 1
    return math.exp(a * math.log(x) - x - math.lgamma(a + 1)) * math.fsum(terms)
