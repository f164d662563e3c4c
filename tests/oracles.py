"""Test-only references: a sampler that draws end states straight from
an exact transition row, against which the urn samplers are compared,
and the identity and dense views of banded matrices."""

from collections import Counter

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


def identity(size: int) -> BandedMatrix:
    return BandedMatrix.build(size, 0, 0, lambda i, j: 1)


def to_dense(m: BandedMatrix) -> list[list[Scalar]]:
    return [[m.entry(i, j) for j in range(m.size)] for i in range(m.size)]
