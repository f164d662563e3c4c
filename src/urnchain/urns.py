"""Ball-level urn realization of the factor chains.

One step of the pure-death factor (experiment 1) draws from up to three
urns and can lower the state by at most two; one step of the pure-birth
factor (experiment 2) draws from a single urn and can raise it by at
most one.  The composite chain runs experiment 1 then experiment 2.

The ball counts of every urn at every state come from
:func:`urnchain.coefficients.urn_slots`, whose docstring holds the
composition table.  Every reader here takes its slots one way: a slot
with no urn draws nothing and counts as red.  That one rule makes state
0 absorbing for experiment 1 (the composite chain still runs experiment
2 there) and makes state 1 draw once, from A.

Every draw is an integer draw against the exact ball counts, never a
floating-point probability; the exact enumeration oracle walks the same
draw tree with Fraction branch weights, and the vectorized sampler
copies the same slots into one int64 table of the states its lanes draw
from (about 64 bytes per state).
That sampler is the only one the CLI runs: ``simulate --aggregate`` and
``compare`` keep each lane's last state, trajectory mode every
sub-state, so a trajectory depends on (seed, trials) as the counts do.
The scalar step functions and :func:`run_trajectory` stay as the
ball-level reference with a draw record.  Each draw is one
``gen.integers`` call with an int64 bound, so drawing from an urn of
more than 2**63 - 1 balls raises :class:`ParameterError`; the vectorized
sampler checks every urn a lane can draw from, and no other, before its
first draw.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import _NO_URN, IntegerParameters, ParameterError, urn_slots

BLUE = "blue"
RED = "red"
COMPOSITE = "composite"

EXPERIMENTS = (1, 2, COMPOSITE)

# fixed Monte Carlo chunk so results depend on (seed, stream offset)
# only, never on thread count
CHUNK_TRIALS = 1 << 14

_INT64_MAX = int(np.iinfo(np.int64).max)

# urn names of the four slots of urn_slots: experiment 2's, then
# experiment 1's first urn and the urns of its second draw after a red
# and after a blue
_SLOT_NAMES = ("A", "A", "R", "B")


@dataclass(frozen=True)
class RngStream:
    """Splittable stream handle: (seed, stream_id) fully determines the
    draw sequence, so trials on distinct stream ids can run in parallel
    without changing any result."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0 (got {self.stream_id})")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class StepOutcome:
    """Result of one experiment: end state plus the ordered draw record
    as (urn name, color) pairs."""

    experiment: int
    start_state: int
    end_state: int
    draws: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Trajectory:
    """Sampled composite path; ``states[k]`` holds the pair (state after
    experiment 1, state after experiment 2) of step k."""

    initial_state: int
    states: tuple[tuple[int, int], ...]
    stream: RngStream

    def final_state(self) -> int:
        return self.states[-1][1] if self.states else self.initial_state


def _int64_total(name: str, total: int, m: int) -> int:
    """``total``, the ball count of urn ``name`` prepared at state m,
    which every draw passes to ``gen.integers`` as an int64 bound."""
    if total > _INT64_MAX:
        raise ParameterError(
            f"urn {name} at state {m} holds {total} balls, "
            f"above the int64 limit 2**63 - 1 = {_INT64_MAX}"
        )
    return total


def _draw(
    slots: tuple[tuple[int, int], ...], k: int, m: int, gen: np.random.Generator
) -> tuple[tuple[str, str], ...]:
    """The draw record of slot k of :func:`urn_slots` at state m: one
    integer draw against its exact counts, as ((urn name, color),), or
    no draw, (), from a slot with no urn, which leaves ``gen`` as is."""
    if slots[k] == _NO_URN:
        return ()
    blue, total = slots[k]
    name = _SLOT_NAMES[k]
    return ((name, BLUE if int(gen.integers(_int64_total(name, total, m))) < blue else RED),)


def experiment2_step(ip: IntegerParameters, m: int, gen: np.random.Generator) -> StepOutcome:
    """One pure-birth step; the end state is m + 1 on blue, m on red."""
    draws = _draw(urn_slots(ip, m), 0, m, gen)
    return StepOutcome(2, m, m + sum(color == BLUE for _, color in draws), draws)


def experiment1_step(ip: IntegerParameters, m: int, gen: np.random.Generator) -> StepOutcome:
    """One pure-death step; the end state drops by the number of blue
    draws (at most two)."""
    slots = urn_slots(ip, m)
    first = _draw(slots, 1, m, gen)
    # the second draw comes from B after a blue, from R after a red
    draws = first + _draw(slots, 3 if ("A", BLUE) in first else 2, m, gen)
    return StepOutcome(1, m, m - sum(color == BLUE for _, color in draws), draws)


def composite_step(
    ip: IntegerParameters, m: int, gen: np.random.Generator
) -> tuple[StepOutcome, StepOutcome]:
    """One step of the composite chain: experiment 1, then experiment 2
    from its end state."""
    first = experiment1_step(ip, m, gen)
    second = experiment2_step(ip, first.end_state, gen)
    return first, second


def run_trajectory(
    ip: IntegerParameters, initial_state: int, steps: int, stream: RngStream
) -> Trajectory:
    """Iterate the composite step, recording both sub-states per step.
    Deterministic in (stream.seed, stream.stream_id)."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0 (got {steps})")
    gen = stream.generator()
    m = initial_state
    states = []
    for _ in range(steps):
        first, second = composite_step(ip, m, gen)
        states.append((first.end_state, second.end_state))
        m = second.end_state
    return Trajectory(initial_state, tuple(states), stream)


def enumerate_step_distribution(
    ip: IntegerParameters, m: int, experiment: int
) -> dict[int, Fraction]:
    """Exact end-state law of one experiment, by walking every branch of
    the draw tree and multiplying exact rational branch weights.

    This is the brute-force oracle for the closed-form coefficients: it
    must reproduce (y_m, x_m) for experiment 2 and (t_m, r_m, s_m) for
    experiment 1, which the test suite asserts exactly.
    """
    if experiment not in (1, 2):
        raise ValueError(f"experiment must be 1 or 2 (got {experiment!r})")
    slots = urn_slots(ip, m)
    if experiment == 2:
        return {m + blue: weight for blue, weight in _branches(slots[0])}
    dist: dict[int, Fraction] = {}
    for first_blue, p_first in _branches(slots[1]):
        # the second draw comes from B after a blue, from R after a red
        for second_blue, p_second in _branches(slots[3 if first_blue else 2]):
            end = m - first_blue - second_blue
            dist[end] = dist.get(end, Fraction(0)) + p_first * p_second
    return dist


def _branches(slot: tuple[int, int]) -> Iterator[tuple[int, Fraction]]:
    """(blue drawn, exact weight) of each non-zero branch of one draw
    from ``slot``, blue first; a slot with no urn is red with weight 1."""
    blue, total = slot
    for drawn, balls in ((1, blue), (0, total - blue)):
        if balls:
            yield drawn, Fraction(balls, total)


def composite_distribution(ip: IntegerParameters, m: int) -> dict[int, Fraction]:
    """Exact one-step law of the composite chain via the chain rule over
    the two experiment laws; equals row m of the composite matrix."""
    dist: dict[int, Fraction] = {}
    for mid, p_first in enumerate_step_distribution(ip, m, 1).items():
        for end, p_second in enumerate_step_distribution(ip, mid, 2).items():
            dist[end] = dist.get(end, Fraction(0)) + p_first * p_second
    return dist


def _urn_table(
    ip: IntegerParameters, initial_state: int, steps: int, experiment
) -> tuple[int, np.ndarray]:
    """(lo, columns): int64 rows (blue, total) whose column 4(m - lo) + k
    holds slot k of :func:`urn_slots` at state m, for every state m in
    lo..hi a lane of a run of ``steps`` >= 1 steps draws from.  The int64
    bound is checked on exactly the urns a lane can draw from.

    A lane's second experiment-1 draw reads slot 2 + first_blue.  Slots
    no lane draws from (the other experiment's, and states one experiment
    reaches only for the other) hold the dummy (0, 1), always red, which
    ``urn_slots`` itself returns where a state has no urn.
    """
    # before step k (1-based) a lane is at most 2(k - 1) below its start,
    # and k - 1 above it in the composite chain, where experiment 2 draws
    # after experiment 1 has lowered the state by up to two more
    up = 1 if experiment == 1 else steps
    death = range(max(0, initial_state - 2 * (steps - 1)), initial_state + up)
    birth = range(max(0, initial_state - 2 * steps), initial_state + steps)
    if experiment == 1:
        birth = range(0)
    if experiment == 2:
        death, birth = range(0), range(initial_state, initial_state + steps)
    lo, hi = (birth or death).start, initial_state + up
    blue, total = [0] * (4 * (hi - lo)), [1] * (4 * (hi - lo))
    for m in range(lo, hi):
        slots = urn_slots(ip, m)
        drawn = ((0,) if m in birth else ()) + ((1, 2, 3) if m in death else ())
        for k in drawn:
            column = 4 * (m - lo) + k
            blue[column], total[column] = slots[k]
    if max(total) > _INT64_MAX:  # name the first urn over the limit
        column = next(k for k, balls in enumerate(total) if balls > _INT64_MAX)
        _int64_total(_SLOT_NAMES[column % 4], total[column], lo + column // 4)
    return lo, np.array([blue, total], dtype=np.int64)


def _advance(
    table: tuple[int, np.ndarray], states: np.ndarray, experiment: int, gen: np.random.Generator
) -> np.ndarray:
    """Vectorized one-experiment step of a whole state array.  Every lane
    consumes a fixed number of draws (dummy draws at drawless states), so
    the generator consumption depends only on the array length."""
    lo, (blue, total) = table
    base = 4 * (states - lo)
    if experiment == 2:
        return states + (gen.integers(0, total[base]) < blue[base])
    first = base + 1
    first_blue = gen.integers(0, total[first]) < blue[first]
    second = base + 2 + first_blue
    second_blue = gen.integers(0, total[second]) < blue[second]
    return states - first_blue - second_blue


def _walk(
    ip: IntegerParameters,
    initial_state: int,
    experiment,
    trials: int,
    seed: int,
    steps: int,
    stream_offset: int,
    threads: int,
    collect: Callable[[int, Iterator[np.ndarray]], object],
) -> list:
    """Run the trials in chunks of at most CHUNK_TRIALS lanes, chunk i
    drawing from ``RngStream(seed, stream_offset + i)`` on up to
    ``threads`` threads, no more than chunks or CPUs, and return
    ``collect(i, lanes)`` per chunk in chunk order.  ``lanes`` yields the
    chunk's lane states: the start, then the states after each sub-step."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS} (got {experiment!r})")
    if trials < 0:
        raise ValueError(f"trials must be >= 0 (got {trials})")
    if steps < 0:
        raise ValueError(f"steps must be >= 0 (got {steps})")
    if initial_state < 0:
        raise ValueError(f"initial_state must be >= 0 (got {initial_state})")
    if trials > 0 and initial_state > _INT64_MAX:  # lanes hold int64 states
        raise ParameterError(
            f"start state {initial_state} is above the int64 limit 2**63 - 1 = {_INT64_MAX}"
        )
    # built only when some lane draws, so a drawless call never raises
    table = _urn_table(ip, initial_state, steps, experiment) if trials > 0 and steps > 0 else None
    parts = (1, 2) if experiment == COMPOSITE else (experiment,)

    def lanes(index: int) -> Iterator[np.ndarray]:
        gen = RngStream(seed, stream_offset + index).generator()
        count = min(CHUNK_TRIALS, trials - index * CHUNK_TRIALS)
        states = np.full(count, initial_state, dtype=np.int64)
        yield states
        for _ in range(steps):
            for part in parts:
                states = _advance(table, states, part, gen)
                yield states

    def run(index: int):
        return collect(index, lanes(index))

    chunks = range(-(-trials // CHUNK_TRIALS))
    # map submits every chunk at once, and each submit starts a thread
    # while fewer than max_workers run
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, chunks))
    return [run(index) for index in chunks]


def sample_endpoints(
    ip: IntegerParameters,
    initial_state: int,
    experiment,
    trials: int,
    seed: int,
    *,
    steps: int = 1,
    stream_offset: int = 0,
    threads: int = 1,
) -> Counter:
    """Monte Carlo end-state counts over independent trials.

    Trials are partitioned into fixed-size chunks and chunk i draws from
    ``RngStream(seed, stream_offset + i)``, so the counts depend only on
    (seed, stream_offset, trials), never on the thread count.
    Aggregation sums counts and is order-independent.

    Faster than looping the per-step functions: draws are vectorized per
    chunk against the ball counts of the scalar urns, read through one
    int64 table of the states a lane draws from (about 64 bytes per
    state).  The per-trial draw sequence therefore differs from the
    scalar step functions; the end-state distribution is identical.
    The CLI's trajectory mode walks the same chunks, so its last states
    are these counts.  Raises :class:`ParameterError` when an urn a lane
    draws from holds more than 2**63 - 1 balls.
    """

    def count(_: int, lanes: Iterator[np.ndarray]) -> Counter:
        for states in lanes:
            pass
        values, counts = np.unique(states, return_counts=True)
        return Counter(dict(zip(values.tolist(), counts.tolist())))

    totals: Counter = Counter()
    for partial in _walk(
        ip, initial_state, experiment, trials, seed, steps, stream_offset, threads, count
    ):
        totals.update(partial)
    return totals


def _sample_paths(
    ip: IntegerParameters,
    initial_state: int,
    experiment,
    trials: int,
    seed: int,
    *,
    steps: int,
    threads: int,
) -> np.ndarray:
    """Every trial's path as one row of a (trials, 1 + steps * sub_steps)
    int64 array: the start, then the state after each sub-step (two per
    composite step, experiment 1 then 2).  Same chunks and streams as
    :func:`sample_endpoints`, whose counts are the last column's."""
    sub_steps = 2 if experiment == COMPOSITE else 1
    paths = np.empty((trials, 1 + steps * sub_steps), dtype=np.int64)

    def fill(index: int, lanes: Iterator[np.ndarray]) -> None:
        rows = paths[index * CHUNK_TRIALS : (index + 1) * CHUNK_TRIALS]
        for column, states in enumerate(lanes):
            rows[:, column] = states

    _walk(ip, initial_state, experiment, trials, seed, steps, 0, threads, fill)
    return paths
