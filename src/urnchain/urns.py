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
writes the same slots in place into one int64 numpy array of the states
its lanes draw from (64 bytes per state).
That sampler, :func:`_walk`, is the only sampling loop: the CLI's
commands keep each lane's last state or every sub-state, and
:func:`run_trajectory` is one lane.  Only :func:`sample_endpoints`, whose
per-chunk counts add up in any order, runs chunks on a thread pool;
trajectory mode draws its chunks in order.  A lane alone in its chunk draws
exactly the balls of the scalar step functions, the ball-level reference
with a draw record, which the package does not export.  Each draw is one
``gen.integers`` call with an int64 bound, so drawing from an urn of
more than 2**63 - 1 balls raises :class:`ParameterError`; the vectorized
sampler checks every urn a lane can draw from, and no other, before its
first draw.

numpy is imported with this module.  Of the CLI's commands only
``simulate`` and ``compare`` import it, so the others start without numpy.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Callable, Iterator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .coefficients import _NO_URN, IntegerParameters, ParameterError, _make_checked, urn_slots

BLUE = "blue"
RED = "red"
COMPOSITE = "composite"

# the parts one step of each experiment runs, in order, as the sampler and the
# CLI read them; the reference steps and exact laws, their oracles, hard-code it
_PARTS = {1: (1,), 2: (2,), COMPOSITE: (1, 2)}
EXPERIMENTS = tuple(_PARTS)

# fixed Monte Carlo chunk so results depend on (seed, stream offset)
# only, never on thread count
CHUNK_TRIALS = 1 << 14

_INT64_MAX = 2**63 - 1

# urn names of the four slots of urn_slots: experiment 2's, then
# experiment 1's first urn and the urns of its second draw after a red
# and after a blue
_SLOT_NAMES = ("A", "A", "R", "B")


class RngStream(NamedTuple("RngStream", [("seed", int), ("stream_id", int)])):
    """Splittable stream handle: (seed, stream_id) fully determines the
    draw sequence, so trials on distinct stream ids can run in parallel
    without changing any result."""

    __slots__ = ()

    def __new__(cls, seed: int, stream_id: int = 0) -> RngStream:
        if seed < 0:
            raise ValueError(f"seed must be >= 0 (got {seed})")
        if stream_id < 0:
            raise ValueError(f"stream_id must be >= 0 (got {stream_id})")
        return super().__new__(cls, seed, stream_id)

    _make = classmethod(_make_checked)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


class StepOutcome(NamedTuple):
    """Result of one experiment: end state plus the ordered draw record
    as (urn name, color) pairs."""

    experiment: int
    start_state: int
    end_state: int
    draws: tuple[tuple[str, str], ...]


class Trajectory(NamedTuple):
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
    """One lane of :func:`_walk`, chunk 0 on ``stream`` as given: the balls
    of :func:`composite_step` looped on ``stream.generator()``.  Refuses a
    start state below 0 or above 2**63 - 1 as :func:`sample_endpoints`."""
    _, lanes = _walk(ip, initial_state, COMPOSITE, 1, stream, steps)
    path = [states.item() for states in lanes(0)]
    return Trajectory(initial_state, tuple(zip(path[1::2], path[2::2])), stream)


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
    ip: IntegerParameters, initial_state: int, steps: int, parts: tuple[int, ...]
) -> tuple[int, np.ndarray]:
    """(lo, columns): int64 rows (blue, total) whose column 4(m - lo) + k
    holds slot k of :func:`urn_slots` at state m, for every state m in
    lo..hi a lane draws from in ``steps`` >= 1 steps of ``parts``, a value
    of :data:`_PARTS`.  The int64 bound is checked on exactly those urns.

    A lane's second experiment-1 draw reads slot 2 + first_blue (slot 0
    is experiment 2's).  Slots no lane draws from (a part's that no step
    runs, and states one part reaches only for the other) hold the dummy
    (0, 1), always red, which ``urn_slots`` itself returns for no urn.
    """
    # a part's last draw follows steps - 1 steps and the parts before it; each
    # experiment 1 lowers a lane by up to two (not below 0), each 2 raises it by one
    reach = {}
    for index, part in enumerate(parts):
        down, up = ((steps - 1) * parts.count(kind) + parts[:index].count(kind) for kind in (1, 2))
        reach[part] = range(max(0, initial_state - 2 * down), initial_state + up + 1)
    death, birth = reach.get(1, ()), reach.get(2, ())
    lo, hi = min(r.start for r in reach.values()), max(r.stop for r in reach.values())
    size = 4 * (hi - lo)
    # the one copy of the table: every blue count, then every total
    table = np.zeros((2, size), dtype=np.int64)
    table[1] = 1
    blues, totals = table
    for m in range(lo, hi):
        slots = urn_slots(ip, m)
        drawn = ((0,) if m in birth else ()) + ((1, 2, 3) if m in death else ())
        for k in drawn:
            blue, total = slots[k]
            if total > _INT64_MAX:  # raises, naming the first such urn in column order
                _int64_total(_SLOT_NAMES[k], total, m)
            column = 4 * (m - lo) + k
            totals[column], blues[column] = total, blue
    return lo, table


def _advance(
    table: tuple[int, np.ndarray], states: np.ndarray, experiment: int, gen: np.random.Generator
) -> np.ndarray:
    """Vectorized one-experiment step of a whole state array.  A lane at
    a drawless state draws from the dummy (0, 1), which numpy answers
    without advancing ``gen``, so generator use depends on the lanes'
    states; results still depend only on (seed, stream offset, trials)."""
    lo, (blue, total) = table
    base = 4 * (states - lo)
    if experiment == 2:
        return states + (gen.integers(0, total[base]) < blue[base])
    first = base + 1
    first_blue = gen.integers(0, total[first]) < blue[first]
    second = base + 2 + first_blue
    second_blue = gen.integers(0, total[second]) < blue[second]
    return states - first_blue - second_blue


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one (a cpuset can deny some of ``os.cpu_count()``),
    else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _walk(
    ip: IntegerParameters,
    initial_state: int,
    experiment,
    trials: int,
    stream: RngStream,
    steps: int,
) -> tuple[int, Callable[[int], Iterator[np.ndarray]]]:
    """(chunks, lanes) of the trials in chunks of at most CHUNK_TRIALS
    lanes, after the checks and the urn table.  ``lanes(i)`` yields chunk
    i's lane states, drawn from ``stream`` with its stream id raised by i:
    the start, then the states after each part (see :data:`_PARTS`) of
    each step.  A lane alone in its chunk draws the scalar step
    functions' balls."""
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
    parts = _PARTS[experiment]
    # built only when some lane draws, so a drawless call never raises
    table = _urn_table(ip, initial_state, steps, parts) if trials > 0 and steps > 0 else None

    def lanes(index: int) -> Iterator[np.ndarray]:
        gen = stream._replace(stream_id=stream.stream_id + index).generator()
        count = min(CHUNK_TRIALS, trials - index * CHUNK_TRIALS)
        states = np.full(count, initial_state, dtype=np.int64)
        yield states
        for _ in range(steps):
            for part in parts:
                states = _advance(table, states, part, gen)
                yield states

    return -(-trials // CHUNK_TRIALS), lanes


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
    (seed, stream_offset, trials), never on the thread count.  The
    chunks run on up to ``threads`` (>= 1) threads, no more than chunks
    or usable CPUs; each thread counts its own share of them, and the
    counts are summed, which no order changes.  A negative seed or stream
    offset raises first, as :class:`RngStream` does.

    Faster than looping the per-step functions: draws are vectorized per
    chunk against the ball counts of the scalar urns, read through one
    int64 table of the states a lane draws from (about 64 bytes per
    state).  A trial alone in its chunk draws the scalar step functions'
    balls, others differ; the end-state distribution is identical.
    The CLI's trajectory mode walks the same chunks, so its last states
    are these counts.  Raises :class:`ParameterError` when an urn a lane
    draws from holds more than 2**63 - 1 balls.
    """
    stream = RngStream(seed, stream_offset)
    if threads < 1:
        raise ValueError(f"threads must be >= 1 (got {threads})")
    chunks, lanes = _walk(ip, initial_state, experiment, trials, stream, steps)
    # one worker for zero chunks too: count steps through them by workers
    workers = max(1, min(threads, chunks, _usable_cpus()))

    def count(worker: int) -> Counter:
        totals: Counter = Counter()
        for index in range(worker, chunks, workers):
            for states in lanes(index):
                pass
            values, counts = np.unique(states, return_counts=True)
            totals.update(dict(zip(values.tolist(), counts.tolist())))
        return totals

    if workers == 1:
        return count(0)
    # imported here, not with the module: concurrent.futures takes 4.5-9 ms
    # to import (Python 3.11, 2 vCPUs), single-thread runs never need it,
    # and test_pool_threads_are_capped* patch ThreadPoolExecutor in
    # concurrent.futures itself
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(count, range(workers)), Counter())


def _sample_paths(
    ip: IntegerParameters,
    initial_state: int,
    experiment,
    trials: int,
    seed: int,
    *,
    steps: int,
) -> Iterator[np.ndarray]:
    """Each chunk's paths, drawn in chunk order as they are read: a
    (lanes, 1 + steps * parts) int64 array of the start and the state
    after each of the experiment's :data:`_PARTS` in each step.  Same
    checks, chunks and streams as :func:`sample_endpoints`, whose counts
    are the last column's.  One thread draws them all: the reader of the
    paths, not the draws, sets the pace, and a pool would only hold more
    chunks."""
    chunks, lanes = _walk(ip, initial_state, experiment, trials, RngStream(seed), steps)

    def fill(index: int) -> np.ndarray:
        chunk = lanes(index)
        states = next(chunk)  # the loop rebinds it, freeing the start once copied
        paths = np.empty((len(states), 1 + steps * len(_PARTS[experiment])), dtype=np.int64)
        paths[:, 0] = states
        for column, states in enumerate(chunk, 1):
            paths[:, column] = states
        return paths

    return map(fill, range(chunks))
