import concurrent.futures
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnchain import urns
from urnchain.coefficients import (
    _NO_URN,
    IntegerParameters,
    ParameterError,
    lu_coefficients_integer,
    reconstruct_row,
    urn_slots,
)
from urnchain.urns import (
    CHUNK_TRIALS,
    COMPOSITE,
    EXPERIMENTS,
    RngStream,
    _PARTS,
    _advance,
    _urn_table,
    composite_distribution,
    composite_step,
    enumerate_step_distribution,
    experiment1_step,
    experiment2_step,
    run_trajectory,
    sample_endpoints,
)

F = Fraction
IP = IntegerParameters(2, 3, 1)


class TestUrnCompositions:
    """The (blue, total) slots of urn_slots: experiment 2's A, then
    experiment 1's A, R and B."""

    def test_worked_example_state_two(self):
        urn_a, urn_r, urn_b = urn_slots(IP, 2)[1:]
        assert urn_a == (2, 11)
        assert urn_r == (3, 16)
        assert urn_b == (7, 27)

    def test_state_one_single_urn(self):
        assert urn_slots(IntegerParameters(1, 1, 0), 1)[1:] == ((1, 4), _NO_URN, _NO_URN)

    def test_absorbing_state_prepares_nothing(self):
        assert urn_slots(IP, 0)[1:] == (_NO_URN,) * 3

    @pytest.mark.parametrize("entry", [
        lambda p: sample_endpoints(p, 5, 1, 10, 1),
        lambda p: composite_distribution(p, 5),
        lambda p: enumerate_step_distribution(p, 5, 2),
        lambda p: run_trajectory(p, 5, 1, RngStream(1)),
    ], ids=["sample_endpoints", "composite_distribution", "enumerate_step_distribution",
            "run_trajectory"])
    def test_urns_refuse_a_general_triple(self, entry):
        # the one place that turns parameters into ball counts names the
        # form it takes, not a missing attribute
        with pytest.raises(TypeError, match="takes IntegerParameters, not Parameters"):
            entry(IP.as_parameters())

    def test_birth_urn_even_and_odd(self):
        assert urn_slots(IP, 0)[0] == (4, 7)
        assert urn_slots(IntegerParameters(1, 1, 0), 1)[0] == (2, 4)

    def test_counts_are_non_negative_across_grid(self):
        for M in (1, 2, 3, 5):
            for N in (1, 2, 3, 5):
                for gamma in (0, 1, 2):
                    ip = IntegerParameters(M, N, gamma)
                    for m in range(0, 40):
                        for blue, total in urn_slots(ip, m):
                            assert 0 <= blue <= total and total >= 1

    @settings(max_examples=300, deadline=None)
    @given(
        ip=st.builds(
            IntegerParameters, st.integers(1, 2**31), st.integers(1, 2**31), st.integers(0, 10)
        ),
        m=st.integers(0, 10**6),
    )
    @example(IntegerParameters(1, 1, 0), 0)
    @example(IntegerParameters(1, 1, 0), 1)
    @example(IntegerParameters(2**31, 1, 0), 2)
    @example(IntegerParameters(1, 2**31, 0), 3)
    def test_every_slot_is_an_urn_or_no_urn(self, ip, m):
        slots = urn_slots(ip, m)
        for blue, total in slots:
            assert 0 <= blue <= total and total >= 1
        no_urn = [k for k, slot in enumerate(slots) if slot == _NO_URN]
        assert no_urn == {0: [1, 2, 3], 1: [2, 3]}.get(m, [])


class TestEnumeration:
    def test_experiment1_matches_death_coefficients(self):
        c = lu_coefficients_integer(IP, 200)
        for m in range(201):
            dist = enumerate_step_distribution(IP, m, 1)
            assert sum(dist.values()) == 1
            assert dist.get(m - 2, 0) == (c.t[m] if m >= 2 else 0)
            assert dist.get(m - 1, 0) == (c.r[m] if m >= 1 else 0)
            expected_stay = c.s[m] if m >= 1 else 1
            assert dist[m] == expected_stay

    def test_experiment2_matches_birth_coefficients(self):
        c = lu_coefficients_integer(IP, 200)
        for m in range(201):
            dist = enumerate_step_distribution(IP, m, 2)
            assert dist == {m + 1: c.x[m], m: c.y[m]}

    def test_state_one_law(self):
        dist = enumerate_step_distribution(IntegerParameters(1, 1, 0), 1, 1)
        assert dist == {0: F(1, 4), 1: F(3, 4)}

    def test_absorbing_state(self):
        assert enumerate_step_distribution(IP, 0, 1) == {0: 1}

    def test_composite_law_equals_reconstructed_row(self):
        c = lu_coefficients_integer(IP, 50)
        for m in range(51):
            assert composite_distribution(IP, m) == reconstruct_row(c, m).probabilities()

    def test_composite_down_two_worked_value(self):
        assert composite_distribution(IP, 2)[0] == F(2, 99)

    def test_composite_from_absorbing_state(self):
        c = lu_coefficients_integer(IP, 0)
        assert composite_distribution(IP, 0) == {0: c.y[0], 1: c.x[0]}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            enumerate_step_distribution(IP, 2, 3)


class TestSteps:
    def test_experiment2_moves_up_or_stays(self):
        gen = RngStream(11).generator()
        for m in (0, 1, 2, 7):
            for _ in range(50):
                outcome = experiment2_step(IP, m, gen)
                assert outcome.end_state in (m, m + 1)
                assert len(outcome.draws) == 1

    def test_experiment1_moves_down_at_most_two(self):
        gen = RngStream(12).generator()
        for m in (1, 2, 3, 8):
            for _ in range(50):
                outcome = experiment1_step(IP, m, gen)
                assert m - 2 <= outcome.end_state <= m
                assert outcome.end_state >= 0

    def test_absorbing_state_draws_nothing(self):
        gen = RngStream(13).generator()
        outcome = experiment1_step(IP, 0, gen)
        assert outcome.end_state == 0 and outcome.draws == ()

    def test_draw_record_names_the_urns(self):
        gen = RngStream(14).generator()
        outcome = experiment1_step(IP, 4, gen)
        assert outcome.draws[0][0] == "A"
        assert outcome.draws[1][0] in ("B", "R")

    def test_composite_step_band(self):
        gen = RngStream(15).generator()
        for m in (0, 1, 2, 5):
            for _ in range(50):
                first, second = composite_step(IP, m, gen)
                assert first.end_state >= 0
                assert second.start_state == first.end_state
                assert second.end_state in {m - 2, m - 1, m, m + 1}
                assert second.end_state >= 0


PARAMETERS = st.builds(
    IntegerParameters, st.integers(1, 10**6), st.integers(1, 10**6), st.integers(0, 50)
)
# the urn_slots slot each recorded urn name is drawn from, per experiment
DRAWN_SLOT = {1: {"A": 1, "R": 2, "B": 3}, 2: {"A": 0}}


class TestLowStates:
    """States 0 and 1 follow the one rule of urn_slots: a slot with no
    urn draws nothing and counts as red."""

    @settings(max_examples=200, deadline=None)
    @given(
        ip=PARAMETERS,
        m=st.integers(0, 40),
        experiment=st.sampled_from((1, 2)),
        seed=st.integers(0, 2**32),
    )
    def test_one_generator_draw_per_recorded_draw(self, ip, m, experiment, seed):
        gen, twin = RngStream(seed).generator(), RngStream(seed).generator()
        step = experiment1_step if experiment == 1 else experiment2_step
        outcome = step(ip, m, gen)
        slots = urn_slots(ip, m)
        for name, _ in outcome.draws:
            twin.integers(slots[DRAWN_SLOT[experiment][name]][1])
        assert gen.bit_generator.state == twin.bit_generator.state
        assert len(outcome.draws) == (min(m, 2) if experiment == 1 else 1)

    @settings(max_examples=200, deadline=None)
    @given(ip=PARAMETERS, m=st.integers(0, 40))
    def test_death_law_and_urns_follow_the_slots(self, ip, m):
        c = lu_coefficients_integer(ip, m)
        weights = [(m - 2, c.t[m]), (m - 1, c.r[m]), (m, c.s[m])]
        law = enumerate_step_distribution(ip, m, 1)
        assert list(law.items()) == [(end, p) for end, p in weights if p]
        held = [slot for slot in urn_slots(ip, m)[1:] if slot != _NO_URN]
        assert len(held) == (0, 1, 3)[min(m, 2)]


# (state after experiment 1, its draws, state after experiment 2, its
# draws) per composite step from state 2 under IP, draws written as urn
# name plus b(lue) / r(ed); recorded while the scalar steps still built
# an Urn per draw: any change in how they consume draws shows here
PINNED_STEPS = {
    5: [
        (2, "ArRr", 2, "Ar"), (2, "ArRr", 3, "Ab"), (2, "ArRb", 2, "Ar"), (1, "AbBr", 2, "Ab"),
        (1, "ArRb", 1, "Ar"), (1, "Ar", 1, "Ar"), (1, "Ar", 1, "Ar"), (0, "Ab", 0, "Ar"),
        (0, "", 1, "Ab"), (1, "Ar", 1, "Ar"),
    ],
    6: [
        (2, "ArRr", 2, "Ar"), (2, "ArRr", 2, "Ar"), (1, "ArRb", 1, "Ar"), (1, "Ar", 2, "Ab"),
        (2, "ArRr", 3, "Ab"), (2, "ArRb", 3, "Ab"), (3, "ArRr", 4, "Ab"), (3, "ArRb", 3, "Ar"),
        (3, "ArRr", 3, "Ar"), (2, "AbBr", 2, "Ar"),
    ],
    7: [
        (2, "ArRr", 3, "Ab"), (2, "AbBr", 3, "Ab"), (3, "ArRr", 3, "Ar"), (3, "ArRr", 4, "Ab"),
        (3, "ArRb", 4, "Ab"), (4, "ArRr", 5, "Ab"), (4, "AbBr", 5, "Ab"), (4, "ArRb", 4, "Ar"),
        (4, "ArRr", 5, "Ab"), (4, "ArRb", 5, "Ab"),
    ],
}


class TestTrajectories:
    @pytest.mark.parametrize("seed", sorted(PINNED_STEPS))
    def test_draws_and_states_are_pinned(self, seed):
        def code(outcome):
            return "".join(name + color[0] for name, color in outcome.draws)

        gen = RngStream(seed).generator()
        m, steps = 2, []
        for _ in PINNED_STEPS[seed]:
            first, second = composite_step(IP, m, gen)
            steps.append((first.end_state, code(first), second.end_state, code(second)))
            m = second.end_state
        assert steps == PINNED_STEPS[seed]
        trajectory = run_trajectory(IP, 2, len(steps), RngStream(seed))
        assert trajectory.states == tuple((mid, end) for mid, _, end, _ in steps)

    def test_zero_steps(self):
        trajectory = run_trajectory(IP, 4, 0, RngStream(1))
        assert trajectory.states == () and trajectory.final_state() == 4

    def test_fixed_stream_reproduces_exactly(self):
        first = run_trajectory(IP, 5, 500, RngStream(99, 3))
        second = run_trajectory(IP, 5, 500, RngStream(99, 3))
        assert first == second

    def test_distinct_streams_differ(self):
        a = run_trajectory(IP, 5, 200, RngStream(99, 0))
        b = run_trajectory(IP, 5, 200, RngStream(99, 1))
        assert a.states != b.states

    def test_states_stay_non_negative(self):
        ip = IntegerParameters(1, 1, 0)
        for trial in range(100):
            trajectory = run_trajectory(ip, 5, 1000, RngStream(7, trial))
            for after_death, after_birth in trajectory.states:
                assert after_death >= 0 and after_birth >= 0

    @pytest.mark.parametrize("start, error", [(-1, ValueError), (2**70, ParameterError)])
    def test_start_outside_the_lanes_is_refused(self, start, error):
        # as sample_endpoints refuses it: a lane holds an int64 state >= 0
        match = "initial_state must be >= 0" if start < 0 else "int64 limit"
        with pytest.raises(error, match=match):
            run_trajectory(IP, start, 0, RngStream(1))
        with pytest.raises(error, match=match):
            sample_endpoints(IP, start, COMPOSITE, 1, 1, steps=0)

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.tuples(st.integers(1, 2**31), st.integers(1, 1000)),
        swap=st.booleans(),
        gamma=st.integers(0, 10),
        initial=st.integers(0, 40),
        steps=st.integers(0, 30),
        experiment=st.sampled_from(EXPERIMENTS),
        seed=st.integers(0, 2**32),
    )
    def test_one_lane_draws_the_reference_balls(
        self, sizes, swap, gamma, initial, steps, experiment, seed
    ):
        # the only lane of chunk 0 against the scalar steps looped on its
        # stream's generator, with M or N up to 2**31
        ip = IntegerParameters(*(sizes[::-1] if swap else sizes), gamma)
        gen = RngStream(seed).generator()
        parts = (experiment1_step, experiment2_step)
        if experiment != COMPOSITE:
            parts = (parts[experiment - 1],)
        m, path = initial, [initial]
        for _ in range(steps):
            for step in parts:
                m = step(ip, m, gen).end_state
                path.append(m)
        (lane,) = urns._sample_paths(ip, initial, experiment, 1, seed, steps=steps, threads=1)
        assert lane.tolist() == [path]


def serial_pool(monkeypatch) -> list:
    """Swap the sampler's thread pool for one that runs each submitted
    call at once, so no thread starts, and return the list its
    max_workers are appended to."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    # the sampler imports the pool class from the package when it starts one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    return started


class TestBatchSampling:
    def test_stream_rejects_negative_seed_and_id(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0 \(got -1\)$"):
            RngStream(-1)
        with pytest.raises(ValueError, match=r"^stream_id must be >= 0 \(got -1\)$"):
            RngStream(0, -1)

    def test_stream_replace_and_make_check_as_the_constructor(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0 \(got -1\)$"):
            RngStream._make((-1, 0))
        with pytest.raises(ValueError, match=r"^stream_id must be >= 0 \(got -1\)$"):
            RngStream(1)._replace(stream_id=-1)
        assert RngStream._make((1, 2)) == RngStream(1)._replace(stream_id=2) == (1, 2)

    @pytest.mark.parametrize("trials", [0, 5])
    @pytest.mark.parametrize("call, message", [
        (lambda trials: sample_endpoints(IP, 2, COMPOSITE, trials, -1), r"seed must be >= 0 \(got -1\)"),
        (lambda trials: sample_endpoints(IP, 2, COMPOSITE, trials, 1, stream_offset=-1),
         r"stream_id must be >= 0 \(got -1\)"),
        (lambda trials: urns._sample_paths(IP, 2, COMPOSITE, trials, -1, steps=1, threads=1),
         r"seed must be >= 0 \(got -1\)"),
    ], ids=["sample_endpoints-seed", "sample_endpoints-stream_offset", "_sample_paths-seed"])
    def test_negative_seed_or_offset_raises_at_the_call(self, call, message, trials):
        # the stream is checked where it is built, before the first chunk is
        # drawn or read: no empty count for zero trials, no lazy error later
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(trials)

    def test_drawless_lanes_leave_the_generator_as_is(self):
        # numpy answers the dummy (0, 1) urn without a draw, so generator
        # use depends on the lanes' states, not on the array length alone
        table = _urn_table(IP, 0, 1, (1,))
        gen = RngStream(5).generator()
        before = gen.bit_generator.state
        states = _advance(table, np.zeros(1000, dtype=np.int64), 1, gen)
        assert states.tolist() == [0] * 1000
        assert gen.bit_generator.state == before
        _advance(_urn_table(IP, 0, 1, (2,)), states, 2, gen)
        assert gen.bit_generator.state != before

    def test_counts_sum_to_trials(self):
        counts = sample_endpoints(IP, 3, COMPOSITE, 12345, 42)
        assert sum(counts.values()) == 12345
        assert set(counts) <= {1, 2, 3, 4}

    def test_thread_count_does_not_change_counts(self):
        single = sample_endpoints(IP, 2, COMPOSITE, 100000, 42, threads=1)
        pooled = sample_endpoints(IP, 2, COMPOSITE, 100000, 42, threads=8)
        assert single == pooled

    @pytest.mark.parametrize(
        "threads, trials, cpus, workers",
        [(5000, 10 * CHUNK_TRIALS, 2, 2), (5000, 3 * CHUNK_TRIALS, 64, 3), (2, 10**4, 8, None),
         (3, 10 * CHUNK_TRIALS, None, None), (1, 10 * CHUNK_TRIALS, 8, None)],
    )
    def test_pool_threads_are_capped(self, monkeypatch, threads, trials, cpus, workers):
        # min(threads, chunks, CPUs) workers, and no pool below two; on a
        # platform without an affinity set the CPUs are os.cpu_count()
        monkeypatch.delattr(urns.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(urns.os, "cpu_count", lambda: cpus)
        started = serial_pool(monkeypatch)
        counts = sample_endpoints(IP, 2, COMPOSITE, trials, 42, threads=threads)
        assert started == ([] if workers is None else [workers])
        assert counts == sample_endpoints(IP, 2, COMPOSITE, trials, 42)

    def test_pool_threads_are_capped_at_the_affinity_set(self, monkeypatch):
        # a cpuset that allows 3 of 64 CPUs caps the pool at 3
        monkeypatch.setattr(urns.os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        monkeypatch.setattr(urns.os, "cpu_count", lambda: 64)
        started = serial_pool(monkeypatch)
        counts = sample_endpoints(IP, 2, COMPOSITE, 10 * CHUNK_TRIALS, 42, threads=5000)
        assert started == [3]
        assert counts == sample_endpoints(IP, 2, COMPOSITE, 10 * CHUNK_TRIALS, 42)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_trials_past_sys_maxsize_chunks_stream(self, monkeypatch, threads):
        # 10**30 trials are more chunks than len() of a range can count;
        # the first chunk comes at once, and closing the walk stops the pool
        monkeypatch.setattr(urns, "_usable_cpus", lambda: threads)
        running = threading.active_count()
        chunks = iter(urns._sample_paths(IP, 0, COMPOSITE, 10**30, 1, steps=1, threads=threads))
        assert next(chunks).shape == (CHUNK_TRIALS, 3)
        del chunks
        assert threading.active_count() == running

    def test_seed_changes_counts(self):
        assert sample_endpoints(IP, 2, COMPOSITE, 10000, 1) != sample_endpoints(
            IP, 2, COMPOSITE, 10000, 2
        )

    def test_experiment1_frequencies_within_four_standard_errors(self):
        trials = 100000
        counts = sample_endpoints(IP, 2, 1, trials, 4242)
        dist = enumerate_step_distribution(IP, 2, 1)
        for state, p in dist.items():
            p = float(p)
            se = (p * (1 - p) / trials) ** 0.5
            assert abs(counts.get(state, 0) / trials - p) <= 4 * se

    def test_experiment2_never_decreases_experiment1_never_increases(self):
        up = sample_endpoints(IP, 4, 2, 20000, 5)
        down = sample_endpoints(IP, 4, 1, 20000, 5)
        assert set(up) <= {4, 5}
        assert set(down) <= {2, 3, 4}

    def test_multi_step_support(self):
        counts = sample_endpoints(IP, 2, COMPOSITE, 5000, 6, steps=3)
        assert sum(counts.values()) == 5000
        assert min(counts) >= 0

    def test_long_runs_never_go_negative(self):
        # 100 trials of 10^4 composite steps, watching every sub-state
        table = _urn_table(IntegerParameters(1, 1, 0), 5, 10000, (1, 2))
        gen = RngStream(123).generator()
        states = np.full(100, 5, dtype=np.int64)
        lowest = 5
        for _ in range(10000):
            states = _advance(table, states, 1, gen)
            lowest = min(lowest, int(states.min()))
            states = _advance(table, states, 2, gen)
            lowest = min(lowest, int(states.min()))
        assert lowest >= 0


INT64_MAX = 2**63 - 1
# the second range makes M N large enough for urn B to cross 2**63 - 1
# at the states drawn below
BALLS = st.integers(1, 2**30) | st.integers(2**28, 2**31)
LARGE_PARAMETERS = st.builds(IntegerParameters, BALLS, BALLS, st.integers(0, 10))


def drawn_states(initial: int, steps: int, experiment) -> tuple[set, set]:
    """(death, birth): the states experiment 1 and experiment 2 draw
    from, walked out one sub-step at a time.  Experiment 1 lowers the
    state by at most two (not below 0), experiment 2 raises it by at
    most one."""
    death, birth, states = set(), set(), {initial}
    for _ in range(steps):
        if experiment != 2:
            death |= states
            states = {max(0, m - down) for m in states for down in (0, 1, 2)}
        if experiment != 1:
            birth |= states
            states = {m + up for m in states for up in (0, 1)}
    return death, birth


def table_urns(ip: IntegerParameters, m: int, death: set, birth: set) -> list:
    """The urn_slots of state m in table slot order (birth A, death A,
    R, B); None where no lane draws."""
    drawn = (m in birth, m in death, m in death, m in death)
    return [slot if lane_draws else None for slot, lane_draws in zip(urn_slots(ip, m), drawn)]


def assert_table_holds(table, ip: IntegerParameters, death: set, birth: set) -> None:
    """``table`` spans the states drawn from, and holds their table_urns,
    with the dummy (0, 1) where no lane draws."""
    lo, (blue, total) = table
    states = range(min(death | birth), max(death | birth) + 1)
    assert lo == states.start and len(blue) == len(total) == 4 * len(states)
    for m in states:
        for k, slot in enumerate(table_urns(ip, m, death, birth)):
            want = _NO_URN if slot is None else slot
            assert (blue[4 * (m - lo) + k], total[4 * (m - lo) + k]) == want


def too_large(ip: IntegerParameters, initial: int, steps: int, experiment) -> bool:
    death, birth = drawn_states(initial, steps, experiment)
    return any(
        slot is not None and slot[1] > INT64_MAX
        for m in death | birth
        for slot in table_urns(ip, m, death, birth)
    )


class TestUrnTable:
    @settings(max_examples=150, deadline=None)
    @given(
        ip=LARGE_PARAMETERS,
        initial=st.integers(0, 40),
        steps=st.integers(1, 25),
        experiment=st.sampled_from(EXPERIMENTS),
    )
    @example(IntegerParameters(2**30, 2**30 - 1, 10), 3, 1, COMPOSITE)  # totals near 2**62
    def test_rows_equal_scalar_urns(self, ip, initial, steps, experiment):
        if too_large(ip, initial, steps, experiment):
            with pytest.raises(ParameterError, match="int64 limit"):
                _urn_table(ip, initial, steps, _PARTS[experiment])
            return
        death, birth = drawn_states(initial, steps, experiment)
        assert_table_holds(_urn_table(ip, initial, steps, _PARTS[experiment]), ip, death, birth)

    @pytest.mark.parametrize("initial, steps", [(0, 1), (1, 3), (6, 4), (21, 2)])
    def test_reversed_order_covers_the_states_it_reaches(self, initial, steps):
        # experiment 2, then 1, the order the Darboux step runs, walked
        # out as drawn_states walks the experiments' own orders
        death, birth, states = set(), set(), {initial}
        for _ in range(steps):
            birth |= states
            states = {m + up for m in states for up in (0, 1)}
            death |= states
            states = {max(0, m - down) for m in states for down in (0, 1, 2)}
        assert_table_holds(_urn_table(IP, initial, steps, (2, 1)), IP, death, birth)

    @settings(max_examples=100, deadline=None)
    @given(
        ip=LARGE_PARAMETERS,
        initial=st.integers(0, 40),
        steps=st.integers(1, 5),
        experiment=st.sampled_from(EXPERIMENTS),
    )
    @example(IntegerParameters(3 * 10**9, 3 * 10**9 + 7, 0), 21, 1, 1)
    def test_sampler_raises_when_a_reachable_total_exceeds_int64(
        self, ip, initial, steps, experiment
    ):
        if too_large(ip, initial, steps, experiment):
            with pytest.raises(ParameterError, match="int64 limit"):
                sample_endpoints(ip, initial, experiment, 3, 1, steps=steps)
        else:
            counts = sample_endpoints(ip, initial, experiment, 3, 1, steps=steps)
            assert sum(counts.values()) == 3

    def test_table_takes_64_bytes_per_state(self):
        # the warm-up call loads whatever the first call loads, which is no
        # table's memory; 10_000 composite steps from 20 draw at states 0..10019
        _urn_table(IP, 20, 10, (1, 2))
        tracemalloc.start()
        try:
            lo, table = _urn_table(IP, 20, 10_000, (1, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        states = 20 + 10_000
        assert lo == 0 and table.shape == (2, 4 * states) and table.dtype == np.int64
        assert peak <= 64 * states + (64 << 10)

    def test_negative_initial_state_rejected(self):
        for experiment in EXPERIMENTS:
            with pytest.raises(ValueError, match="initial_state"):
                sample_endpoints(IP, -1, experiment, 10, 1)

    def test_drawless_calls_build_no_table(self):
        huge = IntegerParameters(3 * 10**9, 3 * 10**9 + 7, 0)
        assert sample_endpoints(huge, 21, 1, 0, 1) == {}
        assert sample_endpoints(huge, 21, 1, 5, 1, steps=0) == {21: 5}

    @pytest.mark.parametrize("step", [experiment1_step, experiment2_step])
    def test_scalar_draw_names_urn_state_and_limit(self, step):
        # urn A at state 21 holds about 22 N > 2**63 - 1 balls in both experiments
        huge = IntegerParameters(1, 5 * 10**17, 0)
        with pytest.raises(ParameterError, match=r"urn A at state 21 .* int64 limit 2\*\*63 - 1"):
            step(huge, 21, RngStream(0).generator())
