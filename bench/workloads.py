"""The benchmark's workloads: seeded command lists for the urnchain CLI.

Every workload draws its parameters, start states, evaluation points and
CLI seeds from ``random.Random(seed)``; sizes (truncations, trials, steps)
are fixed per workload so that the amount of work, and with it the timing,
does not depend on the seed.  The program only ever sees the generated
flags.

Why these three workloads (each layer change shows on one and must not on
another):

* ``algebra``: exact and float coefficient, banded and polynomial work, and
  no urn sampling, so a sampler change must not move it;
* ``montecarlo``: the vectorized sampler, its thread pool and the
  chi-square comparison, with a few hundred bytes of output, so a change
  to the output layer must not move it;
* ``trajectories``: the scalar ball-level sampler and the CLI row
  emitter with megabytes of output, where streaming output and vectorized
  trajectory lanes show and a change to the aggregate sampler alone does
  not.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("algebra", "montecarlo", "trajectories")

# one wall time per command kind; every command the benchmark runs has one
KINDS = (
    "coeffs",
    "verify_exact",
    "verify_float",
    "poly",
    "graph",
    "simulate_agg",
    "compare",
    "simulate_traj",
)

# the workload whose passes run each kind
KIND_WORKLOAD = {
    kind: "algebra" for kind in ("coeffs", "verify_exact", "verify_float", "poly", "graph")
} | {"simulate_agg": "montecarlo", "compare": "montecarlo", "simulate_traj": "trajectories"}

NPROC = len(os.sched_getaffinity(0))

# trials per vectorized chunk in urnchain.urns (CHUNK_TRIALS); sizes below
# are whole numbers of chunks so every chunk is full
CHUNK = 1 << 14


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m urnchain <argv>``."""

    kind: str
    argv: tuple[str, ...]

    @property
    def flags(self) -> dict:
        """Flag -> value; repeated flags map to a list, bare flags to True."""
        out: dict = {}
        repeatable = {"poly": "--x", "compare": "--initial"}.get(self.argv[0])
        for token in self.argv[1:]:
            name, _, value = token.partition("=")
            if name == repeatable:
                out.setdefault(name, []).append(value)
            else:
                out[name] = value or True
        return out

    def __str__(self) -> str:
        return "urnchain " + " ".join(self.argv)


def _command(kind: str, name: str, params: dict, **options) -> Command:
    argv = [name]
    for flag, value in [*params.items(), *options.items()]:
        flag = "--" + flag.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            argv.append(flag if item is True else f"{flag}={item}")
    return Command(kind, tuple(argv))


def small_urns(rng: random.Random) -> dict:
    return {"M": rng.randint(1, 9), "N": rng.randint(1, 9), "gamma": rng.randint(0, 5)}


def large_urns(rng: random.Random) -> dict:
    return {
        "M": rng.randint(10**6, 2 * 10**6),
        "N": rng.randint(10**6, 2 * 10**6),
        "gamma": rng.randint(0, 5),
    }


def spread_urns(rng: random.Random, top: int) -> dict:
    """Urn sizes log-uniform in [1, 10**top]."""
    return {
        "M": int(10 ** rng.uniform(0, top)),
        "N": int(10 ** rng.uniform(0, top)),
        "gamma": rng.randint(0, 5),
    }


def general(rng: random.Random) -> dict:
    """Float parameters inside the stochastic region (|alpha - beta| < 1)."""
    alpha = rng.uniform(-0.5, 4.0)
    beta = rng.uniform(max(-0.5, alpha - 0.9), min(4.0, alpha + 0.9))
    return {"alpha": repr(alpha), "beta": repr(beta), "gamma": repr(rng.uniform(-0.5, 5.0))}


def points(rng: random.Random, count: int) -> list[str]:
    """x = 1 (where q_n(1) = 1 is checked) plus distinct eighths in [-1, 1]."""
    others = rng.sample([k for k in range(-8, 8)], count)
    return ["1"] + [str(Fraction(k, 8)) for k in others]


def seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


@dataclass(frozen=True)
class Sizes:
    coeffs_n: int
    verify_small_T: int
    verify_large_T: int
    verify_float_T: int
    poly_n: int
    graph_T: int
    agg_trials: int
    agg_steps: int
    compare_trials: int
    invariance_trials: int
    traj_csv_trials: int
    traj_json_trials: int
    traj_steps: int


FULL = Sizes(
    coeffs_n=1000,
    verify_small_T=2500,
    verify_large_T=1200,
    verify_float_T=15000,
    poly_n=300,
    graph_T=200,
    agg_trials=6 * CHUNK,
    agg_steps=60,
    compare_trials=6 * CHUNK,
    invariance_trials=2 * CHUNK,
    traj_csv_trials=1000,
    traj_json_trials=250,
    traj_steps=100,
)

# tiny instances of the same command lists, for the benchmark's own tests
SMOKE = Sizes(
    coeffs_n=20,
    verify_small_T=20,
    verify_large_T=20,
    verify_float_T=50,
    poly_n=10,
    graph_T=8,
    agg_trials=CHUNK + 7,
    agg_steps=3,
    compare_trials=2000,
    invariance_trials=CHUNK + 7,
    traj_csv_trials=5,
    traj_json_trials=3,
    traj_steps=4,
)


def algebra(rng: random.Random, size: Sizes) -> list[Command]:
    small, large, floats = small_urns(rng), large_urns(rng), general(rng)
    return [
        _command("coeffs", "coeffs", small, n_max=size.coeffs_n, format="json"),
        _command("verify_exact", "verify", small, T=size.verify_small_T),
        _command("verify_exact", "verify", large, T=size.verify_large_T),
        _command("verify_float", "verify", floats, T=size.verify_float_T),
        _command("poly", "poly", small, x=points(rng, 3), n_max=size.poly_n),
        _command("poly", "poly", floats, x=points(rng, 3), n_max=size.poly_n, format="json"),
        _command("graph", "graph", small, which=rng.choice(["P", "PL", "PU"]), T=size.graph_T),
    ]


def montecarlo(rng: random.Random, size: Sizes) -> list[Command]:
    urns = spread_urns(rng, 6)
    common = {"trials": size.agg_trials, "steps": size.agg_steps, "threads": NPROC}
    return [
        _command("simulate_agg", "simulate", urns, experiment="1", initial=rng.randint(0, 40),
                 seed=seed(rng), aggregate=True, **common),
        _command("simulate_agg", "simulate", urns, experiment="2", initial=rng.randint(0, 40),
                 seed=seed(rng), aggregate=True, format="json", **common),
        _command("simulate_agg", "simulate", urns, experiment="composite",
                 initial=rng.randint(0, 40), seed=seed(rng), aggregate=True, **common),
        _command("compare", "compare", urns, initial=sorted(rng.sample(range(31), 4)),
                 trials=size.compare_trials, seed=seed(rng), threads=NPROC, format="json"),
    ]


def trajectories(rng: random.Random, size: Sizes) -> list[Command]:
    urns = spread_urns(rng, 3)
    return [
        _command("simulate_traj", "simulate", urns, initial=rng.randint(0, 40),
                 steps=size.traj_steps, trials=size.traj_csv_trials, seed=seed(rng)),
        _command("simulate_traj", "simulate", urns, initial=rng.randint(0, 40),
                 steps=size.traj_steps, trials=size.traj_json_trials, seed=seed(rng),
                 format="json"),
    ]


def invariance_pair(rng: random.Random, size: Sizes) -> tuple[Command, Command]:
    """The same small aggregate run with 1 thread and with nproc threads;
    their stdout must be byte-identical."""
    urns = spread_urns(rng, 6)
    flags = {"initial": rng.randint(0, 40), "steps": 10, "trials": size.invariance_trials,
             "seed": seed(rng), "aggregate": True}
    return (
        _command("simulate_agg", "simulate", urns, threads=1, **flags),
        _command("simulate_agg", "simulate", urns, threads=NPROC, **flags),
    )


def mini(rng: random.Random) -> dict[str, Command]:
    """One tiny command per kind, for the per-layer run of workloads that
    do not run that kind, so every per-layer metric exists everywhere."""
    small, floats, urns = small_urns(rng), general(rng), spread_urns(rng, 3)
    return {
        "coeffs": _command("coeffs", "coeffs", small, n_max=50, format="json"),
        "verify_exact": _command("verify_exact", "verify", small, T=50),
        "verify_float": _command("verify_float", "verify", floats, T=200),
        "poly": _command("poly", "poly", small, x=points(rng, 1), n_max=20),
        "graph": _command("graph", "graph", small, T=10),
        "simulate_agg": _command("simulate_agg", "simulate", urns, initial=rng.randint(0, 40),
                                 steps=5, trials=CHUNK, seed=seed(rng), aggregate=True),
        "compare": _command("compare", "compare", urns, initial=[rng.randint(0, 30)],
                            trials=CHUNK, seed=seed(rng)),
        "simulate_traj": _command("simulate_traj", "simulate", urns, initial=rng.randint(0, 40),
                                  steps=20, trials=10, seed=seed(rng)),
    }


BUILDERS = {"algebra": algebra, "montecarlo": montecarlo, "trajectories": trajectories}


@dataclass(frozen=True)
class Plan:
    """Everything one run executes, drawn from the workload seed."""

    commands: tuple[Command, ...]
    once: tuple[tuple[Command, Command], ...]
    mini: dict
    probe: dict


def plan(workload: str, seed_value: int, smoke: bool = False) -> Plan:
    size = SMOKE if smoke else FULL
    # independent streams, so adding a draw to one part leaves the others alone
    streams = [random.Random(f"{workload}/{seed_value}/{part}") for part in range(4)]
    commands = BUILDERS[workload](streams[0], size)
    once = (invariance_pair(streams[1], size),) if workload == "montecarlo" else ()
    probe_rng = streams[3]
    probe = {
        "small": small_urns(probe_rng),
        "large": large_urns(probe_rng),
        "general": general(probe_rng),
        "urns": spread_urns(probe_rng, 3),
        "x": Fraction(points(probe_rng, 1)[1]),
        "initial": probe_rng.randint(0, 40),
        "seed": seed(probe_rng),
        "smoke": smoke,
    }
    return Plan(tuple(commands), once, mini(streams[2]), probe)
