"""The public surface the ROADMAP tracks: the names in ``urnchain.__all__``,
each imported from its module at its first use, and the runtime
dependencies declared in ``pyproject.toml``."""

import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import urnchain

# the size of __all__ recorded in ROADMAP.md; change both together
TRACKED_ALL_SIZE = 26

# the ball-level reference steps and the urn-route alias: the tests and
# the benchmark read them in their modules, and the package does not export them
UNEXPORTED = {
    "urns": ("BLUE", "RED", "StepOutcome", "Trajectory", "composite_step", "experiment1_step",
             "experiment2_step", "run_trajectory"),
    "coefficients": ("lu_coefficients_integer",),
}


def test_all_is_sorted_without_duplicates():
    assert urnchain.__all__ == sorted(set(urnchain.__all__))


def test_every_exported_name_resolves():
    assert [name for name in urnchain.__all__ if not hasattr(urnchain, name)] == []


def test_all_size_matches_the_tracked_count():
    assert len(urnchain.__all__) == TRACKED_ALL_SIZE


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    # a PEP 508 requirement starts with the project name
    assert [re.match(r"[A-Za-z0-9._-]+", requirement)[0] for requirement in dependencies] == [
        "numpy"
    ]


def fresh_import() -> tuple[list[str], list[str], list[str]]:
    """``sys.modules`` just after ``import urnchain`` in a fresh
    interpreter, before any name of the package is read, then
    ``dir(urnchain)``, then ``sys.modules`` again."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    script = "import sys, urnchain; print(*sys.modules); print(*dir(urnchain)); print(*sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    modules, names, after_dir = result.stdout.splitlines()
    return modules.split(), names.split(), after_dir.split()


def package_modules(modules: list[str]) -> list[str]:
    return [name for name in modules if name.startswith("urnchain.")]


def test_import_loads_no_module_of_the_package():
    modules, _, _ = fresh_import()
    assert package_modules(modules) == []


def test_dir_lists_every_exported_name():
    _, names, _ = fresh_import()
    assert set(urnchain.__all__) <= set(names)


def test_dir_loads_no_module_of_the_package():
    # dir() lists the names of __all__ without resolving any of them
    _, _, after_dir = fresh_import()
    assert package_modules(after_dir) == []


def test_star_import_binds_each_name_to_its_definition():
    namespace = {}
    exec("from urnchain import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == urnchain.__all__
    modules = [
        importlib.import_module(f"urnchain.{name}")
        for name in ("analysis", "banded", "coefficients", "urns")
    ]
    for name in urnchain.__all__:
        # a module that imports the name from another holds the same object
        holders = [vars(module)[name] for module in modules if name in vars(module)]
        assert holders and all(value is namespace[name] for value in holders), name


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in UNEXPORTED.items() for name in names]
)
def test_reference_names_stay_in_their_module(module, name):
    with pytest.raises(AttributeError):
        getattr(urnchain, name)
    namespace = {}
    exec("from urnchain import *", namespace)
    assert name not in dir(urnchain) and name not in namespace
    assert hasattr(importlib.import_module(f"urnchain.{module}"), name)


def value_types() -> dict:
    """One instance of each value type, keyed by class name, with a field
    to assign to."""
    from urnchain import urns
    from urnchain.banded import CheckResult

    ip = urnchain.IntegerParameters(2, 3, 1)
    coeffs = urnchain.lu_coefficients(ip, 4)
    stream = urnchain.RngStream(1)
    instances = [
        (urnchain.Parameters(0.5, 0.5, 0.0), "alpha"),
        (ip, "M"),
        (coeffs, "x"),
        (urnchain.reconstruct_row(coeffs, 2), "a"),
        (urnchain.death_factor(coeffs, 3), "size"),
        (CheckResult("check", True, 0.0), "passed"),
        (urnchain.verify_lu(ip, 4), "checks"),
        (urnchain.EmpiricalDistribution.from_counts({0: 1}), "total"),
        (urnchain.evaluate_polynomials(coeffs, 1, 3), "values"),
        (stream, "seed"),
        (urns.experiment2_step(ip, 0, stream.generator()), "end_state"),
        (urns.run_trajectory(ip, 0, 2, stream), "states"),
    ]
    return {type(value).__name__: (value, field) for value, field in instances}


@pytest.mark.parametrize("name", sorted(value_types()))
def test_value_types_reject_assignment(name):
    value, field = value_types()[name]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    # no instance dict either: a value holds its fields and nothing else
    with pytest.raises(AttributeError):
        value.note = "kept"


def input_checks() -> dict:
    """Calls that break one input check of the library each, keyed by
    test id, with the error each must raise."""
    from urnchain.coefficients import urn_slots

    ip = urnchain.IntegerParameters(2, 3, 1)
    # x_0 = 0: the chain cannot leave state 0, so q_1 is undefined
    stuck = urnchain.LUCoefficients(*[(Fraction(value),) * 2 for value in (0, 1, 1, 0, 0)])
    mixed = urnchain.BandedMatrix(2, 0, 0, [(0.5,), (Fraction(1, 2),)])
    death = urnchain.death_factor(urnchain.lu_coefficients(ip, 2), 3)
    pair = urnchain.EmpiricalDistribution.from_counts({0: 1, 1: 1})
    return {
        "walk-experiment": (lambda: urnchain.sample_endpoints(ip, 0, 3, 1, 1),
                            r"experiment must be one of \(1, 2, 'composite'\) \(got 3\)"),
        "walk-trials": (lambda: urnchain.sample_endpoints(ip, 0, 1, -1, 1),
                        r"trials must be >= 0 \(got -1\)"),
        "walk-steps": (lambda: urnchain.sample_endpoints(ip, 0, 1, 1, 1, steps=-1),
                       r"steps must be >= 0 \(got -1\)"),
        "walk-threads": (lambda: urnchain.sample_endpoints(ip, 0, 1, 1, 1, threads=-3),
                         r"threads must be >= 1 \(got -3\)"),
        "urn-slots-state": (lambda: urn_slots(ip, -1), r"state must be >= 0 \(got -1\)"),
        "lu-coefficients-n-max": (lambda: urnchain.lu_coefficients(ip.as_parameters(), -1),
                                  r"n_max must be >= 0 \(got -1\)"),
        "polynomials-n-max": (lambda: urnchain.evaluate_polynomials(stuck, 1, -1),
                              r"n_max must be >= 0 \(got -1\)"),
        "polynomials-up-probability": (lambda: urnchain.evaluate_polynomials(stuck, 1, 1),
                                       r"up probability a_0 = 0 is not positive"),
        "scalar-kind-mixed": (mixed.scalar_kind, r"matrix mixes float and Fraction entries"),
        # the constructor is the one check: _make and _replace go through it
        "banded-bandwidth": (lambda: urnchain.BandedMatrix(3, -1, 0, [(1,)] * 3),
                             r"bandwidths must be >= 0 \(got -1, 0\)"),
        "banded-width": (lambda: urnchain.BandedMatrix(3, 1, 1, [(1,)] * 3),
                         r"band rows must hold 3 values \(lower \+ upper \+ 1\)"),
        "banded-rows": (lambda: urnchain.BandedMatrix(3, 0, 0, [(1,), (1,)]),
                        r"insufficient rows: 2 band rows for a 3x3 matrix"),
        "banded-replace-size": (lambda: death._replace(size=5),
                                r"insufficient rows: 3 band rows for a 5x5 matrix"),
        "banded-replace-bandwidth": (lambda: death._replace(lower_bandwidth=0),
                                     r"band rows must hold 1 values \(lower \+ upper \+ 1\)"),
        "empirical-total": (lambda: urnchain.EmpiricalDistribution({0: 5}, 3),
                            r"total must be the sum of the counts, 5 \(got 3\)"),
        "empirical-replace-negative": (lambda: pair._replace(counts={0: -4, 1: 6}),
                                       r"negative count"),
    }


@pytest.mark.parametrize("check", sorted(input_checks()))
def test_library_input_checks_raise(check):
    call, message = input_checks()[check]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
