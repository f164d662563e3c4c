"""The public surface the ROADMAP tracks: the names in ``urnchain.__all__``
and the runtime dependencies declared in ``pyproject.toml``."""

import re
from pathlib import Path

import pytest

import urnchain

# the size of __all__ recorded in ROADMAP.md; change both together
TRACKED_ALL_SIZE = 38


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
