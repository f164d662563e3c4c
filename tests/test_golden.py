"""Replay of the recorded stdout corpus, ``tests/golden/manifest.json``.

Every case runs ``urnchain <argv>`` in process and must give the recorded
exit code and the recorded bytes on stdout and stderr.  After a change
that is meant to move an output, ``python tests/golden/record.py``
re-records the corpus and the diff of ``tests/golden`` shows what moved.

The cases of the groups in ``NAMED_IN_TEST_CLI`` replay in
``tests/test_cli.py``, under the test names their bytes were first pinned
with there; this file replays every other case.
"""

import hashlib
import json

import pytest

from golden.record import HERE, MANIFEST, run

CASES = {case["id"]: case for case in json.loads(MANIFEST.read_text(encoding="utf-8"))}

NAMED_IN_TEST_CLI = (
    "aggregate", "trajectory", "trajectory-table", "verify-graph", "json-table", "compare",
    "gate", "help",
)


def names(group: str) -> list[str]:
    """The names of a group's cases: each case id is ``<group>/<name>``."""
    return [case_id.split("/", 1)[1] for case_id in CASES if case_id.startswith(group + "/")]


def check(case_id: str, stream: str, text: str, stored) -> None:
    if isinstance(stored, str):
        assert text == stored, f"{case_id}: {stream}"
    elif "file" in stored:
        assert text == (HERE / stored["file"]).read_bytes().decode(), f"{case_id}: {stream}"
    else:
        data = text.encode()
        digest = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        assert digest == stored, f"{case_id}: {stream}"


def replay(case_id: str, output=None) -> None:
    """Run the case and compare it with its record; with an ``output``
    path, run it once more with ``--output`` there, which must leave
    stdout empty and write the recorded stdout to the file."""
    case = CASES[case_id]
    code, out, err = run(case["argv"])
    assert code == case["exit"], f"{case_id}: exit code"
    check(case_id, "stdout", out, case["stdout"])
    check(case_id, "stderr", err, case["stderr"])
    if output is not None:
        code, out, err = run([*case["argv"], "--output", str(output)])
        assert (code, out) == (case["exit"], ""), f"{case_id}: with --output"
        check(case_id, "stderr", err, case["stderr"])
        check(case_id, "--output file", output.read_bytes().decode(), case["stdout"])


@pytest.mark.parametrize(
    "case_id", [case_id for case_id in CASES if case_id.split("/")[0] not in NAMED_IN_TEST_CLI]
)
def test_case_replays_its_record(case_id):
    replay(case_id)


def test_every_group_has_cases():
    # a group renamed in the recorder would leave its runner in
    # tests/test_cli.py with no case to run
    assert all(names(group) for group in NAMED_IN_TEST_CLI)
