"""Command-line front end: coefficient tables, factorization checks,
urn simulations, empirical-vs-exact comparisons, polynomial tables and
transition-diagram export.

Parameters are given either in the general form (--alpha --beta --gamma)
or the integer urn form (--M --N --gamma); the integer form computes in
exact rationals and prints them as p/q strings, the general form computes
in double precision and prints 17 significant digits.  All outputs are
deterministic functions of the flags, including --seed and regardless of
--threads.

:func:`main` is the one input path: before any command runs it checks
the parameters, the urn form for the commands that draw urns, and each
of the command's flags against its lower bound, in the order the
command declares them (see :func:`build_parser`).

A command returns its exit code and its text in pieces, and writes
nothing; :func:`_run` alone writes, to stdout or ``--output``.  The text
of every table and the verify report comes from :func:`_emit`: CSV lines
under the header, or JSON row objects set into the one JSON envelope.

Exit codes: 0 success, 1 runtime failure (a closed stdout, silently),
2 invalid parameters, 3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction


class _Module:
    """A module of the package, imported at the first attribute access
    through this handle, which the module then replaces in this
    namespace: a command loads only the modules it runs, and ``--help``
    none.  The handlers read the four names at call time, so whatever
    stands in them then (such as a tracing proxy) is what they call."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attribute: str):
        # an import statement's own call, which -X importtime reports
        module = globals()[self._name] = __import__(self._name, globals(), None, ["*"], 1)
        return getattr(module, attribute)


analysis, banded, coefficients, urns = map(_Module, ("analysis", "banded", "coefficients", "urns"))

DEFAULT_SEED = 0x4A50  # fixed default so bare invocations reproduce byte-identically

SCHEMA = "1"


def _cell(value) -> str:
    """A cell's text: a float as 17 significant digits, None as an empty
    cell, anything else as its str()."""
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _exact(row: list | tuple, **where) -> list:
    """The row with exact rationals as p/q strings, of any length
    (:func:`main` lifts CPython's int-to-str digit limit).  Called on
    every row before any output starts, so stdout stays empty when a
    float is not finite (no JSON number or DOT label is); ``where`` holds
    the row's key columns, which the error names."""
    for value in row:
        if isinstance(value, float) and not math.isfinite(value):
            at = ", ".join(f"{name} = {key}" for name, key in where.items())
            raise ValueError(f"value {value} at {at} is not finite")
    return [str(value) if isinstance(value, Fraction) else value for value in row]


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# one table row as its object's lines at depth 2 of an indent=2 dump,
# braces included; indent=None keeps json's C encoder
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "), sort_keys=True, allow_nan=False)
# between two row objects at depth 1 of an indent=2 dump
_ROW_SEPARATOR = ",\n    "
# stands in for the trial number in the template of one trajectory trial
_TRIAL_MARKER = "\0"
# the trajectory table's columns, in the order of its template rows
_TRAJECTORY_HEADER = ("trial", "step", "sub_step", "state")
# the most trajectory rows turned into Python ints and text at a time:
# whole trials, or a segment of a trial longer than this
_BLOCK_ROWS = 2048


def _row_text(fmt: str, header, rows) -> Iterator[str]:
    """Each row's text, its cells encoded one by one: a CSV line, or its
    JSON object.  Rows hold scalars only; a CSV cell is None, a bool, an
    int, a finite float or a p/q string (see :func:`_exact`), none of
    which needs quoting."""
    if fmt == "json":
        return (f"{{\n      {_ROW_ENCODER.encode(dict(zip(header, row)))[1:-1]}\n    }}"
                for row in rows)
    return (",".join(map(_cell, row)) + "\n" for row in rows)


def _json_chunks(payload: dict, key: str, objects) -> Iterable[str]:
    """The text of :func:`_dumps` of ``payload`` with a list of row
    objects under ``key``, in pieces: ``objects`` is their text, each
    piece one or more of them joined by :data:`_ROW_SEPARATOR`.  The
    envelope is encoded before this returns, each row only when the
    iterator reaches it, so memory does not grow with the row count.  It
    is split at the key's own line, ``\\n  "<key>": []``, which occurs
    once: JSON escapes every quote and line break inside a string,
    deeper keys are indented further and top-level keys are unique."""
    opening = f"\n  {json.dumps(key)}: "
    head, _, tail = _dumps({**payload, key: []}).partition(opening + "[]")
    return itertools.chain([head + opening], _json_array(objects), [tail])


def _json_array(objects) -> Iterator[str]:
    """The list of row objects as the value of a top-level key."""
    opening = "[\n    "
    for text in objects:
        yield opening + text
        opening = _ROW_SEPARATOR
    yield "[]" if opening[0] == "[" else "\n  ]"


def _emit(args, params, command: str, key=None, header=(), text=(), /, **fields) -> Iterable[str]:
    """The text of every table and the verify report, in pieces that
    :func:`_run` writes: under ``--format csv`` the ``header`` row, then
    ``text``, the table's CSV lines; else one JSON envelope, schema,
    command and parameters beside the command's own ``fields``, keys
    sorted, with ``text``, the table's row objects, as the list under
    ``key`` (the verify report has no table and no ``key``).  Nothing
    raises once a piece is written: every float cell is finite (see
    :func:`_exact`), and trajectory lanes, drawn as they are written,
    had every urn checked before."""
    payload = {"schema": SCHEMA, "command": command, "parameters": _parameters_payload(params)}
    payload.update(fields)
    if key is None:
        return [_dumps(payload)]
    if args.format == "csv":
        return itertools.chain([",".join(header) + "\n"], text)
    return _json_chunks(payload, key, text)


def _resolve_parameters(args) -> coefficients.Parameters | coefficients.IntegerParameters:
    integer_form = args.M is not None or args.N is not None
    general_form = args.alpha is not None or args.beta is not None
    if integer_form and general_form:
        raise coefficients.ParameterError("supply either --alpha/--beta or --M/--N, not both")
    if not integer_form and not general_form:
        raise coefficients.ParameterError(
            "parameters required: --alpha/--beta/--gamma or --M/--N/--gamma"
        )
    if args.gamma is None:
        raise coefficients.ParameterError("--gamma is required")
    if integer_form:
        if args.M is None or args.N is None:
            raise coefficients.ParameterError("integer form requires both --M and --N")
        try:
            gamma = int(args.gamma)
        except ValueError:
            raise coefficients.ParameterError(
                f"--gamma must be a non-negative integer with --M/--N (got {args.gamma!r})"
            ) from None
        return coefficients.IntegerParameters(args.M, args.N, gamma)
    if args.alpha is None or args.beta is None:
        raise coefficients.ParameterError("general form requires both --alpha and --beta")
    try:
        gamma = float(args.gamma)
    except ValueError:
        raise coefficients.ParameterError(
            f"--gamma must be a real number (got {args.gamma!r})"
        ) from None
    return coefficients.Parameters(args.alpha, args.beta, gamma)


def _parameters_payload(params) -> dict:
    form = "integer" if isinstance(params, coefficients.IntegerParameters) else "general"
    return {"form": form, **params._asdict()}


def cmd_coeffs(args, params) -> tuple[int, Iterable[str]]:
    coeffs = coefficients.lu_coefficients(params, args.n_max)
    header = ["n", "x", "y", "t", "r", "s", "a", "b", "c", "d"]
    rows = []
    for n in range(args.n_max + 1):
        trow = coefficients.reconstruct_row(coeffs, n)
        rows.append(_exact(
            [n, coeffs.x[n], coeffs.y[n], coeffs.t[n], coeffs.r[n], coeffs.s[n],
             trow.a, trow.b, trow.c, trow.d],
            n=n,
        ))
    return 0, _emit(args, params, "coeffs", "rows", header, _row_text(args.format, header, rows))


def cmd_verify(args, params) -> tuple[int, Iterable[str]]:
    report = banded.verify_lu(params, args.T)
    return 0 if report.passed else 3, _emit(args, params, "verify", **report.to_dict())


def cmd_simulate(args, params) -> tuple[int, Iterable[str]]:
    experiment = urns.COMPOSITE if args.experiment == "composite" else int(args.experiment)
    meta = dict(experiment=args.experiment, initial=args.initial, steps=args.steps,
                trials=args.trials, seed=args.seed)
    if args.aggregate:
        counts = urns.sample_endpoints(
            params, args.initial, experiment, args.trials, args.seed,
            steps=args.steps, threads=args.threads,
        )
        header = ["state", "count"]
        return 0, _emit(args, params, "simulate", "counts", header,
                        _row_text(args.format, header, sorted(counts.items())), **meta)
    chunks = urns._sample_paths(params, args.initial, experiment, args.trials, args.seed,
                                steps=args.steps)
    sub_steps = range(1, len(urns._PARTS[experiment]) + 1)
    labels = itertools.chain([(0, 0)], itertools.product(range(1, args.steps + 1), sub_steps))
    return 0, _emit(args, params, "simulate", "rows", _TRAJECTORY_HEADER,
                    _trajectory_text(args.format, chunks, labels), **meta)


def _trajectory_text(fmt: str, chunks, labels) -> Iterator[str]:
    """The trajectory table's rows, one row per path entry in trial
    order, in pieces: CSV lines, or row objects joined for
    :func:`_json_chunks`.  ``chunks`` yields the paths, a row per trial,
    read a chunk at a time; ``labels`` is each path entry's (step,
    sub_step).  One trial's text is built once by :func:`_row_text` as a
    template, in segments of at most :data:`_BLOCK_ROWS` rows: those
    labels written in, each state a ``%d`` field and the trial number
    :data:`_TRIAL_MARKER`, which stand in the text for the row's -2 and
    -1 (labels are >= 0); the str() of an int is its CSV and its JSON
    text.  A piece holds at most :data:`_BLOCK_ROWS` rows: whole trials,
    or one segment of a longer one."""
    rows = _row_text(fmt, _TRAJECTORY_HEADER, ((-1, step, sub, -2) for step, sub in labels))
    separator = _ROW_SEPARATOR if fmt == "json" else ""
    templates = []
    while segment := list(itertools.islice(rows, _BLOCK_ROWS)):
        templates.append(separator.join(segment).replace("-2", "%d").replace("-1", _TRIAL_MARKER))
    numbered = 0
    for paths in chunks:
        # a trial of one segment shares its piece with the next trials; a
        # longer one fills pieces alone
        trials = max(1, _BLOCK_ROWS // paths.shape[1])
        for first in range(0, len(paths), trials):
            for start, template in zip(itertools.count(0, _BLOCK_ROWS), templates):
                block = paths[first:first + trials, start:start + _BLOCK_ROWS].tolist()
                yield separator.join(
                    template.replace(_TRIAL_MARKER, str(trial)) % tuple(states)
                    for trial, states in enumerate(block, numbered + first)
                )
        numbered += len(paths)


def cmd_compare(args, params) -> tuple[int, Iterable[str]]:
    header = ["initial", "trials", "tv_distance", "chi_square", "dof", "chi_square_0999", "ok"]
    rows = []
    for start in args.initial or [0]:
        counts = urns.sample_endpoints(
            params, start, urns.COMPOSITE, args.trials, args.seed,
            stream_offset=start << 20, threads=args.threads,
        )
        exact = urns.composite_distribution(params, start)
        empirical = analysis.EmpiricalDistribution.from_counts(counts)
        tv = analysis.tv_distance(empirical, exact)
        statistic, dof = analysis.chi_square_statistic(empirical, exact)
        threshold = analysis.chi_square_threshold(dof)
        rows.append(_exact(
            [start, args.trials, tv, statistic, dof, threshold, statistic <= threshold],
            initial=start,
        ))
    return 0, _emit(args, params, "compare", "rows", header, _row_text(args.format, header, rows),
                    trials=args.trials, seed=args.seed)


def cmd_poly(args, params) -> tuple[int, Iterable[str]]:
    exact = isinstance(params, coefficients.IntegerParameters)
    texts = args.x or ["1"]
    # every point is checked first: the table can take seconds to build
    points = []
    for text in texts:
        try:
            point = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise coefficients.ParameterError(
                f"--x must be a rational number (got {text!r})"
            ) from None
        if not exact:
            try:
                point = float(point)
            except OverflowError:
                raise coefficients.ParameterError(
                    f"--x overflows a double (got {text!r})"
                ) from None
        points.append(point)
    coeffs = coefficients.lu_coefficients(params, args.n_max)
    table = [coefficients.reconstruct_row(coeffs, n) for n in range(args.n_max)]
    header = ["x", "n", "q"]
    rows = []
    for text, point in zip(texts, points):
        for n, value in enumerate(analysis._recursion(table, point)):
            rows.append(_exact([point, n, value], x=text, n=n))
    return 0, _emit(args, params, "poly", "rows", header, _row_text(args.format, header, rows))


def cmd_graph(args, params) -> tuple[int, Iterable[str]]:
    coeffs = coefficients.lu_coefficients(params, args.T - 1)
    builder = {"P": "reconstructed_matrix", "PL": "death_factor", "PU": "birth_factor"}[args.which]
    matrix = getattr(banded, builder)(coeffs, args.T)
    text = [f"digraph {args.which} {{\n  rankdir=LR;\n"]
    text += (f"  {state};\n" for state in range(args.T))
    for i, row in enumerate(matrix.rows):
        _exact(row, state=i)  # every entry is finite before the first byte
        # row i starts at column i - lower; from_rows stores 0 outside the matrix
        text += (f'  {i} -> {j} [label="{_cell(value)}"];\n'
                 for j, value in enumerate(row, i - matrix.lower_bandwidth) if value != 0)
    return 0, [*text, "}\n"]


def build_parser() -> argparse.ArgumentParser:
    """The parser, each subcommand declared once by ``command``: its
    handler, help and output formats, whether it needs the urn form
    (--M/--N/--gamma) and its flags' lower bounds, ``(flag, least)``
    pairs that :func:`main` checks in order."""
    parser = argparse.ArgumentParser(
        prog="urnchain",
        description=(
            "Pentadiagonal urn-model Markov chain: exact coefficients, stochastic "
            "LU verification, ball-level simulation and statistics."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *bounds, formats=("csv", "json"), urn_form=False):
        sub = subparsers.add_parser(name, help=summary)
        group = sub.add_argument_group("parameters (choose one form)")
        group.add_argument("--alpha", type=float, help="general form: alpha > -1")
        group.add_argument("--beta", type=float, help="general form: beta > -1, |alpha - beta| < 1")
        group.add_argument(
            "--gamma",
            help="shared by both forms: real > -1 with --alpha/--beta, integer >= 0 with --M/--N",
        )
        group.add_argument("--M", type=int, help="integer form: alpha = 1/M, M >= 1")
        group.add_argument("--N", type=int, help="integer form: beta = 1/N, N >= 1")
        if formats:
            sub.add_argument(
                "--format", choices=formats, default=formats[0],
                help=f"output format (default {formats[0]})",
            )
        sub.add_argument("--output", help="write to this path instead of stdout")
        sub.set_defaults(func=func, urn_form=urn_form, bounds=bounds)
        return sub

    def add_sampling(sub):
        sub.add_argument(
            "--seed", type=int, default=DEFAULT_SEED,
            help=f"RNG seed; fixed default {DEFAULT_SEED:#06x} keeps bare runs reproducible",
        )
        sub.add_argument("--threads", type=int, default=1, help="worker threads (result-invariant)")

    sub = command("coeffs", cmd_coeffs, "coefficient and transition-row table", ("--n-max", 0))
    sub.add_argument("--n-max", type=int, default=10, help="largest state index (default 10)")

    sub = command(
        "verify", cmd_verify, "factorization and invariant checks (JSON report)", ("--T", 1),
        formats=None,
    )
    sub.add_argument("--T", type=int, default=200, help="truncation dimension (default 200)")

    sub = command(
        "simulate", cmd_simulate, "run urn experiments (integer form only)",
        ("--initial", 0), ("--steps", 0), ("--trials", 0), ("--threads", 1), ("--seed", 0),
        urn_form=True,
    )
    sub.add_argument(
        "--experiment", choices=["1", "2", "composite"], default="composite",
        help="which step to run (default composite: experiment 1 then 2)",
    )
    sub.add_argument("--initial", type=int, default=0, help="start state (default 0)")
    sub.add_argument("--steps", type=int, default=1, help="steps per trial (default 1)")
    sub.add_argument("--trials", type=int, default=1, help="independent trials (default 1)")
    add_sampling(sub)
    sub.add_argument(
        "--aggregate", action="store_true",
        help="emit end-state counts instead of full trajectories",
    )

    sub = command(
        "compare", cmd_compare, "empirical composite-step law vs exact row (integer form only)",
        ("--initial", 0), ("--trials", 1), ("--threads", 1), ("--seed", 0), urn_form=True,
    )
    # no default: argparse would append to it; cmd_compare reads None as [0]
    sub.add_argument(
        "--initial", type=int, action="append",
        help="start state; repeatable (default 0)",
    )
    sub.add_argument("--trials", type=int, default=100000, help="trials per state (default 100000)")
    add_sampling(sub)

    sub = command("poly", cmd_poly, "polynomial values via the four-band recursion", ("--n-max", 0))
    sub.add_argument("--n-max", type=int, default=10, help="largest polynomial index (default 10)")
    sub.add_argument(
        "--x", action="append",
        help="evaluation point, rational like 1 or 3/4; repeatable (default 1)",
    )

    sub = command(
        "graph", cmd_graph, "transition digraph in DOT format", ("--T", 1), formats=["dot"]
    )
    sub.add_argument(
        "--which", choices=["P", "PL", "PU"], default="P",
        help="composite chain (P), pure-death factor (PL) or pure-birth factor (PU)",
    )
    sub.add_argument("--T", type=int, default=6, help="number of states drawn (default 6)")

    return parser


def main(argv=None) -> int:
    # exact p/q output can run past CPython's int-to-str digit limit;
    # lift it for this command only, as main also runs in process (the
    # tests, the bench); interpreters without the limit lack the function
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def _run(args) -> int:
    """Check the parsed command's input, run it and write its text: the
    CLI's one writer.  The parser exits on --help and on a usage error
    before this ``except coefficients.ParameterError``, which imports that
    module when an exception reaches it, so neither loads a package module."""
    try:
        params = _resolve_parameters(args)
        if args.urn_form and not isinstance(params, coefficients.IntegerParameters):
            raise coefficients.ParameterError(
                "this command simulates urns and requires --M/--N/--gamma"
            )
        for flag, least in args.bounds:
            given = getattr(args, flag.lstrip("-").replace("-", "_"))
            # a repeatable flag holds a list, or None when not given
            if given is not None and min(given if isinstance(given, list) else [given]) < least:
                raise coefficients.ParameterError(f"{flag} must be >= {least}")
        code, pieces = args.func(args, params)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(pieces)
            return code
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader went away: end quietly
            # the interpreter's last flush of stdout goes to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return code
    except coefficients.ParameterError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract
        # an exception without a message, such as MemoryError(), by its type
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
