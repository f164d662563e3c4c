"""In-process tracing of the calls into each urnchain module.

The package is not changed: while a traced pass runs, the benchmark swaps
the public functions of ``coefficients``, ``banded``, ``urns`` and
``analysis`` for timing wrappers at the points where one module calls
another (and, inside ``banded``, where ``verify_factorization`` calls the
builders and ``multiply``, to split verify time), and puts the originals
back afterwards.  Calls inside ``urns`` (``run_trajectory`` ->
``composite_step`` -> ``experiment1_step``) stay untraced, so a scalar
step pays for at most one span.

Each span records its name, start, end, parent span, operation id (one
per top-level command or probe call), a count of work done and a tag.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from contextlib import contextmanager

from workloads import CHUNK, KIND_WORKLOAD, KINDS

# Measures: (args, kwargs, result) -> (count of work done, tag), computed
# after the call returns.


def _rows(args, kwargs, result):
    return len(result.x), None


def _matrix_kind(args, kwargs, result):
    floats = any(isinstance(value, float) for value in result.rows[-1])
    return 1, "float" if floats else "exact"


def entries_compared(size: int) -> int:
    """Product entries compared by the lu_identity check of
    ``verify_factorization``: the in-band columns of rows 0..size-3."""
    return sum(min(size - 1, i + 1) - max(0, i - 2) + 1 for i in range(max(size - 2, 0)))


def _report(args, kwargs, result):
    return entries_compared(result.size), "float" if result.kind == "float" else "exact"


def _poly(args, kwargs, result):
    return len(result.values) - 1, "float" if isinstance(result.x, float) else "exact"


def _trajectory(args, kwargs, result):
    return len(result.states), None


def _sampler(args, kwargs, result):
    """Lane-steps done, and (threads, chunks); ``steps`` and ``threads``
    are keyword-only in ``sample_endpoints``."""
    trials = args[3] if len(args) > 3 else kwargs["trials"]
    chunks = -(-trials // CHUNK)
    return trials * kwargs.get("steps", 1), (kwargs.get("threads", 1), chunks)


TRACED = {
    "coefficients": {
        "lu_coefficients": _rows,
        "lu_coefficients_integer": _rows,
        "reconstruct_row": None,
    },
    "banded": {
        "death_factor": _matrix_kind,
        "birth_factor": _matrix_kind,
        "reconstructed_matrix": _matrix_kind,
        "multiply": _matrix_kind,
        "verify_factorization": _report,
        "verify_lu": _report,
    },
    "urns": {
        "sample_endpoints": _sampler,
        "run_trajectory": _trajectory,
        "composite_step": None,
        "experiment1_step": None,
        "experiment2_step": None,
    },
    "analysis": {
        "evaluate_polynomials": _poly,
        "tv_distance": None,
        "chi_square_statistic": None,
        "chi_square_threshold": None,
    },
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "count", "tag")

    def __init__(self, name, parent, op, tag=None):
        self.name, self.parent, self.op, self.tag = name, parent, op, tag
        self.start = self.end = 0.0
        self.count = 1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _open(self, name: str, tag=None) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span = Span(name, stack[-1] if stack else -1, self.op, tag)
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def _close(self) -> None:
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        span = self._open(name, tag)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._close()

    def wrap(self, name: str, function, measure):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                self._close()
            if measure is not None:
                span.count, span.tag = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    def write(self, path, ops) -> None:
        """Spans as gzip'd JSON lines: one header line with the operation
        names, then one line per span."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"ops": ops}) + "\n")
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index, span.name, span.start, span.end, span.parent,
                                         span.op, span.count, span.tag]) + "\n")


class _ModuleProxy:
    """A module whose traced functions are replaced by wrappers."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def instrument(tracer: Tracer, modules: dict):
    """Swap traced wrappers into the package for the duration of the block.

    ``modules`` maps layer name -> module for coefficients, banded, urns,
    analysis and cli.  Yields proxies of the four library modules through
    which the benchmark's own probe calls are traced too.
    """
    wrapped = {
        layer: {
            name: tracer.wrap(f"{layer}.{name}", getattr(modules[layer], name), measure)
            for name, measure in functions.items()
        }
        for layer, functions in TRACED.items()
    }
    patches = []  # (namespace, attribute, original)
    for holder in ("cli", "banded", "analysis"):
        namespace = modules[holder]
        for layer, functions in wrapped.items():
            if layer == holder and layer != "banded":
                continue
            for name, wrapper in functions.items():
                if getattr(namespace, name, None) is wrapper.__wrapped__:
                    patches.append((namespace, name, wrapper.__wrapped__))
                    setattr(namespace, name, wrapper)
    proxies = {layer: _ModuleProxy(modules[layer], wrapped[layer]) for layer in TRACED}
    cli = modules["cli"]
    for layer in ("urns", "banded", "analysis"):
        patches.append((cli, layer, getattr(cli, layer)))
        setattr(cli, layer, proxies[layer])
    try:
        yield proxies
    finally:
        for namespace, name, original in reversed(patches):
            setattr(namespace, name, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Per span: duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            start, end = max(child.start, edge), min(child.end, span.end)
            if end > start:
                covered += end - start
                edge = end
        out.append(span.seconds - covered)
    return out


def _safe_ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else float("nan")


def layer_metrics(spans: list[Span], ops: list[dict], nproc: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see ``LAYER_METRICS``)."""
    selfs = self_seconds(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def pick(name, tag=None, op_name=None):
        return [spans[i] for i in by_name.get(name, ())
                if (tag is None or spans[i].tag == tag)
                and (op_name is None or ops[spans[i].op]["name"] == op_name)]

    def busy(name, tag=None):
        return sum(span.seconds for span in pick(name, tag))

    def rate(chosen):
        return _safe_ratio(sum(s.count for s in chosen), sum(s.seconds for s in chosen))

    m: dict[str, float] = {}
    m["coefficients.integer_rows_per_s"] = rate(pick("coefficients.lu_coefficients_integer"))
    m["coefficients.float_rows_per_s"] = rate(pick("coefficients.lu_coefficients"))
    m["coefficients.reconstruct_rows_per_s"] = rate(pick("coefficients.reconstruct_row"))
    for kind in ("exact", "float"):
        verify = [i for i in by_name.get("banded.verify_factorization", ())
                  if spans[i].tag == kind]
        m[f"banded.build_s.{kind}"] = sum(
            busy(f"banded.{name}", kind)
            for name in ("death_factor", "birth_factor", "reconstructed_matrix")
        )
        m[f"banded.multiply_s.{kind}"] = busy("banded.multiply", kind)
        m[f"banded.verify_s.{kind}"] = sum(spans[i].seconds for i in verify)
        m[f"banded.checks_self_s.{kind}"] = sum(selfs[i] for i in verify)
        m[f"banded.entries_compared.{kind}"] = sum(spans[i].count for i in verify)
    samplers = pick("urns.sample_endpoints")
    m["urns.lane_steps_per_s"] = rate([s for s in samplers if s.tag[0] == 1])
    one = [s.seconds for s in pick("urns.sample_endpoints", op_name="probe.threads_1")]
    many = [s.seconds for s in pick("urns.sample_endpoints", op_name="probe.threads_n")]
    m["urns.thread_efficiency"] = _safe_ratio(sum(one), sum(many)) / nproc
    m["urns.scalar_steps_per_s"] = rate(pick("urns.run_trajectory"))
    m["urns.chunks"] = sum(s.tag[1] for s in samplers)
    rows = len(pick("analysis.chi_square_statistic"))
    m["analysis.compare_row_s"] = _safe_ratio(
        busy("analysis.tv_distance") + busy("analysis.chi_square_statistic")
        + busy("analysis.chi_square_threshold"),
        rows,
    )
    m["analysis.poly_exact_rows_per_s"] = rate(pick("analysis.evaluate_polynomials", "exact"))
    m["analysis.poly_float_rows_per_s"] = rate(pick("analysis.evaluate_polynomials", "float"))
    for kind in KINDS:
        mains = [i for i in by_name.get("cli.main", ()) if spans[i].tag == kind]
        m[f"cli.main_s.{kind}"] = sum(spans[i].seconds for i in mains)
        m[f"cli.emit_self_s.{kind}"] = sum(selfs[i] for i in mains)
        m[f"cli.output_bytes.{kind}"] = sum(spans[i].count for i in mains)
    return m


# per-layer metric -> (unit, better, the end-to-end metric and workload it
# should move)

_IMPORT = "setup_s and every per-command time, on all three workloads"

LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "import.interpreter_s": ("s", "lower", _IMPORT),
    "import.numpy_s": ("s", "lower", _IMPORT),
    "import.scipy_s": ("s", "lower", _IMPORT + " (ROADMAP item 3)"),
    "import.urnchain_s": ("s", "lower", _IMPORT),
    "coefficients.integer_rows_per_s": (
        "rows/s", "higher", "verify_exact_s, coeffs_s and poly_s on algebra"),
    "coefficients.float_rows_per_s": ("rows/s", "higher", "verify_float_s on algebra"),
    "coefficients.reconstruct_rows_per_s": (
        "rows/s", "higher", "coeffs_s and poly_s on algebra"),
}
for _kind, _cmd in (("exact", "verify_exact_s"), ("float", "verify_float_s")):
    _moves = f"{_cmd} on algebra; nothing on montecarlo or trajectories"
    LAYER_METRICS.update({
        f"banded.build_s.{_kind}": ("s", "lower", _moves),
        f"banded.multiply_s.{_kind}": ("s", "lower", _moves),
        f"banded.verify_s.{_kind}": ("s", "lower", _moves),
        f"banded.checks_self_s.{_kind}": ("s", "lower", _moves),
        f"banded.entries_compared.{_kind}": ("count", "higher", _moves),
    })
LAYER_METRICS.update({
    "urns.lane_steps_per_s": (
        "steps/s", "higher", "simulate_agg_s and compare_s on montecarlo"),
    "urns.thread_efficiency": (
        "ratio", "higher", "simulate_agg_s and compare_s on montecarlo"),
    "urns.scalar_steps_per_s": ("steps/s", "higher", "simulate_traj_s on trajectories"),
    "urns.chunks": ("count", "lower", "explains urns.thread_efficiency on montecarlo"),
    "analysis.compare_row_s": ("s", "lower", "compare_s on montecarlo"),
    "analysis.poly_exact_rows_per_s": ("rows/s", "higher", "poly_s on algebra"),
    "analysis.poly_float_rows_per_s": ("rows/s", "higher", "poly_s on algebra"),
})
for _kind in KINDS:
    _moves = f"{_kind}_s on {KIND_WORKLOAD[_kind]}"
    if _kind == "simulate_traj":
        _moves += " and peak_rss_mb on trajectories"
    LAYER_METRICS.update({
        f"cli.main_s.{_kind}": ("s", "lower", _moves),
        f"cli.emit_self_s.{_kind}": ("s", "lower", _moves),
        f"cli.output_bytes.{_kind}": ("bytes", "lower", _moves),
    })
LAYER_METRICS["trace.overhead"] = (
    "ratio", "lower", "none: traced pass time over untraced pass time, minus 1")
