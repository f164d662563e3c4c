"""Transition coefficients of a pentadiagonal random walk on the
non-negative integers that factors into stochastic pure-death and
pure-birth parts.

Naming convention, for a state index m split by parity into m = 2n or
m = 2n + 1:

* ``x_m`` / ``y_m``: up / stay probabilities of the pure-birth factor,
* ``t_m`` / ``r_m`` / ``s_m``: down-two / down-one / stay probabilities
  of the pure-death factor,
* ``a_m`` / ``b_m`` / ``c_m`` / ``d_m``: up-one / stay / down-one /
  down-two entries of the composite chain, recovered from the factor
  coefficients by :func:`reconstruct_row`.

Two evaluation routes are provided.  :func:`lu_coefficients` implements
the general three-parameter formulas and is exact when handed
``Fraction`` parameters; :func:`lu_coefficients_integer` implements the
integer-parameter closed forms (``alpha = 1/M``, ``beta = 1/N``,
integer ``gamma``) and always returns exact rationals.  The two routes
agree exactly on their common domain, which the test suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Scalar = float | int | Fraction


class ParameterError(ValueError):
    """Parameters outside the regime where the chain is stochastic."""


@dataclass(frozen=True)
class Parameters:
    """General parameter triple; stochastic iff all three exceed -1 and
    |alpha - beta| < 1 (alpha == beta is allowed)."""

    alpha: Scalar
    beta: Scalar
    gamma: Scalar


@dataclass(frozen=True)
class IntegerParameters:
    """Integer parameter triple for the urn realization: alpha = 1/M,
    beta = 1/N, non-negative integer gamma."""

    M: int
    N: int
    gamma: int

    def as_parameters(self) -> Parameters:
        """Exact general-parameter equivalent (Fraction-valued)."""
        return Parameters(Fraction(1, self.M), Fraction(1, self.N), Fraction(self.gamma))


def validate_parameters(p: Parameters) -> tuple[str, ...]:
    """Return the violated stochasticity conditions (empty if valid)."""
    violations = []
    for name in ("alpha", "beta", "gamma"):
        value = getattr(p, name)
        # floats only: math.isfinite overflows on a huge Fraction
        if isinstance(value, float) and not math.isfinite(value):
            violations.append(f"{name} must be finite (got {value})")
        elif not value > -1:
            violations.append(f"{name} must be > -1 (got {value})")
    if not abs(p.alpha - p.beta) < 1:
        violations.append(f"|alpha - beta| must be < 1 (got {abs(p.alpha - p.beta)})")
    return tuple(violations)


def validate_integer_parameters(ip: IntegerParameters) -> tuple[str, ...]:
    """Return the violated conditions for the integer form (empty if valid)."""
    violations = []
    for name in ("M", "N", "gamma"):
        value = getattr(ip, name)
        if not isinstance(value, int) or isinstance(value, bool):
            violations.append(f"{name} must be an integer (got {value!r})")
    if not violations:
        if ip.M < 1:
            violations.append(f"M must be >= 1 (got {ip.M})")
        if ip.N < 1:
            violations.append(f"N must be >= 1 (got {ip.N})")
        if ip.gamma < 0:
            violations.append(f"gamma must be >= 0 (got {ip.gamma})")
    if not violations and not abs(ip.M - ip.N) < ip.M * ip.N:
        # automatically true for M, N >= 1; kept as an explicit gate
        violations.append(f"|M - N| must be < M*N (got |{ip.M} - {ip.N}| >= {ip.M * ip.N})")
    return tuple(violations)


def require_valid(params: Parameters | IntegerParameters) -> None:
    """Raise :class:`ParameterError` naming every violated condition."""
    if isinstance(params, IntegerParameters):
        violations = validate_integer_parameters(params)
    else:
        violations = validate_parameters(params)
    if violations:
        raise ParameterError("; ".join(violations))


@dataclass(frozen=True)
class LUCoefficients:
    """Factor coefficients x, y (pure-birth) and t, r, s (pure-death)
    for state indices 0..n_max.  Entries are floats or exact rationals
    depending on how they were built."""

    x: tuple[Scalar, ...]
    y: tuple[Scalar, ...]
    t: tuple[Scalar, ...]
    r: tuple[Scalar, ...]
    s: tuple[Scalar, ...]

    @property
    def n_max(self) -> int:
        return len(self.x) - 1


@dataclass(frozen=True)
class TransitionRow:
    """Row n of the composite chain: moves to n+1 (a), n (b), n-1 (c,
    defined for n >= 1) and n-2 (d, defined for n >= 2)."""

    n: int
    a: Scalar
    b: Scalar
    c: Scalar | None
    d: Scalar | None

    def probabilities(self) -> dict[int, Scalar]:
        """Map end state -> probability over the defined entries."""
        out = {self.n + 1: self.a, self.n: self.b}
        if self.c is not None:
            out[self.n - 1] = self.c
        if self.d is not None:
            out[self.n - 2] = self.d
        return out

    def total(self) -> Scalar:
        row_sum = self.a + self.b
        if self.c is not None:
            row_sum += self.c
        if self.d is not None:
            row_sum += self.d
        return row_sum


def _birth_pair(p: Parameters, m: int) -> tuple[Scalar, Scalar]:
    """(x_m, y_m) from the general formulas."""
    n, odd = divmod(m, 2)
    a, b, g = p.alpha, p.beta, p.gamma
    if odd:
        denom = 3 * n + b + g + 3
        return (2 * n + g + 2) / denom, (n + b + 1) / denom
    denom = 3 * n + a + g + 2
    return (2 * n + g + 1) / denom, (n + a + 1) / denom


def _death_triple(p: Parameters, m: int) -> tuple[Scalar, Scalar, Scalar]:
    """(t_m, r_m, s_m) from the general formulas.

    The terms carrying a factor n are short-circuited at n = 0: their
    denominators can vanish there for admissible parameters (e.g.
    alpha + gamma = 0), while the value is 0 by the n factor.
    """
    n, odd = divmod(m, 2)
    a, b, g = p.alpha, p.beta, p.gamma
    if odd:
        d1 = 3 * n + b + g + 1
        d2 = 3 * n + b + g + 2
        d3 = 3 * n + a + g + 3
        t = n * (n + b - a) / (d1 * d2) if n else 0
        s = (2 * n + a + g + 2) * (2 * n + b + g + 2) / (d3 * d2)
        r = (n * (2 * n + a + g + 1) / (d1 * d2) if n else 0) + (n + 1) * (2 * n + b + g + 2) / (d3 * d2)
        return t, r, s
    if n == 0:
        return 0, 0, 1
    d0 = 3 * n + a + g
    d1 = 3 * n + a + g + 1
    d2 = 3 * n + b + g + 1
    t = n * (n + a - b) / (d0 * d1)
    s = (2 * n + a + g + 1) * (2 * n + b + g + 1) / (d1 * d2)
    r = n * (2 * n + b + g) / (d0 * d1) + n * (2 * n + a + g + 1) / (d1 * d2)
    return t, r, s


def _birth_pair_integer(ip: IntegerParameters, m: int) -> tuple[Fraction, Fraction]:
    n, odd = divmod(m, 2)
    M, N, g = ip.M, ip.N, ip.gamma
    if odd:
        total = 3 * N * n + N * g + 3 * N + 1
        return Fraction(N * (2 * n + g + 2), total), Fraction(N * (n + 1) + 1, total)
    total = 3 * M * n + M * g + 2 * M + 1
    return Fraction(M * (2 * n + g + 1), total), Fraction(M * (n + 1) + 1, total)


def _death_triple_integer(ip: IntegerParameters, m: int) -> tuple[Fraction, Fraction, Fraction]:
    # all denominators are positive integers for M, N >= 1, gamma >= 0,
    # so no n = 0 special case is needed on this route
    n, odd = divmod(m, 2)
    M, N, g = ip.M, ip.N, ip.gamma
    if odd:
        t = Fraction(
            N * n * (M * N * n + M - N),
            M * (3 * N * n + N * g + N + 1) * (3 * N * n + N * g + 2 * N + 1),
        )
        s = Fraction(
            (2 * M * n + M * g + 2 * M + 1) * (2 * N * n + N * g + 2 * N + 1),
            (3 * M * n + M * g + 3 * M + 1) * (3 * N * n + N * g + 2 * N + 1),
        )
        r = Fraction(
            N * N * n * (2 * M * n + M * g + M + 1),
            M * (3 * N * n + N * g + N + 1) * (3 * N * n + N * g + 2 * N + 1),
        ) + Fraction(
            M * (n + 1) * (2 * N * n + N * g + 2 * N + 1),
            (3 * M * n + M * g + 3 * M + 1) * (3 * N * n + N * g + 2 * N + 1),
        )
        return t, r, s
    t = Fraction(
        M * n * (M * N * n + N - M),
        N * (3 * M * n + M * g + 1) * (3 * M * n + M * g + M + 1),
    )
    s = Fraction(
        (2 * M * n + M * g + M + 1) * (2 * N * n + N * g + N + 1),
        (3 * M * n + M * g + M + 1) * (3 * N * n + N * g + N + 1),
    )
    r = Fraction(
        M * M * n * (2 * N * n + N * g + 1),
        N * (3 * M * n + M * g + 1) * (3 * M * n + M * g + M + 1),
    ) + Fraction(
        N * n * (2 * M * n + M * g + M + 1),
        (3 * M * n + M * g + M + 1) * (3 * N * n + N * g + N + 1),
    )
    return t, r, s


def lu_coefficients(p: Parameters, n_max: int) -> LUCoefficients:
    """Factor coefficients for indices 0..n_max via the general formulas.

    Exact when the parameters are ``Fraction``-valued, double precision
    otherwise.  Raises :class:`ParameterError` for invalid parameters.
    """
    require_valid(p)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0 (got {n_max})")
    xs, ys, ts, rs, ss = [], [], [], [], []
    for m in range(n_max + 1):
        x, y = _birth_pair(p, m)
        t, r, s = _death_triple(p, m)
        xs.append(x)
        ys.append(y)
        ts.append(t)
        rs.append(r)
        ss.append(s)
    return LUCoefficients(tuple(xs), tuple(ys), tuple(ts), tuple(rs), tuple(ss))


def lu_coefficients_integer(ip: IntegerParameters, n_max: int) -> LUCoefficients:
    """Factor coefficients for indices 0..n_max via the integer-parameter
    closed forms; always exact rationals."""
    require_valid(ip)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0 (got {n_max})")
    xs, ys, ts, rs, ss = [], [], [], [], []
    for m in range(n_max + 1):
        x, y = _birth_pair_integer(ip, m)
        t, r, s = _death_triple_integer(ip, m)
        xs.append(x)
        ys.append(y)
        ts.append(t)
        rs.append(r)
        ss.append(s)
    return LUCoefficients(tuple(xs), tuple(ys), tuple(ts), tuple(rs), tuple(ss))


def reconstruct_row(c: LUCoefficients, n: int) -> TransitionRow:
    """Row n of the composite chain from the factor coefficients.

    Multiplying the banded factors places, in row n: the stay weight of
    the birth part against s_n one column up (a), mixed stay terms on
    the diagonal (b) and one column down (c), and t_n against the stay
    weight two states down (d).  The down-two entry is t_n * y_{n-2}.
    """
    if n < 0 or n > c.n_max:
        raise IndexError(f"row {n} outside covered range 0..{c.n_max}")
    x, y, t, r, s = c.x, c.y, c.t, c.r, c.s
    a = s[n] * x[n]
    b = s[n] * y[n] + (r[n] * x[n - 1] if n >= 1 else 0)
    col_down = (r[n] * y[n - 1] + (t[n] * x[n - 2] if n >= 2 else 0)) if n >= 1 else None
    col_down2 = t[n] * y[n - 2] if n >= 2 else None
    return TransitionRow(n, a, b, col_down, col_down2)
