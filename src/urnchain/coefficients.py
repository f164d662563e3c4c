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

:func:`lu_coefficients` builds the table for either parameter form, one
row per state, by one of two routes.  :class:`Parameters` go through the
general three-parameter formulas, exact when handed ``Fraction``
parameters; :class:`IntegerParameters` (``alpha = 1/M``, ``beta = 1/N``,
integer ``gamma``) go through the urn compositions of :func:`urn_slots`,
whose exact branch weights are the coefficients
(:func:`lu_coefficients_integer` names this route alone).  The two
routes agree exactly on their common domain, which the test suite pins.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

Scalar = float | int | Fraction


class ParameterError(ValueError):
    """Parameters outside the regime where the chain is stochastic."""


def _make_checked(cls, iterable):
    """A value from ``iterable`` through ``cls(...)``, so ``_make`` and
    ``_replace``, which calls it, check the fields as the constructor does
    (namedtuple's own ``_make`` skips ``__new__``)."""
    return cls(*iterable)


def _refuse(violations: list[str]) -> None:
    """Raise :class:`ParameterError` naming every violated condition."""
    if violations:
        raise ParameterError("; ".join(violations))


class Parameters(
    NamedTuple("Parameters", [("alpha", Scalar), ("beta", Scalar), ("gamma", Scalar)])
):
    """General parameter triple, stochastic iff all three exceed -1 and
    |alpha - beta| < 1 (alpha == beta is allowed); a triple outside that
    region, or with a float that is not finite, raises
    :class:`ParameterError` when it is built."""

    __slots__ = ()

    def __new__(cls, alpha: Scalar, beta: Scalar, gamma: Scalar) -> Parameters:
        violations = []
        for name, value in zip(cls._fields, (alpha, beta, gamma)):
            # floats only: math.isfinite overflows on a huge Fraction
            if isinstance(value, float) and not math.isfinite(value):
                violations.append(f"{name} must be finite (got {value})")
            elif not value > -1:
                violations.append(f"{name} must be > -1 (got {value})")
        if not abs(alpha - beta) < 1:
            violations.append(f"|alpha - beta| must be < 1 (got {abs(alpha - beta)})")
        _refuse(violations)
        return super().__new__(cls, alpha, beta, gamma)

    _make = classmethod(_make_checked)


class IntegerParameters(NamedTuple("IntegerParameters", [("M", int), ("N", int), ("gamma", int)])):
    """Integer parameter triple for the urn realization: alpha = 1/M,
    beta = 1/N, gamma.  Integers M, N >= 1 and gamma >= 0 are all it
    takes: then alpha and beta lie in (0, 1], so alpha, beta, gamma > -1
    and |alpha - beta| < 1 (that is, |M - N| < M N), the general form's
    conditions, hold.  Any other triple raises :class:`ParameterError`
    when it is built, a field that is not an int (or is a bool) before
    any bound."""

    __slots__ = ()

    def __new__(cls, M: int, N: int, gamma: int) -> IntegerParameters:
        checks = tuple(zip(cls._fields, (M, N, gamma), (1, 1, 0)))
        _refuse([f"{name} must be an integer (got {value!r})" for name, value, _ in checks
                 if not isinstance(value, int) or isinstance(value, bool)])
        _refuse([f"{name} must be >= {least} (got {value})" for name, value, least in checks
                 if value < least])
        return super().__new__(cls, M, N, gamma)

    _make = classmethod(_make_checked)

    def as_parameters(self) -> Parameters:
        """Exact general-parameter equivalent (Fraction-valued)."""
        return Parameters(Fraction(1, self.M), Fraction(1, self.N), Fraction(self.gamma))


class LUCoefficients(NamedTuple):
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


class TransitionRow(NamedTuple):
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


def _formula_row(p: Parameters, m: int) -> tuple[Scalar, ...]:
    """(x_m, y_m, t_m, r_m, s_m) from the general formulas.

    The terms of t and r carrying a factor n are short-circuited at
    n = 0: their denominators can vanish there for admissible parameters
    (e.g. alpha + gamma = 0), while the value is 0 by the n factor.
    Those boundary values take the parameters' type, so float parameters
    give floats and Fraction parameters exact rationals.
    """
    n, odd = divmod(m, 2)
    a, b, g = p.alpha, p.beta, p.gamma
    zero = type(a + b + g)(0)
    if odd:
        denom = 3 * n + b + g + 3
        d1 = 3 * n + b + g + 1
        d2 = 3 * n + b + g + 2
        d3 = 3 * n + a + g + 3
        t = n * (n + b - a) / (d1 * d2) if n else zero
        s = (2 * n + a + g + 2) * (2 * n + b + g + 2) / (d3 * d2)
        r = (n * (2 * n + a + g + 1) / (d1 * d2) if n else zero) + (n + 1) * (2 * n + b + g + 2) / (d3 * d2)
        return (2 * n + g + 2) / denom, (n + b + 1) / denom, t, r, s
    denom = 3 * n + a + g + 2
    x, y = (2 * n + g + 1) / denom, (n + a + 1) / denom
    if n == 0:
        return x, y, zero, zero, zero + 1
    d0 = 3 * n + a + g
    d1 = 3 * n + a + g + 1
    d2 = 3 * n + b + g + 1
    t = n * (n + a - b) / (d0 * d1)
    s = (2 * n + a + g + 1) * (2 * n + b + g + 1) / (d1 * d2)
    r = n * (2 * n + b + g) / (d0 * d1) + n * (2 * n + a + g + 1) / (d1 * d2)
    return x, y, t, r, s


_NO_URN = (0, 1)


def urn_slots(ip: IntegerParameters, m: int) -> tuple[tuple[int, int], ...]:
    """The urns prepared at state m, as (blue, total) ball counts in four
    slots: experiment 2's urn A, then experiment 1's urns A, R and B.
    This is the only code that turns (M, N, g, m) into ball counts; the
    integer coefficients, the scalar urns and the vectorized sampler's
    table all read it.

    Experiment 2 (pure birth) draws once from its urn A: blue raises the
    state by one, red keeps it.  Experiment 1 (pure death) draws from its
    urn A, then from B after a blue or from R after a red; each blue
    lowers the state by one.  As (blue, total) with m = 2n or m = 2n + 1:

        slot            m = 2n                      m = 2n + 1
        0  exp. 2, A    (M(2n+g+1), 3Mn+Mg+2M+1)    (N(2n+g+2), 3Nn+Ng+3N+1)
        1  exp. 1, A    (Mn,        3Mn+Mg+M+1)     (Nn,        3Nn+Ng+2N+1)
        2  exp. 1, R    (Nn,        3Nn+Ng+N+1)     (M(n+1),    3Mn+Mg+3M+1)
        3  exp. 1, B    (MNn+N-M,   N(3Mn+Mg+1))    (MNn+M-N,   M(3Nn+Ng+N+1))

    Experiment 1 differs at the two lowest states.  State 1 draws once,
    from A = (M, Mg+3M+1): blue empties the urn (state 0), red keeps
    state 1; it is not the n = 0 column of the odd table, where B could
    hold MN*0 + M - N < 0 blue balls.  State 0 is absorbing for
    experiment 1 and draws nothing (the composite chain still runs
    experiment 2 there).  A slot with no urn holds (0, 1), a draw that is
    always red: every experiment-1 slot at state 0, and R and B at 1.
    """
    if not isinstance(ip, IntegerParameters):
        raise TypeError(f"the urn route takes IntegerParameters, not {type(ip).__name__}")
    if m < 0:
        raise ValueError(f"state must be >= 0 (got {m})")
    n, odd = divmod(m, 2)
    M, N, g = ip.M, ip.N, ip.gamma
    if odd:
        birth = (N * (2 * n + g + 2), 3 * N * n + N * g + 3 * N + 1)
    else:
        birth = (M * (2 * n + g + 1), 3 * M * n + M * g + 2 * M + 1)
    if m < 2:
        death_a = (M, M * g + 3 * M + 1) if m else _NO_URN
        return birth, death_a, _NO_URN, _NO_URN
    if odd:
        return (
            birth,
            (N * n, 3 * N * n + N * g + 2 * N + 1),
            (M * (n + 1), 3 * M * n + M * g + 3 * M + 1),
            (M * N * n + M - N, M * (3 * N * n + N * g + N + 1)),
        )
    return (
        birth,
        (M * n, 3 * M * n + M * g + M + 1),
        (N * n, 3 * N * n + N * g + N + 1),
        (M * N * n + N - M, N * (3 * M * n + M * g + 1)),
    )


def _urn_row(ip: IntegerParameters, m: int) -> tuple[Fraction, ...]:
    """(x_m, y_m, t_m, r_m, s_m) as the branch weights of the urn draws
    of :func:`urn_slots`.  The (0, 1) slots make states 0 and 1 follow
    the same products."""
    (b2, T2), (bA, TA), (bR, TR), (bB, TB) = urn_slots(ip, m)
    # t: blue, blue; r: blue then red from B, or red then blue from R;
    # s: red, red
    return (
        Fraction(b2, T2),
        Fraction(T2 - b2, T2),
        Fraction(bA * bB, TA * TB),
        Fraction(bA * (TB - bB) * TR + (TA - bA) * bR * TB, TA * TB * TR),
        Fraction((TA - bA) * (TR - bR), TA * TR),
    )


def lu_coefficients(params: Parameters | IntegerParameters, n_max: int) -> LUCoefficients:
    """Factor coefficients for indices 0..n_max: the urn branch weights
    for integer parameters, always exact rationals; else the general
    formulas, exact when the parameters are ``Fraction``-valued and
    double precision otherwise."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0 (got {n_max})")
    row = _urn_row if isinstance(params, IntegerParameters) else _formula_row
    columns = xs, ys, ts, rs, ss = [], [], [], [], []
    for m in range(n_max + 1):
        x, y, t, r, s = row(params, m)
        xs.append(x)
        ys.append(y)
        ts.append(t)
        rs.append(r)
        ss.append(s)
    return LUCoefficients(*map(tuple, columns))


def lu_coefficients_integer(ip: IntegerParameters, n_max: int) -> LUCoefficients:
    """The urn route of :func:`lu_coefficients`, for integer parameters
    alone."""
    if not isinstance(ip, IntegerParameters):
        raise TypeError(f"the urn route takes IntegerParameters, not {type(ip).__name__}")
    return lu_coefficients(ip, n_max)


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
