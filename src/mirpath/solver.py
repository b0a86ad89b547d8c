"""Log-ODE flow solver for scalar rough differential equations.

The driver enters only through its truncated-group increments, which a
grid holds, like its times, as finite numbers.  Over each mesh interval the
state advances by integrating, over unit time, an autonomous ODE whose
right-hand side combines the log-coordinates of the interval's increment
with the elementary differentials of the coefficient field:

    Ż = Σ_β Υ_f[z^β](Z) / S(z^β) · Λ(z^β),      Z(0) = y,

the sum running over populated monomials whose γ-size lies between 1 and the
truncation level, with the bare time variable always kept so that a drift
survives every truncation.  Mixed drift–diffusion monomials enter exactly
when the γ-filter admits them.  This is the log-ODE method of Castell and
Gaines, in the flow form of Bailleul.

The right-hand side is compiled, once per field and support (the
expansion rows on which an element is nonzero), into one straight-line
function by ``group._straight_line``: Horner's rule over a polynomial
field's float rows, or a derivative call for any other field, then the
powers, products and sum in the order of :func:`mirpath.fields.upsilon`.
The Davie expansion is compiled the same way.

Everything here is deterministic: fixed classical RK4 with a configured
substep count, basis enumeration in a fixed sorted order, no randomness.
A Davie-type residual report fits the empirical local consistency order of a
computed solution against the theoretical target.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from . import _EXPORTS
from .algebra import Grading, MultiIndex, _Record, _populated_tuple, single
from .fields import VectorField, _Horner
from .group import (
    LieElement,
    OffGridTimeError,
    RoughPathGrid,
    _key_index,
    _straight_line,
    _time_index,
    log_element,
)

__all__ = list(_EXPORTS["solver"])


#: The largest |state| a log-ODE step accepts before it reports divergence.
_DIVERGENCE_BOUND = 1e12


class DivergedError(RuntimeError):
    """The integrator state left the finite range.

    Carries the one-based substep at which the guard tripped (1 for a
    Davie expansion, a single step) and the last computed state: non-finite
    or oversized, or the finite state whose right-hand side overflowed.
    """

    def __init__(self, message: str, substep: int, state: float):
        super().__init__(message)
        self.substep = substep
        self.state = state


# ---------------------------------------------------------------------------
# expansion basis and the Davie expansion
# ---------------------------------------------------------------------------


def expansion_basis(d: int, gamma: Fraction, level: Fraction) -> tuple[MultiIndex, ...]:
    """Populated monomials with γ-size in [1, level], plus the bare time
    variable.

    The time variable is adjoined unconditionally — its γ-size 1/γ exceeds
    any level below 1/γ, yet the drift must survive every truncation.  All
    other monomials pass through the γ-filter, which automatically excludes
    mixed drift–diffusion terms until the level makes room for them.
    """
    gamma = Fraction(gamma)
    level = Fraction(level)
    if level < 1:
        raise ValueError(f"truncation level must be >= 1, got {level}")
    keep = {
        beta for beta in _populated_tuple(d, max(1, math.floor(level)))
        if 1 <= beta.gamma_degree(gamma) <= level
    }
    keep.add(single(0, 0, d))
    return tuple(sorted(keep))


class _Expansion:
    """The expansion at one level, prepared once by :func:`_expansion`.
    It hashes by identity, so a compiled right-hand side is found without
    hashing its rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple) -> None:
        self.rows = rows


@lru_cache(maxsize=32)
def _expansion(d: int, grading: Grading, level: Fraction | int | None) -> _Expansion:
    """The expansion at ``level`` (default: the stored degree, which it may
    not exceed), prepared once: per β of its basis, the slot of β in an
    element's ``coords``, S(β) and the variables (i, k, m, p) of β, p
    indexing the distinct f_i^{(k)} the basis reads.  A run needs one key;
    the bound only stops a process that tries many levels from growing."""
    level = Fraction(grading.max_norm if level is None else level)
    if level > grading.max_norm:
        raise ValueError(
            f"truncation level {level} exceeds the stored degree {grading.max_norm}"
        )
    index = _key_index(d, grading.max_norm)
    pairs: dict[tuple[int, int], int] = {}
    return _Expansion(tuple(
        (index[beta], beta.symmetry_factor(),
         tuple((i, k, m, pairs.setdefault((i, k), len(pairs))) for (i, k), m in beta.entries))
        for beta in expansion_basis(d, grading.gamma, level)
    ))


def _nonzero(element, level: Fraction | int | None) -> tuple[_Expansion, tuple[int, ...], tuple]:
    """The expansion at ``level``, the indices of its rows on which
    ``element`` is nonzero (its support), and the element's values there."""
    expansion = _expansion(element.d, element.grading, level)
    coords = element.coords
    rows = expansion.rows
    support = tuple([n for n, (slot, _, _) in enumerate(rows) if coords[slot] != 0.0])
    return expansion, support, tuple([coords[rows[n][0]] for n in support])


@lru_cache(maxsize=32)
def _compiled(expansion: _Expansion, support: tuple[int, ...], provider: Callable,
              d: int, max_order: int | None, davie: bool) -> Callable:
    """The straight-line function ``(z, c) ↦ (0.0 + Σ_n c_n·Υ_n(z),)`` over
    the rows ``support`` of ``expansion``, Υ_n = Υ_f[z^β] for the β of the
    n-th of them, or with ``davie`` ``(z + Σ_n Υ_n(z)/S(β)·c_n,)``, for the
    field of this ``provider``, ``d`` and ``max_order``, whose derivatives
    it reads as :meth:`VectorField.derivative` does.

    Each distinct f_i^{(k)}(z) is read once, right before its first power,
    and every power and product is taken in the order of
    :func:`mirpath.fields.upsilon`, so values and errors are its own: a
    power is ``**``, which raises OverflowError where ``*`` would give inf,
    except a first power, the factor itself.  A polynomial field's read is
    Horner's rule over its float rows, one assignment per coefficient; any
    other is a call of ``derivative``.  The cache key holds the field by
    its provider, so a lookup hashes no row of exact coefficients."""
    derivative = VectorField(d, provider, max_order).derivative
    horner = provider.rows if isinstance(provider, _Horner) else ()

    def read(i: int, k: int, p: int) -> list[str]:
        if not (i <= d and i < len(horner) and (max_order is None or k <= max_order)):
            return [f"d{p} = derivative({i}, {k}, z)"]
        if k >= len(horner[i]):
            return [f"d{p} = 0.0"]
        first, *rest = horner[i][k]
        return [f"d{p} = 0.0*z + {first!r}", *(f"d{p} = d{p}*z + {c!r}" for c in rest)]

    lines: list[str] = []
    done: set[int] = set()
    for n, r in enumerate(support):
        product = "1.0"
        for i, k, m, p in expansion.rows[r][2]:
            if p not in done:  # a power taken so far may overflow first
                done.add(p)
                if product != "1.0":
                    lines.append(f"u{n} = {product}")
                    product = f"u{n}"
                lines += read(i, k, p)
            product += f"*d{p}" if m == 1 else f"*d{p}**{m}"
        lines.append(f"u{n} = {product}")
    if davie:
        total = "z" + "".join(
            f" + u{n}/{expansion.rows[r][1]}*c{n}" for n, r in enumerate(support)
        )
    else:
        total = "0.0" + "".join(f" + c{n}*u{n}" for n in range(len(support)))
    return _straight_line(
        "log-ODE right-hand side", [("z", None), ("c", len(support))], [total], lines,
        {"derivative": derivative},
    )


def davie_expansion(
    path: RoughPathGrid,
    f: VectorField,
    s: float,
    t: float,
    y: float,
    level: Fraction | int | None = None,
) -> float:
    """One-step Taylor-type expansion of the solution started at ``y``:

        y + Σ_β Υ_f[z^β](y) / S(z^β) · X_{s,t}(z^β)

    over the expansion basis.  ``s`` and ``t`` must be grid points; the
    increment over a non-adjacent pair is produced by Chen composition.
    """
    i, j = path.index_of(s), path.index_of(t)
    if i > j:
        raise ValueError(f"expansion needs s <= t, got s={s}, t={t}")
    expansion, support, xs = _nonzero(path.increment_by_index(i, j), level)
    expand = _compiled(expansion, support, f.provider, f.d, f.max_order, True)
    return expand(float(y), xs)[0]


# ---------------------------------------------------------------------------
# the log-ODE step
# ---------------------------------------------------------------------------


def logode_step(
    lam: LieElement,
    f: VectorField,
    y: float,
    substeps: int = 8,
    level: Fraction | int | None = None,
) -> float:
    """Classical RK4 over unit time for the autonomous log-ODE right-hand
    side built from the primitive element ``lam``.

    Raises :class:`DivergedError` as soon as the state stops being finite or
    exceeds 1e12 (``_DIVERGENCE_BOUND``) in absolute value.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    expansion, support, xs = _nonzero(lam, level)
    c = tuple([x / expansion.rows[n][1] for n, x in zip(support, xs)])
    rhs = _compiled(expansion, support, f.provider, f.d, f.max_order, False)
    h = 1.0 / substeps
    z = float(y)
    for n in range(1, substeps + 1):
        k1 = rhs(z, c)[0]
        k2 = rhs(z + 0.5 * h * k1, c)[0]
        k3 = rhs(z + 0.5 * h * k2, c)[0]
        k4 = rhs(z + h * k3, c)[0]
        z = z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not math.isfinite(z) or abs(z) > _DIVERGENCE_BOUND:
            raise DivergedError(
                f"state {z} left the finite range at substep {n}/{substeps}",
                substep=n,
                state=z,
            )
    return z


# ---------------------------------------------------------------------------
# flow composition over a mesh
# ---------------------------------------------------------------------------


class FlowSolution(_Record):
    """A flow computed over a mesh with the expansion at ``level``, from
    exactly the initial condition.  A diverged run is truncated at the last
    finite state and says why in ``message``, never raised (local-solution
    semantics)."""

    times: tuple[float, ...]
    values: tuple[float, ...]
    level: Fraction
    message: str = ""

    @property
    def diverged(self) -> bool:
        return bool(self.message)

    def value_at(self, t: float) -> float:
        j = _time_index(self.times, t)
        if j is None:
            raise ValueError(f"time {t} is not a mesh point of this solution")
        return self.values[j]


def _mesh_indices(path: RoughPathGrid, mesh_level: int | None) -> list[int]:
    if mesh_level is None:
        return list(range(len(path.times)))
    if mesh_level < 0:
        raise ValueError(f"mesh_level must be >= 0, got {mesh_level}")
    n = len(path.times) - 1
    if n.bit_length() <= mesh_level:  # 2^level > n
        raise ValueError(
            f"mesh level {mesh_level} asks for 2^{mesh_level} intervals, "
            f"more than the {n} the grid stores"
        )
    pieces = 1 << mesh_level
    t0, t1 = path.times[0], path.times[-1]
    indices = []
    for k in range(pieces + 1):
        t = t0 + (t1 - t0) * k / pieces
        if (j := _time_index(path.times, t)) is None:
            raise OffGridTimeError(
                f"mesh level {mesh_level} puts a point at t = {t}, "
                "which is not a grid point"
            )
        indices.append(j)
    return indices


def solve_flow(
    path: RoughPathGrid,
    f: VectorField,
    y0: float,
    *,
    substeps: int = 8,
    mesh_level: int | None = None,
    level: Fraction | int | None = None,
) -> FlowSolution:
    """Compose log-ODE steps along the mesh: each interval's increment is
    Chen-composed from the stored grid, sent through its log-coordinates, and
    integrated by :func:`logode_step` in ``substeps`` RK4 substeps, starting
    from the previous state.

    The mesh is the full grid (default) or every dyadic point at
    ``mesh_level`` (2^level intervals spanning the grid); increments are
    never interpolated.  ``level`` caps the γ-size of the expansion
    monomials (default: the stored degree bound) and is recorded in the
    solution.  An initial state beyond 1e12 (``_DIVERGENCE_BOUND``) in
    absolute value is refused.
    """
    if not abs(y0) <= _DIVERGENCE_BOUND:
        raise ValueError(f"initial state {y0} lies beyond the state bound {_DIVERGENCE_BOUND:g}")
    indices = _mesh_indices(path, mesh_level)
    level = Fraction(path.grading.max_norm if level is None else level)
    _expansion(path.d, path.grading, level)  # refuses a level above the stored degree
    times = [path.times[0]]
    values = [float(y0)]
    message = ""
    for a, b in zip(indices, indices[1:]):
        lam = log_element(path.increment_by_index(a, b))
        if not all(map(math.isfinite, lam.coords)):
            message = (
                f"the logarithm of the increment over "
                f"[{path.times[a]}, {path.times[b]}] is not finite"
            )
            break
        try:
            y = logode_step(lam, f, values[-1], substeps, level)
        except DivergedError as err:
            message = str(err)
        except OverflowError as err:  # a power in the right-hand side
            message = f"right-hand side overflowed in the step to {path.times[b]}: {err}"
        if message:
            break
        times.append(path.times[b])
        values.append(y)
    return FlowSolution(tuple(times), tuple(values), level, message)


# ---------------------------------------------------------------------------
# Davie residual report
# ---------------------------------------------------------------------------


class DavieReport(_Record):
    """Per-pair residuals |Y_t − expansion(s, t, Y_s)| with a least-squares
    fit of log-residual against log-interval, next to the theoretical
    consistency target (level + 1)·γ."""

    rows: tuple[tuple[float, float, float], ...]
    slope: float
    target_slope: float
    level: float
    gamma: float


def dyadic_pairs(
    times: Sequence[float], min_block: int = 1, max_block: int | None = None
) -> list[tuple[float, float]]:
    """Non-overlapping index pairs at block sizes 1, 2, 4, … — the dyadic
    scales a residual slope is fitted over.  ``min_block`` must be >= 1."""
    if min_block < 1:
        raise ValueError(f"min_block must be >= 1, got {min_block}")
    n = len(times) - 1
    if max_block is None:
        max_block = n
    out: list[tuple[float, float]] = []
    block = min_block
    while block <= max_block:
        for i in range(0, n - block + 1, block):
            out.append((times[i], times[i + block]))
        block *= 2
    return out


def davie_residual_report(
    path: RoughPathGrid,
    f: VectorField,
    sol: FlowSolution,
    pairs: Sequence[tuple[float, float]],
) -> DavieReport:
    """Residuals of ``sol`` against the expansion at ``sol.level`` over ``pairs``."""
    import statistics

    rows = []
    for s, t in pairs:
        ys = sol.value_at(s)
        yt = sol.value_at(t)
        try:
            expansion = davie_expansion(path, f, s, t, ys, sol.level)
        except OverflowError as exc:  # a power in the right-hand side
            message = f"expansion over [{s}, {t}] overflowed at state {ys}: {exc}"
            raise DivergedError(message, substep=1, state=ys) from exc
        residual = abs(yt - expansion)
        if not math.isfinite(residual):
            message = f"expansion over [{s}, {t}] is {expansion} at state {ys}"
            raise DivergedError(message, substep=1, state=ys)
        rows.append((s, t, residual))
    logs = [(math.log(t - s), math.log(r)) for s, t, r in rows if t > s and r > 0.0]
    try:
        slope = statistics.linear_regression([x for x, _ in logs], [y for _, y in logs]).slope
    except statistics.StatisticsError:  # fewer than two points, or a single x
        slope = math.nan
    gamma = path.grading.gamma
    return DavieReport(
        rows=tuple(rows),
        slope=slope,
        target_slope=float((sol.level + 1) * gamma),
        level=float(sol.level),
        gamma=float(gamma),
    )

