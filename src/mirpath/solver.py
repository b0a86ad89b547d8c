"""Log-ODE flow solver for scalar rough differential equations.

The driver enters only through its truncated-group increments.  Over each
mesh interval the state advances by integrating, over unit time, an
autonomous ODE whose right-hand side combines the log-coordinates of the
interval's increment with the elementary differentials of the coefficient
field:

    Ż = Σ_β Υ_f[z^β](Z) / S(z^β) · Λ(z^β),      Z(0) = y,

the sum running over populated monomials whose γ-size lies between 1 and the
truncation level, with the bare time variable always kept so that a drift
survives every truncation.  Mixed drift–diffusion monomials enter exactly
when the γ-filter admits them.

Everything here is deterministic: fixed classical RK4 with a configured
substep count, basis enumeration in a fixed sorted order, no randomness.
A Davie-type residual report fits the empirical local consistency order of a
computed solution against the theoretical target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .algebra import Grading, MultiIndex, _populated_tuple, single, symmetry_factor
from .fields import VectorField
from .group import LieElement, RoughPathGrid, _key_index, _time_index, log_element

__all__ = [
    "DavieReport",
    "DivergedError",
    "FlowSolution",
    "SolveConfig",
    "davie_expansion",
    "davie_residual_report",
    "dyadic_pairs",
    "expansion_basis",
    "logode_step",
    "reference_ode_solve",
    "solve_flow",
]


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


def _resolve_level(grading, level: Fraction | int | None) -> Fraction:
    out = Fraction(grading.max_norm) if level is None else Fraction(level)
    if out > grading.max_norm:
        raise ValueError(
            f"truncation level {out} exceeds the stored degree {grading.max_norm}"
        )
    return out


@lru_cache(maxsize=32)
def _expansion_slots(d: int, grading: Grading, level: Fraction) -> tuple:
    """The expansion basis at ``level``, the symmetry factors of its
    monomials and their slots in an element's ``coords``.  A run needs one
    key; the bound only stops a process that tries many levels from growing."""
    basis = expansion_basis(d, grading.gamma, level)
    index = _key_index(d, grading.max_norm)
    slots = np.array([index[beta] for beta in basis], dtype=int)
    return basis, tuple(symmetry_factor(beta) for beta in basis), slots


def _nonzero_terms(element, level: Fraction) -> list[tuple]:
    """(β, S(β), X(β)) for the β of the expansion basis at ``level`` on
    which ``element`` is nonzero."""
    basis, sym, slots = _expansion_slots(element.d, element.grading, level)
    xs = element.coords[slots].tolist()
    return [term for term in zip(basis, sym, xs) if term[2] != 0.0]


def _upsilons(betas: Sequence[MultiIndex], f: VectorField) -> Callable[[float], list[float]]:
    """y ↦ [Υ_f[z^β](y) for β in ``betas``]: each distinct f_i^{(k)}(y) is
    evaluated once, and every product is formed in the order of
    :func:`mirpath.fields.upsilon`, so the values are bit-identical to it."""
    pairs = list(dict.fromkeys(ik for beta in betas for ik, _ in beta.entries))
    slot = {ik: p for p, ik in enumerate(pairs)}
    rows = [[(slot[ik], m) for ik, m in beta.entries] for beta in betas]

    def at(y: float) -> list[float]:
        ders = [f.derivative(i, k, y) for i, k in pairs]
        out = []
        for row in rows:
            u = 1.0
            for p, m in row:
                u *= ders[p] ** m
            out.append(u)
        return out

    return at


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
    bound = _resolve_level(path.grading, level)
    increment = path.increment_by_index(i, j)
    terms = _nonzero_terms(increment, bound)
    upsilons = _upsilons([beta for beta, _, _ in terms], f)
    total = float(y)
    for (_, sym, x), u in zip(terms, upsilons(y)):
        total += u / sym * x
    return total


# ---------------------------------------------------------------------------
# the log-ODE step
# ---------------------------------------------------------------------------


def logode_step(
    lam: LieElement,
    f: VectorField,
    y: float,
    substeps: int = 8,
    level: Fraction | int | None = None,
    guard: float = 1e12,
) -> float:
    """Classical RK4 over unit time for the autonomous log-ODE right-hand
    side built from the primitive element ``lam``.

    Raises :class:`DivergedError` as soon as the state stops being finite or
    exceeds ``guard`` in absolute value.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    bound = _resolve_level(lam.grading, level)
    terms = _nonzero_terms(lam, bound)
    coeffs = [x / sym for _, sym, x in terms]
    upsilons = _upsilons([beta for beta, _, _ in terms], f)

    def rhs(z: float) -> float:
        total = 0.0
        for c, u in zip(coeffs, upsilons(z)):
            total += c * u
        return total

    h = 1.0 / substeps
    z = float(y)
    for n in range(1, substeps + 1):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not math.isfinite(z) or abs(z) > guard:
            raise DivergedError(
                f"state {z} left the finite range at substep {n}/{substeps}",
                substep=n,
                state=z,
            )
    return z


# ---------------------------------------------------------------------------
# flow composition over a mesh
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveConfig:
    """Mesh selection and integrator settings for :func:`solve_flow`.

    The mesh is either the full grid (default), every dyadic point at
    ``mesh_level`` (2^level intervals spanning the grid), or an explicit
    tuple of times; every mesh point must be a grid point, since increments
    are never interpolated.  ``level`` caps the γ-size of the expansion
    monomials (default: the stored degree bound).  ``target_tolerance`` is
    carried into reports that compare against a reference solution.
    """

    rk4_substeps: int = 8
    mesh_level: int | None = None
    mesh: tuple[float, ...] | None = None
    level: Fraction | int | None = None
    divergence_guard: float = 1e12
    target_tolerance: float | None = None

    def __post_init__(self):
        if self.rk4_substeps < 1:
            raise ValueError(f"rk4_substeps must be >= 1, got {self.rk4_substeps}")
        if self.mesh is not None and self.mesh_level is not None:
            raise ValueError("give an explicit mesh or a dyadic level, not both")
        if self.mesh_level is not None and self.mesh_level < 0:
            raise ValueError(f"mesh_level must be >= 0, got {self.mesh_level}")
        if self.divergence_guard <= 0:
            raise ValueError("divergence_guard must be positive")


@dataclass(frozen=True)
class FlowSolution:
    """A flow computed over a mesh; the first value is exactly the initial
    condition.  A diverged run is truncated at the last finite state and
    flagged, never raised (local-solution semantics)."""

    times: tuple[float, ...]
    values: tuple[float, ...]
    config: SolveConfig
    provenance: tuple[tuple[str, str], ...] = ()
    diverged: bool = False
    message: str = ""

    def value_at(self, t: float) -> float:
        j = _time_index(self.times, t)
        if j is None:
            raise ValueError(f"time {t} is not a mesh point of this solution")
        return self.values[j]


def _mesh_indices(path: RoughPathGrid, cfg: SolveConfig) -> list[int]:
    if cfg.mesh is not None:
        idx = [path.index_of(t) for t in cfg.mesh]
        if not idx or idx[0] != 0:
            raise ValueError("an explicit mesh must start at the first grid time")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("mesh times must be strictly increasing")
        return idx
    if cfg.mesh_level is not None:
        pieces = 1 << cfg.mesh_level
        t0, t1 = path.times[0], path.times[-1]
        return [path.index_of(t0 + (t1 - t0) * k / pieces) for k in range(pieces + 1)]
    return list(range(len(path.times)))


def solve_flow(
    path: RoughPathGrid,
    f: VectorField,
    y0: float,
    cfg: SolveConfig = SolveConfig(),
    provenance: tuple[tuple[str, str], ...] = (),
) -> FlowSolution:
    """Compose log-ODE steps along the mesh: each interval's increment is
    Chen-composed from the stored grid, sent through its log-coordinates, and
    integrated by :func:`logode_step` starting from the previous state."""
    indices = _mesh_indices(path, cfg)
    bound = _resolve_level(path.grading, cfg.level)
    times = [path.times[indices[0]]]
    values = [float(y0)]
    message = ""
    for a, b in zip(indices, indices[1:]):
        lam = log_element(path.increment_by_index(a, b))
        try:
            y = logode_step(
                lam,
                f,
                values[-1],
                substeps=cfg.rk4_substeps,
                level=bound,
                guard=cfg.divergence_guard,
            )
        except DivergedError as err:
            message = str(err)
        except OverflowError as err:  # a power in the right-hand side
            message = f"right-hand side overflowed in the step to {path.times[b]}: {err}"
        if message:
            break
        times.append(path.times[b])
        values.append(y)
    return FlowSolution(
        times=tuple(times),
        values=tuple(values),
        config=cfg,
        provenance=provenance,
        diverged=bool(message),
        message=message,
    )


# ---------------------------------------------------------------------------
# Davie residual report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DavieReport:
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
    scales a residual slope is fitted over."""
    n = len(times) - 1
    if max_block is None:
        max_block = n
    out: list[tuple[float, float]] = []
    block = max(1, min_block)
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
    level: Fraction | int | None = None,
) -> DavieReport:
    bound = _resolve_level(path.grading, level)
    rows = []
    for s, t in pairs:
        ys = sol.value_at(s)
        yt = sol.value_at(t)
        try:
            expansion = davie_expansion(path, f, s, t, ys, level=bound)
        except OverflowError as exc:  # a power in the right-hand side
            message = f"expansion over [{s}, {t}] overflowed at state {ys}: {exc}"
            raise DivergedError(message, substep=1, state=ys) from exc
        rows.append((s, t, abs(yt - expansion)))
    xs = []
    ys_log = []
    for s, t, residual in rows:
        if t > s and residual > 0.0:
            xs.append(math.log(t - s))
            ys_log.append(math.log(residual))
    if len(xs) >= 2 and max(xs) > min(xs):
        slope = float(np.polyfit(np.array(xs), np.array(ys_log), 1)[0])
    else:
        slope = math.nan
    gamma = path.grading.gamma
    return DavieReport(
        rows=tuple(rows),
        slope=slope,
        target_slope=float((bound + 1) * gamma),
        level=float(bound),
        gamma=float(gamma),
    )


# ---------------------------------------------------------------------------
# reference solver for smooth drivers
# ---------------------------------------------------------------------------


def reference_ode_solve(
    f: VectorField,
    driver_derivatives: Sequence[Callable[[float], float]],
    y0: float,
    times: Sequence[float],
) -> np.ndarray:
    """Classical RK4 for dY = f₀(Y)dt + Σ_i f_i(Y)·Ẋ^i(t)dt on the given
    mesh; the driver enters through its time derivatives, one callable per
    space letter."""
    if len(driver_derivatives) != f.d:
        raise ValueError(
            f"need {f.d} driver derivatives (one per space letter), "
            f"got {len(driver_derivatives)}"
        )

    def rhs(t: float, z: float) -> float:
        total = f.derivative(0, 0, z)
        for i, dx in enumerate(driver_derivatives, start=1):
            total += f.derivative(i, 0, z) * dx(t)
        return total

    out = np.empty(len(times), dtype=float)
    out[0] = float(y0)
    y = float(y0)
    for j in range(len(times) - 1):
        t = times[j]
        dt = times[j + 1] - times[j]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not math.isfinite(y):
            raise DivergedError(
                f"reference solve left the finite range after t={t}",
                substep=j + 1,
                state=y,
            )
        out[j + 1] = y
    return out
