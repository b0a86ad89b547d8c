"""Concrete rough-path lifts and the path CSV format.

Every lift stores one increment per step, in closed form in the step's
coordinate increments ΔXⁱ (letter 0 is time): w(β)·Π_i (ΔXⁱ)^{n_i(β)} on β,
where n_i(β) counts the variables of β with letter i.  An affine step's
signature on monomials is the Taylor series of the flow of
ẏ = Σ_i ΔXⁱ f_i(y), whose degree-k part is the right-nested pre-Lie graft
S_k = (S_1 ▷ S_{k−1})/k of S_1 = Σ_i z(i,0); the graft keeps every letter,
so the signature is this with w = c(β) = S(β)·[S_{|β|}]_β, computed over ℚ
by ``prelie_graft`` once per (d, N) in ``_affine_weights`` (an
``lru_cache`` of 8).  Each lift rule only chooses w:

* ``lift_piecewise_linear`` (a sampled path, affine between samples): w = c;
* ``lift_brownian`` with ``"strat"``: the trapezoid rule on a lattice step
  of a seeded Brownian motion, w = c with its degree-3 values times 3/2;
* ``lift_brownian`` with ``"ito"``: the left-point rule, w = c = 1 on degree 1.

The Brownian lattice lift is limited to level ≤ 3.  Each lift writes its
step values by slot into the row tuples of one grid, whose ``depth`` is the
highest degree it stores and evaluates (1 for the Itô rule); multi-step
increments follow by Chen composition in every case.  A grid holds finite
times and values, so a step value that overflows is refused.  The step
values are plain float arithmetic, in one straight-line step function per
(d, N) compiled beside the weights.  ``lift_brownian`` draws its Gaussians
from ``_pcg``, a plain-Python reader of numpy's PCG64 normal stream, and
only ``brownian_pair_statistics`` imports numpy, whose vectorised reader
of the same stream serves its Monte-Carlo.

The CSV format at the bottom holds sampled paths; the grid's JSON format
lives beside :class:`~mirpath.group.RoughPathGrid`, so reading a grid
loads no lift.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import _EXPORTS
from .algebra import FormalSum, Grading, _populated_tuple, prelie_graft, single
from .group import RoughPathGrid, _key_index, _straight_line

__all__ = list(_EXPORTS["lifts"])

class UnsupportedLevelError(ValueError):
    """Requested truncation exceeds what the construction can honestly fill."""


# ---------------------------------------------------------------------------
# Step values, shared by every lift
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _affine_weights(d: int, n: int) -> tuple[tuple[int | Fraction, ...], Callable]:
    """The exact affine weights c(β) on the slots of ``_key_index(d, n)``,
    and the compiled step ``step(w, dx)``: the tuple of w[p]·Π_i dx[i]^{n_i(β)}
    on each slot p, multiplied in letter order.

    The grafts run over monomials only: S_k is the single-component part of
    x^⋆k/k!, since x ⋆ u leaves a single component only where u has one."""
    x = FormalSum({single(i, 0, d): 1 for i in range(d + 1)})
    powers = [x]  # powers[k − 1] = S_k = (x ▷ S_{k−1})/k, of degree k
    for k in range(2, n + 1):
        last = powers[-1].items()
        powers.append(FormalSum.linear(
            (prelie_graft(a, b), Fraction(c, k)) for a in x.terms for b, c in last
        ))
    keys = _key_index(d, n)
    weights = tuple(
        beta.symmetry_factor() * powers[beta.degree() - 1].coefficient(beta) for beta in keys
    )
    monomials = [
        f"w{p}" + "".join(
            f"*x{i}" + (f"**{c}" if c > 1 else "")
            for i in range(d + 1) if (c := beta.letter_count(i))
        )
        for beta, p in keys.items()
    ]
    step = _straight_line(f"affine step d={d} N={n}", [("w", len(keys)), ("x", d + 1)], monomials)
    return weights, step


def _lift(d: int, grading: Grading, times, dxs, depth: int, degree3=1.0) -> RoughPathGrid:
    """The grid whose row m holds w(β)·Π_i dxs[m][i]^{n_i(β)} on each β of
    degree ≤ ``depth``, with w = c times ``degree3`` at degree 3, and 0
    above; the grid refuses a row that overflows."""
    weights, step = _affine_weights(d, depth)
    degree3_from = len(_populated_tuple(d, 2))
    w = tuple(float(c) * degree3 if p >= degree3_from else float(c) for p, c in enumerate(weights))
    pad = (0.0,) * (len(_key_index(d, grading.max_norm)) - len(weights))
    coords = tuple(_step_row(step, w, dx) + pad for dx in dxs)
    return RoughPathGrid._of(d, grading, times, coords, depth)


def _step_row(step: Callable, w: tuple[float, ...], dx: Sequence[float]) -> tuple[float, ...]:
    """``step(w, dx)``, or a row of inf where a power leaves the float
    range (Python's ``**`` raises there), which the grid refuses."""
    try:
        return step(w, dx)
    except OverflowError:
        return (math.inf,) * len(w)


# ---------------------------------------------------------------------------
# Piecewise-linear lift
# ---------------------------------------------------------------------------


def lift_piecewise_linear(
    samples: Sequence[tuple[float, ...]], grading: Grading
) -> RoughPathGrid:
    """Lift a sampled path, affine between samples, onto the grid it defines.

    ``samples`` rows are ``(t, x_1, …, x_d)``; the time coordinate becomes
    the letter-0 component with unit slope.  Each consecutive pair yields one
    stored increment; wider increments are composed on demand.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    widths = {len(row) for row in samples}
    if len(widths) != 1:
        raise ValueError("ragged sample rows")
    d = widths.pop() - 1
    if d < 1:
        raise ValueError("samples must contain at least one state coordinate")
    rows = [tuple(map(float, row)) for row in samples]
    times = [row[0] for row in rows]
    dxs = [tuple(b - a for a, b in zip(r, s)) for r, s in zip(rows, rows[1:])]
    return _lift(d, grading, times, dxs, grading.max_norm)


# ---------------------------------------------------------------------------
# Lattice Brownian lift
# ---------------------------------------------------------------------------


def _check_t_final(t_final: float) -> None:
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")


def lift_brownian(
    d: int,
    t_final: float,
    n_steps: int,
    seed: int,
    mode: str,
    grading: Grading,
) -> RoughPathGrid:
    """Seeded lattice Brownian lift on [0, t_final] at level ≤ 3.

    ``mode`` selects the evaluation rule for the single-step iterated sums:
    ``"ito"`` (left point) or ``"strat"`` (trapezoid).  The time coordinate
    (letter 0) is the exact function t, not a sampled one.  Replaying the
    same seed reproduces the grid bit for bit: the increments are those of
    numpy's ``Generator(PCG64(seed)).normal(0.0, √dt, (n_steps, d))``.  The
    seed must be a non-negative integer.
    """
    if n_steps < 1 or (n_steps & (n_steps - 1)) != 0:
        raise ValueError(f"n_steps must be a power of two, got {n_steps}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    _check_t_final(t_final)
    from ._pcg import _normals

    dt = t_final / n_steps
    draws = _normals(seed, n_steps * d, math.sqrt(dt))
    dw = [draws[m : m + d] for m in range(0, len(draws), d)]
    return lift_brownian_from_increments(dw, dt, mode, grading)


def lift_brownian_from_increments(
    dw: Sequence[Sequence[float]], dt: float, mode: str, grading: Grading
) -> RoughPathGrid:
    """Assemble the lattice lift from externally supplied Gaussian increments
    (one row per step, one column per driving letter ≥ 1) on the step ``dt``."""
    if grading.max_norm > 3:
        raise UnsupportedLevelError(
            f"lattice Brownian lift supports max_norm ≤ 3, got {grading.max_norm}"
        )
    if mode not in ("ito", "strat"):
        raise ValueError(f"mode must be 'ito' or 'strat', got {mode!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if len(dw) == 0:
        raise ValueError("no increments: dw needs at least one row")
    widths = {len(row) for row in dw}
    if len(widths) != 1:
        raise ValueError(f"ragged increment rows: widths {sorted(widths)}")
    d = widths.pop()
    if d < 1:
        raise ValueError("increment rows must hold at least one driving letter")
    dxs = [(dt, *map(float, row)) for row in dw]
    times = [float(dt * m) for m in range(len(dxs) + 1)]
    # Left point (Itô): every integrand of degree ≥ 2 vanishes at the start
    # of the step, so only level 1 is stored; higher levels come from Chen
    # composition.
    if mode == "ito":
        return _lift(d, grading, times, dxs, 1)
    # Trapezoid (Stratonovich): ∫ g dX ↦ ½ g(end) ΔX, as g(start) = 0, where
    # the exact affine integral weighs degree n by 1/n.  The two agree at
    # degree 2, so at degree 3, whose integrands are degree-2 values, the rule
    # is the affine weight times ½ / (1/3) = 3/2; max_norm ≤ 3 leaves no other.
    return _lift(d, grading, times, dxs, grading.max_norm, degree3=1.5)


# Paths drawn per batch by brownian_pair_statistics: bounds the draw array at
# 500 × n_steps × d normals; the draw stream does not depend on it.
_PATH_CHUNK = 500


def brownian_pair_statistics(
    d: int,
    t_final: float,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> dict:
    """Monte-Carlo summary of the composed level-2 Stratonovich−Itô gap.

    For each ordered letter pair (i,j) the composed value over [0, t_final]
    of the iterated integral with inner letter i and outer letter j is, per
    step values and Chen composition,

        Itô:   Σ_m (B^i_{t_m} − B^i_0) ΔB^j_m
        Strat: Σ_m ½(B^i_{t_m} + B^i_{t_{m+1}} − 2B^i_0) ΔB^j_m

    so the gap is ½ Σ_m ΔB^i_m ΔB^j_m.  The paths are drawn from a single
    seeded generator in fixed-size chunks, which keeps the stream identical
    to per-path sequential draws.  Returns the ``(d, d)`` arrays
    ``mean_gap`` and ``standard_error``, per pair, with ``target``, the
    lattice expectation (t/2 on the diagonal, 0 off it).
    """
    _check_t_final(t_final)
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    dt = t_final / n_steps
    sums = np.zeros((d, d))
    sq_sums = np.zeros((d, d))
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, refused below
        while done < n_paths:
            take = min(_PATH_CHUNK, n_paths - done)
            dw = rng.normal(0.0, math.sqrt(dt), size=(take, n_steps, d))
            # gap[p,i,j] = ½ Σ_m ΔB^i ΔB^j for path p
            gap = 0.5 * np.einsum("pmi,pmj->pij", dw, dw)
            sums += gap.sum(axis=0)
            sq_sums += (gap**2).sum(axis=0)
            done += take
        mean = sums / n_paths
        var = sq_sums / n_paths - mean**2
    se = np.sqrt(np.maximum(var, 0.0) / n_paths)
    if not (np.isfinite(mean).all() and np.isfinite(se).all()):
        raise ValueError(f"gap statistics overflow the float range at t_final = {t_final}")
    target = np.full((d, d), 0.0)
    np.fill_diagonal(target, t_final / 2.0)
    return {"mean_gap": mean, "standard_error": se, "target": target}


# ---------------------------------------------------------------------------
# Sampled paths as CSV
# ---------------------------------------------------------------------------


def write_path_csv(samples: Iterable[tuple[float, ...]], stream) -> None:
    import csv

    rows = list(samples)
    if not rows:
        raise ValueError("no samples to write")
    d = len(rows[0]) - 1
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["t"] + [f"x{i}" for i in range(1, d + 1)])
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])


def read_path_csv(stream) -> list[tuple[float, ...]]:
    """Rows of ``t,x1,…,xd`` with a mandatory header, '.' decimal point."""
    import csv

    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or not header or header[0].strip() != "t":
        raise ValueError("path CSV must start with a 't,x1,…' header row")
    samples = []
    width = len(header)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"row {lineno} has {len(row)} fields, expected {width}")
        sample = tuple(float(v) for v in row)
        if not all(math.isfinite(v) for v in sample):
            raise ValueError(f"row {lineno} holds a non-finite number")
        samples.append(sample)
    if len(samples) < 2:
        raise ValueError("path CSV needs at least two sample rows")
    return samples
