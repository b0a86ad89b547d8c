"""Concrete rough-path lifts and grid serialization.

Every lift stores one increment per step, computed in closed form from the
step's coordinate increments ΔX^i (letter 0 is time) by the recursion

    X(z(i,0)) = ΔX^i,   X(z^β) = w(|β|) · Σ_{(i,k)} Σ_{β = e(i,k)+β₁+…+β_k} ΔX^i · Π_j X(z^{β_j}),

with the weight w fixing the rule:

* ``lift_piecewise_linear`` (a sampled path, affine between samples):
  w(n) = 1/n, the exact iterated integrals of an affine segment;
* ``lift_brownian`` with ``"strat"``: w = ½, the trapezoid rule on a
  lattice step of a seeded Brownian motion;
* ``lift_brownian`` with ``"ito"``: the left-point rule, which leaves only
  level 1 within a step.

The Brownian lattice lift is limited to level ≤ 3.  Each lift writes its
step values by slot into the rows of one grid array, whose ``depth`` is the
highest degree it stores (1 for the Itô rule); multi-step increments follow
by Chen composition in every case.

The JSON/CSV formats at the bottom are the package's only on-disk path
representations; a grid file lists every key up to the grid's depth.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .algebra import Grading, MultiIndex, _populated_tuple
from .grammar import _json_int, format_multi_index, parse_multi_index
from .group import RoughPathGrid, _first_non_finite, _key_index, _slot

__all__ = [
    "UnsupportedLevelError",
    "lift_piecewise_linear",
    "lift_brownian",
    "brownian_pair_statistics",
    "grid_payload",
    "grid_to_json",
    "grid_from_json",
    "read_path_csv",
    "write_path_csv",
]

#: Generator family used for every stochastic draw in the package; the name
#: and version are quoted in CLI provenance headers.
RNG_ALGORITHM = "numpy.random.PCG64"


class UnsupportedLevelError(ValueError):
    """Requested truncation exceeds what the construction can honestly fill."""


# ---------------------------------------------------------------------------
# Decomposition of a populated multi-index into integration layers
# ---------------------------------------------------------------------------


# Bounds: at d=3, N=4 the lifts need 170 (mi, k) keys here and 420 β below.
@lru_cache(maxsize=256)
def _ordered_parts(mi: MultiIndex, k: int) -> tuple[tuple[MultiIndex, ...], ...]:
    """All ordered k-tuples of populated multi-indices with product ``mi``."""
    if k == 0:
        return ((),) if mi.is_empty else ()
    if k == 1:
        return ((mi,),) if (not mi.is_empty and mi.is_populated()) else ()
    out = []
    for head in mi.sub_multi_indices():
        if head.is_empty or not head.is_populated():
            continue
        rest = mi.minus(head)
        for tail in _ordered_parts(rest, k - 1):
            out.append((head,) + tail)
    return tuple(out)


@lru_cache(maxsize=512)
def integral_decompositions(
    beta: MultiIndex,
) -> tuple[tuple[int, int, tuple[MultiIndex, ...]], ...]:
    """All ways to peel one integration off z^β: triples (i, k, inner parts)
    with β = e(i,k) + β₁ + … + β_k and every βⱼ populated."""
    out = []
    for (i, k), _ in beta.entries:
        rest = beta.without(i, k)
        if k == 0:
            if rest.is_empty:
                out.append((i, 0, ()))
            continue
        for parts in _ordered_parts(rest, k):
            out.append((i, k, parts))
    return tuple(out)


# ---------------------------------------------------------------------------
# Closed-form step values, shared by every lift
# ---------------------------------------------------------------------------


def _lift_steps(
    d: int,
    grading: Grading,
    times: Sequence[float],
    dxs: Sequence[Sequence[float]],
    depth: int,
    weight: Callable[[int], float],
) -> RoughPathGrid:
    """One stored increment per row of ``dxs`` (letter 0 is time), its values
    of degree ≤ ``depth`` written by slot:

        X(z(i,0)) = dx[i],   X(z^β) = weight(|β|) · Σ dx[i] · Π_j X(z^{β_j})

    summed over ``integral_decompositions(β)``.  The slots of degree 1 are
    those of z(0,0) … z(d,0), in order, and every β comes after its parts."""
    index = _key_index(d, grading.max_norm)
    rules = [
        (weight(beta.degree()), [(i, [index[bj] for bj in parts])
                                 for i, _, parts in integral_decompositions(beta)])
        for beta in tuple(index)[d + 1 : len(_populated_tuple(d, depth))]
    ]
    padding = [0.0] * (len(index) - d - 1)
    coords = np.empty((len(dxs), len(index)))
    for m, dx in enumerate(dxs):
        row = [*dx, *padding]
        for p, (w, terms) in enumerate(rules, start=d + 1):
            total = 0.0
            for i, slots in terms:
                prod = 1.0
                for q in slots:
                    prod *= row[q]
                total += w * prod * dx[i]
            row[p] = total
        coords[m] = row
    if (m := _first_non_finite(coords)) is not None:
        raise ValueError(
            f"lift value overflows on segment {m} (t = {times[m]} .. {times[m + 1]})"
        )
    return RoughPathGrid._of(d, grading, times, coords, depth)


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
    times = [float(row[0]) for row in samples]
    dxs = [
        [float(b) - float(a) for a, b in zip(row0, row1)]
        for row0, row1 in zip(samples, samples[1:])
    ]
    # On an affine segment the integrand of a degree-n value grows like
    # u^{n−1}, so integrating it against dX^i gives 1/n of its end value · ΔX^i.
    return _lift_steps(d, grading, times, dxs, grading.max_norm, lambda n: 1.0 / n)


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
    same seed reproduces the grid bit for bit.
    """
    if n_steps < 1 or (n_steps & (n_steps - 1)) != 0:
        raise ValueError(f"n_steps must be a power of two, got {n_steps}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    _check_t_final(t_final)
    rng = np.random.Generator(np.random.PCG64(seed))
    dt = t_final / n_steps
    dw = rng.normal(0.0, math.sqrt(dt), size=(n_steps, d))
    return lift_brownian_from_increments(dw, dt, mode, grading)


def lift_brownian_from_increments(
    dw: np.ndarray, dt: float, mode: str, grading: Grading
) -> RoughPathGrid:
    """Assemble the lattice lift from externally supplied Gaussian increments
    (one row per step, one column per driving letter ≥ 1)."""
    if grading.max_norm > 3:
        raise UnsupportedLevelError(
            f"lattice Brownian lift supports max_norm ≤ 3, got {grading.max_norm}"
        )
    if mode not in ("ito", "strat"):
        raise ValueError(f"mode must be 'ito' or 'strat', got {mode!r}")
    n_steps, d = dw.shape
    dxs = [[dt] + [float(v) for v in row] for row in dw]
    times = [float(dt * m) for m in range(n_steps + 1)]
    # Left point (Itô): every integrand of degree ≥ 2 vanishes at the start
    # of the step, so only level 1 is stored; higher levels come from Chen
    # composition.  Trapezoid (Stratonovich): ∫ g dX ↦ ½(g(start) + g(end))ΔX
    # with g(start) = 0.
    depth = 1 if mode == "ito" else grading.max_norm
    return _lift_steps(d, grading, times, dxs, depth, lambda n: 0.5)


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
    to per-path sequential draws.  Returns per-pair means and standard errors
    together with the lattice expectation (t/2 on the diagonal, 0 off it).
    """
    _check_t_final(t_final)
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
    return {
        "n_paths": n_paths,
        "n_steps": n_steps,
        "t_final": t_final,
        "rng": RNG_ALGORITHM,
        "seed": seed,
        "mean_gap": mean,
        "standard_error": se,
        "target": target,
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def grid_payload(path: RoughPathGrid) -> dict:
    """The JSON document of a grid, as a dict: each increment lists every
    key of degree ≤ ``path.depth``, sorted by entries, zeros included."""
    index = _key_index(path.d, path.grading.max_norm)
    keys = tuple(index)[: len(_populated_tuple(path.d, path.depth))]
    order = sorted(range(len(keys)), key=lambda p: keys[p].entries)
    names = [format_multi_index(keys[p]) for p in order]
    return {
        "d": path.d,
        "gamma": f"{path.grading.gamma.numerator}/{path.grading.gamma.denominator}",
        "max_norm": path.grading.max_norm,
        "times": list(path.times),
        "increments": [dict(zip(names, row)) for row in path.coords[:, order].tolist()],
    }


def grid_to_json(path: RoughPathGrid) -> str:
    return json.dumps(grid_payload(path), indent=2)


def grid_from_json(doc: str | Mapping) -> RoughPathGrid:
    """Read a grid from its JSON text or from the already-parsed document.
    Each distinct key string is parsed and checked once; the grid stores
    the degrees up to the highest key degree in the document."""
    payload = json.loads(doc) if isinstance(doc, str) else doc
    d = _json_int(payload, "d")
    grading = Grading(max_norm=_json_int(payload, "max_norm"), gamma=Fraction(payload["gamma"]))
    times = tuple(float(t) for t in payload["times"])
    if not all(math.isfinite(t) for t in times):
        raise ValueError("grid times must be finite numbers")
    index = tuple(_key_index(d, grading.max_norm))
    increments = payload["increments"]
    slots: dict[str, int] = {}
    coords = np.empty((len(increments), len(index)))
    for m, entry in enumerate(increments):
        if not isinstance(entry, Mapping):
            raise ValueError(f"increment {m} is not a JSON object")
        row = [0.0] * len(index)
        for key, v in entry.items():
            if (p := slots.get(key)) is None:
                p = slots[key] = _slot(parse_multi_index(key, d=d), d, grading)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"increment {m} holds {v!r} under {key!r}, not a number")
            row[p] = float(v)
        coords[m] = row
    if (m := _first_non_finite(coords)) is not None:
        raise ValueError(f"increment {m} holds a non-finite value")
    depth = max((index[p].degree() for p in slots.values()), default=0)
    return RoughPathGrid._of(d, grading, times, coords, depth)


def write_path_csv(samples: Iterable[tuple[float, ...]], stream) -> None:
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
