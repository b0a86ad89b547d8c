"""Command-line surface for the package.

Subcommands: ``enumerate`` (graded basis listing), ``verify`` (identity
suites), ``lift`` (piecewise-linear or lattice Brownian rough-path lifts),
``solve`` (truncated log-flow integration), ``translate`` (rough-path
translation by characters), ``translate-field`` (vector-field translation),
``davie-report`` (local-expansion residual slopes), ``ito-strat-demo``
(Monte-Carlo second-level gap statistics).

Conventions shared by every subcommand:

* every run emits a provenance header — package and library versions, the
  RNG algorithm and seed, and the resolved configuration; a timestamp is
  included unless ``--no-timestamp`` is passed, so byte-identical reruns
  are available on demand;
* JSON output carries floats as JSON numbers and exact rationals as
  ``"p/q"`` strings; CSV output uses the ``.`` decimal point regardless of
  locale;
* exit codes: 0 success, 1 verification failure, 2 usage or input error,
  3 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .fields import VectorField
    from .group import RoughPathGrid
    from .translation import Character

# Each handler imports the layers it uses, so a run loads only those (and
# building the parser loads no numpy).

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class UsageError(ValueError):
    """Invalid flags or malformed input files; maps to exit code 2."""


# ---------------------------------------------------------------------------
# small shared plumbing
# ---------------------------------------------------------------------------


def _parse_gamma(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse gamma {text!r} as a rational p/q") from exc
    if not 0 < value < 1:
        raise UsageError(f"gamma must lie strictly between 0 and 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_level(text: str | None) -> Fraction | None:
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse level {text!r} as a rational p/q") from exc


def _provenance(args: argparse.Namespace, config: dict, seed: int | None) -> dict:
    import datetime
    import platform

    import numpy as np

    from .lifts import RNG_ALGORITHM

    header = {
        "tool": f"mirpath {__version__}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rng": {"algorithm": RNG_ALGORITHM, "seed": seed},
        "config": config,
    }
    if not args.no_timestamp:
        header["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return header


def _open_out(args: argparse.Namespace):
    if args.out is None:
        return sys.stdout, False
    try:
        return open(args.out, "w", encoding="utf-8"), True
    except OSError as exc:
        raise UsageError(f"cannot open output file {args.out!r}: {exc}") from exc


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    stream, close = _open_out(args)
    try:
        # a non-finite number raises ValueError instead of writing NaN
        json.dump(payload, stream, indent=2, allow_nan=False)
        stream.write("\n")
    finally:
        if close:
            stream.close()


def _emit_text(header: dict, lines: list[str], args: argparse.Namespace) -> None:
    stream, close = _open_out(args)
    try:
        for key, value in header.items():
            if isinstance(value, dict):
                value = json.dumps(value, sort_keys=True)
            stream.write(f"# {key}: {value}\n")
        for line in lines:
            stream.write(line + "\n")
    finally:
        if close:
            stream.close()


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc


def _load_json(path: str) -> dict | list:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path!r} is not valid JSON: {exc}") from exc


def _load_grid(path: str) -> RoughPathGrid:
    """Accept either a bare grid document or one wrapped by ``lift``."""
    from .lifts import grid_from_json

    payload = _load_json(path)
    if isinstance(payload, dict) and "grid" in payload:
        payload = payload["grid"]
    try:
        return grid_from_json(payload)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"{path!r} does not hold a rough-path grid: {exc}") from exc


def _load_field(path: str) -> VectorField:
    from .fields import vector_field_from_json

    payload = _load_json(path)
    if isinstance(payload, dict) and "field" in payload:
        payload = payload["field"]
    try:
        return vector_field_from_json(payload)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"{path!r} does not hold a vector field: {exc}") from exc


def _load_characters(args: argparse.Namespace, d: int) -> list[Character]:
    """Character list from ``--ito-strat`` or a ``--chars`` JSON file.

    The file may hold a single character object or a list of them; any
    direction not mentioned keeps the identity character.
    """
    from .translation import (
        character_from_json,
        identity_characters,
        ito_strat_character,
    )

    if args.ito_strat and args.chars:
        raise UsageError("pass either --ito-strat or --chars, not both")
    ells = identity_characters(d)
    if args.ito_strat:
        ells[0] = ito_strat_character(d)
        return ells
    if not args.chars:
        raise UsageError("translation needs --ito-strat or --chars FILE")
    payload = _load_json(args.chars)
    entries = payload if isinstance(payload, list) else [payload]
    for entry in entries:
        try:
            ell = character_from_json(entry, d=d)
        except (KeyError, ValueError, TypeError) as exc:
            raise UsageError(f"bad character in {args.chars!r}: {exc}") from exc
        if not 0 <= ell.direction <= d:
            raise UsageError(
                f"character direction {ell.direction} outside 0..{d}"
            )
        ells[ell.direction] = ell
    return ells


def _solution_payload(sol) -> dict:
    return {
        "times": list(sol.times),
        "values": list(sol.values),
        "diverged": sol.diverged,
        "message": sol.message,
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .algebra import Grading, enumerate_populated, gamma_degree, symmetry_factor
    from .grammar import format_multi_index

    if args.d < 1:
        raise UsageError(f"need at least one driving letter, got --d {args.d}")
    if args.max_norm < 0:
        raise UsageError(f"--max-norm must be >= 0, got {args.max_norm}")
    gamma = _parse_gamma(args.gamma)
    config = {"d": args.d, "max_norm": args.max_norm, "gamma": str(gamma)}
    header = _provenance(args, config, seed=None)
    lines: list[str] = []
    if args.max_norm >= 1:
        grading = Grading(max_norm=args.max_norm, gamma=gamma)
        for m in enumerate_populated(args.d, args.max_norm):
            lines.append(
                f"{format_multi_index(m)}  degree={m.degree()}  "
                f"gamma-degree={gamma_degree(m, grading)}  "
                f"symmetry={symmetry_factor(m)}  "
                f"populated={'yes' if m.is_populated() else 'no'}"
            )
    _emit_text(header, lines, args)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import available_suites, run_all_suites

    gamma = _parse_gamma(args.gamma)
    suites = args.suite or None
    if suites:
        unknown = set(suites) - set(available_suites())
        if unknown:
            raise UsageError(
                f"unknown suites {sorted(unknown)}; "
                f"available: {', '.join(available_suites())}"
            )
    if args.inject_fault and args.inject_fault not in available_suites():
        raise UsageError(f"cannot inject fault into unknown suite {args.inject_fault!r}")
    config = {
        "d": args.d,
        "max_norm": args.max_norm,
        "gamma": str(gamma),
        "seed": args.seed,
        "suites": list(suites) if suites else "all",
    }
    try:
        results = run_all_suites(
            d=args.d, max_norm=args.max_norm, seed=args.seed, gamma=gamma,
            suites=suites, fault_suite=args.inject_fault,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    all_passed = all(r.passed for r in results)
    payload = {
        "provenance": _provenance(args, config, seed=args.seed),
        "suites": [r.to_json() for r in results],
        "all_passed": all_passed,
    }
    _emit_json(payload, args)
    if not all_passed:
        for r in results:
            if not r.passed:
                shown = "; ".join(r.failures) or "(no element recorded)"
                print(
                    f"verification failure in suite {r.name}: "
                    f"{r.failed}/{r.checked} checks failed: {shown}",
                    file=sys.stderr,
                )
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_lift(args: argparse.Namespace) -> int:
    from .algebra import Grading
    from .lifts import grid_payload, lift_brownian, lift_piecewise_linear, read_path_csv

    gamma = _parse_gamma(args.gamma)
    if bool(args.path) == bool(args.brownian):
        raise UsageError("pass exactly one of --path CSV or --brownian MODE")
    grading = Grading(max_norm=args.max_norm, gamma=gamma)
    if args.path:
        samples = read_path_csv(_read_text(args.path))
        d = len(samples[0]) - 1
        if args.d is not None and args.d != d:
            raise UsageError(
                f"--d {args.d} disagrees with the {d}-column path file"
            )
        grid = lift_piecewise_linear(samples, grading)
        seed = None
        source = {"kind": "piecewise-linear", "file": args.path}
    else:
        if args.brownian not in ("ito", "strat"):
            raise UsageError(
                f"--brownian must be 'ito' or 'strat', got {args.brownian!r}"
            )
        d = args.d if args.d is not None else 1
        grid = lift_brownian(
            d=d,
            t_final=args.t_final,
            n_steps=args.steps,
            seed=args.seed,
            mode=args.brownian,
            grading=grading,
        )
        seed = args.seed
        source = {
            "kind": f"brownian-{args.brownian}",
            "steps": args.steps,
            "t_final": args.t_final,
        }
    config = {
        "d": d,
        "gamma": str(gamma),
        "max_norm": args.max_norm,
        "source": source,
    }
    payload = {
        "provenance": _provenance(args, config, seed=seed),
        "grid": grid_payload(grid),
    }
    _emit_json(payload, args)
    return EXIT_OK


def _solve_inputs(args: argparse.Namespace) -> tuple:
    """The grid, field and solver settings that ``solve`` and
    ``davie-report`` share, and their provenance config."""
    from .solver import SolveConfig

    grid = _load_grid(args.grid)
    field = _load_field(args.field)
    if field.d != grid.d:
        raise UsageError(
            f"field drives {field.d} letters but the grid stores {grid.d}"
        )
    try:
        cfg = SolveConfig(
            rk4_substeps=args.substeps,
            mesh_level=args.mesh_level,
            level=_parse_level(args.level),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    config = {
        "grid": args.grid,
        "field": args.field,
        "y0": args.y0,
        "substeps": args.substeps,
        "mesh_level": args.mesh_level,
        "level": args.level,
    }
    return grid, field, cfg, config


def _cmd_solve(args: argparse.Namespace) -> int:
    from .solver import solve_flow

    grid, field, cfg, config = _solve_inputs(args)
    sol = solve_flow(grid, field, args.y0, cfg)
    payload = {
        "provenance": _provenance(args, config, seed=None),
        "solution": _solution_payload(sol),
    }
    _emit_json(payload, args)
    if sol.diverged:
        print(f"numeric divergence: {sol.message}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_translate(args: argparse.Namespace) -> int:
    from .algebra import Grading
    from .lifts import grid_payload
    from .translation import translate_roughpath

    grid = _load_grid(args.grid)
    ells = _load_characters(args, grid.d)
    out_grading = None
    if args.out_max_norm is not None:
        out_gamma = (
            _parse_gamma(args.out_gamma)
            if args.out_gamma is not None
            else grid.grading.gamma
        )
        out_grading = Grading(max_norm=args.out_max_norm, gamma=out_gamma)
    translated = translate_roughpath(ells, grid, out_grading)
    config = {
        "grid": args.grid,
        "characters": "ito-strat" if args.ito_strat else args.chars,
        "out_max_norm": args.out_max_norm,
        "out_gamma": args.out_gamma,
    }
    payload = {
        "provenance": _provenance(args, config, seed=None),
        "grid": grid_payload(translated),
    }
    _emit_json(payload, args)
    return EXIT_OK


def _cmd_translate_field(args: argparse.Namespace) -> int:
    from .fields import translated_field, vector_field_to_json

    field = _load_field(args.field)
    ells = _load_characters(args, field.d)
    try:
        out = translated_field(field, ells, args.max_norm)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    config = {
        "field": args.field,
        "characters": "ito-strat" if args.ito_strat else args.chars,
        "max_norm": args.max_norm,
    }
    payload = {
        "provenance": _provenance(args, config, seed=None),
        "field": json.loads(vector_field_to_json(out)),
    }
    _emit_json(payload, args)
    return EXIT_OK


def _cmd_davie_report(args: argparse.Namespace) -> int:
    from .solver import davie_residual_report, dyadic_pairs, solve_flow

    if args.max_block is not None and args.min_block > args.max_block:
        raise UsageError(
            f"--min-block {args.min_block} exceeds --max-block {args.max_block}"
        )
    grid, field, cfg, config = _solve_inputs(args)
    sol = solve_flow(grid, field, args.y0, cfg)
    if sol.diverged:
        print(f"numeric divergence: {sol.message}", file=sys.stderr)
        return EXIT_DIVERGED
    pairs = dyadic_pairs(sol.times, min_block=args.min_block, max_block=args.max_block)
    report = davie_residual_report(
        grid, field, sol, pairs, level=_parse_level(args.level)
    )
    config.update(min_block=args.min_block, max_block=args.max_block)
    payload = {
        "provenance": _provenance(args, config, seed=None),
        "report": {
            # fewer than two fit points leave no slope
            "slope": None if math.isnan(report.slope) else report.slope,
            "target_slope": report.target_slope,
            "level": report.level,
            "gamma": report.gamma,
            "rows": [list(row) for row in report.rows],
        },
    }
    _emit_json(payload, args)
    return EXIT_OK


def _cmd_ito_strat_demo(args: argparse.Namespace) -> int:
    from .lifts import brownian_pair_statistics

    if args.d < 1:
        raise UsageError(f"need at least one driving letter, got --d {args.d}")
    if args.paths < 1 or args.steps < 1:
        raise UsageError("--paths and --steps must be positive")
    stats = brownian_pair_statistics(
        d=args.d,
        t_final=args.t_final,
        n_steps=args.steps,
        n_paths=args.paths,
        seed=args.seed,
    )
    config = {
        "d": args.d,
        "paths": args.paths,
        "steps": args.steps,
        "t_final": args.t_final,
    }
    header = _provenance(args, config, seed=args.seed)
    lines = ["i,j,mean_gap,standard_error,expected,abs_z"]
    mean = stats["mean_gap"]
    se = stats["standard_error"]
    target = stats["target"]
    for i in range(args.d):
        for j in range(args.d):
            gap = float(mean[i, j])
            err = float(se[i, j])
            want = float(target[i, j])
            z = abs(gap - want) / err if err > 0 else float("inf")
            lines.append(f"{i + 1},{j + 1},{gap!r},{err!r},{want!r},{z:.3f}")
    _emit_text(header, lines, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_output(sub: argparse.ArgumentParser) -> None:
    """--out and --no-timestamp, which every subcommand takes."""
    sub.add_argument("--out", default=None, metavar="FILE",
                     help="write output here instead of stdout")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp for byte-reproducible output")


def _add_gamma(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gamma", default="1/2", metavar="P/Q",
                     help="Hölder exponent as an exact rational in (0,1)")


def _add_d(sub: argparse.ArgumentParser, default: int | None) -> None:
    sub.add_argument("--d", type=int, default=default,
                     help="number of driving letters (letter 0 is time)")


def _add_max_norm(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-norm", type=int, default=3,
                     help="degree truncation of the graded basis")


def _add_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for every random draw in this run")


def _add_solve_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", required=True, metavar="FILE",
                     help="rough-path grid JSON (as written by lift)")
    sub.add_argument("--field", required=True, metavar="FILE",
                     help="vector-field JSON")
    sub.add_argument("--y0", type=_finite_float, default=0.0, help="initial state")
    sub.add_argument("--mesh-level", type=int, default=None,
                     help="use the dyadic sub-mesh 2^-L of the stored grid")
    sub.add_argument("--substeps", type=int, default=8,
                     help="RK4 substeps per log-flow step")
    sub.add_argument("--level", default=None, metavar="P/Q",
                     help="expansion level (default: the stored truncation)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirpath",
        description="Exact multi-index combinatorics, rough-path lifts, "
                    "log-flow solving and driver translation.",
    )
    parser.add_argument("--version", action="version",
                        version=f"mirpath {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate",
                        help="list the populated graded basis with invariants")
    _add_d(p, 2)
    _add_max_norm(p)
    _add_gamma(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = subs.add_parser("verify", help="run the identity-verification suites")
    _add_d(p, 2)
    _add_max_norm(p)
    _add_seed(p)
    _add_gamma(p)
    _add_output(p)
    p.add_argument("--suite", action="append", metavar="NAME",
                   help="run only this suite (repeatable); default: all")
    p.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("lift", help="lift a path to a stored rough-path grid")
    _add_d(p, None)
    _add_max_norm(p)
    _add_seed(p)
    _add_gamma(p)
    _add_output(p)
    p.add_argument("--path", default=None, metavar="CSV",
                   help="piecewise-linear samples: t,x1,…,xd with header")
    p.add_argument("--brownian", default=None, metavar="MODE",
                   help="lattice Brownian lift, MODE is 'ito' or 'strat'")
    p.add_argument("--steps", type=int, default=1024,
                   help="number of Brownian lattice steps (power of two)")
    p.add_argument("--t-final", type=float, default=1.0,
                   help="right endpoint of the Brownian time interval")
    p.set_defaults(handler=_cmd_lift)

    p = subs.add_parser("solve", help="integrate the truncated log-flow")
    _add_output(p)
    _add_solve_inputs(p)
    p.set_defaults(handler=_cmd_solve)

    p = subs.add_parser("translate", help="translate a stored rough path")
    _add_output(p)
    p.add_argument("--grid", required=True, metavar="FILE")
    p.add_argument("--chars", default=None, metavar="FILE",
                   help="character JSON (object or list of objects)")
    p.add_argument("--ito-strat", action="store_true",
                   help="use the built-in Itô→Stratonovich drift character")
    p.add_argument("--out-max-norm", type=int, default=None,
                   help="force the output truncation instead of deriving it")
    p.add_argument("--out-gamma", default=None, metavar="P/Q",
                   help="force the output Hölder exponent")
    p.set_defaults(handler=_cmd_translate)

    p = subs.add_parser("translate-field",
                        help="translate a polynomial vector field")
    _add_max_norm(p)
    _add_output(p)
    p.add_argument("--field", required=True, metavar="FILE")
    p.add_argument("--chars", default=None, metavar="FILE")
    p.add_argument("--ito-strat", action="store_true")
    p.set_defaults(handler=_cmd_translate_field)

    p = subs.add_parser("davie-report",
                        help="residual decay of the local expansion")
    _add_output(p)
    _add_solve_inputs(p)
    p.add_argument("--min-block", type=int, default=1,
                   help="smallest dyadic block size in the residual fit")
    p.add_argument("--max-block", type=int, default=None,
                   help="largest dyadic block size in the residual fit")
    p.set_defaults(handler=_cmd_davie_report)

    p = subs.add_parser("ito-strat-demo",
                        help="Monte-Carlo second-level gap statistics")
    _add_d(p, 1)
    _add_seed(p)
    _add_output(p)
    p.add_argument("--paths", type=int, default=10000,
                   help="number of Monte-Carlo paths")
    p.add_argument("--steps", type=int, default=4096,
                   help="lattice steps per path")
    p.add_argument("--t-final", type=float, default=1.0)
    p.set_defaults(handler=_cmd_ito_strat_demo)

    return parser


def _diverged_error() -> type:
    """The solver's divergence error, imported only when an exception that
    is not a usage error has to be matched against it."""
    from .solver import DivergedError

    return DivergedError


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # --gamma is validated before any other flag is checked or file read
        if getattr(args, "gamma", None) is not None:
            _parse_gamma(args.gamma)
        return args.handler(args)
    except (ValueError, OSError) as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _diverged_error() as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
