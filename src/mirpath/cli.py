"""Command-line surface for the package.

Subcommands: ``enumerate`` (graded basis listing), ``verify`` (identity
suites), ``lift`` (piecewise-linear or lattice Brownian rough-path lifts),
``solve`` (truncated log-flow integration), ``translate`` (rough-path
translation by characters), ``translate-field`` (vector-field translation),
``davie-report`` (local-expansion residual slopes), ``ito-strat-demo``
(Monte-Carlo second-level gap statistics).

Each handler computes and returns an :class:`_Output`: its provenance
config and seed, its body (a JSON mapping, text lines, or no document), its
exit code and an optional note for stderr.  :func:`main` alone turns that
into output, so these conventions hold for every subcommand:

* every document opens with a provenance header — package and library
  versions, the RNG algorithm and seed, and the resolved configuration; a
  timestamp is included unless ``--no-timestamp`` is passed, so
  byte-identical reruns are available on demand;
* the document is streamed to ``--out`` or stdout only after the handler
  returns, so an error raised while computing leaves no output;
* JSON output carries floats as JSON numbers and exact rationals as
  ``"p/q"`` strings, and never ``NaN`` or ``Infinity``; CSV output uses the
  ``.`` decimal point regardless of locale;
* exit codes: 0 success, 1 verification failure, 2 usage or input error,
  3 numeric divergence (``solve`` still writes its partial solution,
  ``davie-report`` writes nothing).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from . import __version__

if TYPE_CHECKING:
    from fractions import Fraction

    from .fields import VectorField
    from .group import RoughPathGrid
    from .translation import Character

# Each handler imports the layers it uses, so a run loads only those (and
# only the pair statistics of ito-strat-demo load numpy).

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

#: Generator family of the lifts' stochastic draws, quoted in every
#: provenance header: ``lifts.lift_brownian`` reads it through ``_pcg`` and
#: ``lifts.brownian_pair_statistics`` through numpy, bit for bit the same
#: stream.
RNG_ALGORITHM = "numpy.random.PCG64"


class UsageError(ValueError):
    """Invalid flags or malformed input files; maps to exit code 2."""


class _Output(NamedTuple):
    """What a handler computed.  ``body`` is a JSON mapping (written after
    the provenance header), text lines (written after one ``#`` line per
    header field), or None for no document."""

    config: dict
    seed: int | None
    body: dict | list[str] | None
    code: int = EXIT_OK
    note: str | None = None


# ---------------------------------------------------------------------------
# small shared plumbing
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below with the same message as a NaN
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _integer(low: int, noun: str):
    """argparse type: an integer of any size that is at least ``low``,
    called ``noun`` when refused."""

    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):
            if (value := int(text)) >= low:
                return value
        raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")

    return parse


_non_negative = _integer(0, "a non-negative integer")
_count = _integer(1, "a positive integer")


def _rational(text: str) -> Fraction:
    """argparse type: an exact rational such as 3/2 or 1.5, by the rule of
    the input files.  The import is here so that building the parser
    imports no package module."""
    from . import algebra

    with contextlib.suppress(ValueError, ZeroDivisionError):
        return algebra._rational(text)
    raise argparse.ArgumentTypeError(f"expected a rational p/q, got {text!r}")


def _gamma(text: str) -> Fraction:
    """argparse type: an exact rational strictly between 0 and 1."""
    if 0 < (value := _rational(text)) < 1:
        return value
    raise argparse.ArgumentTypeError(f"expected a rational p/q in (0, 1), got {text!r}")


def _numpy_version() -> str | None:
    """numpy's version, found without importing numpy, so that a command
    that computes without it loads none: from its ``version.py``, which
    holds plain constants from numpy 1.26 on, else from the installed
    distribution's metadata; None if numpy is not installed."""
    import importlib.util
    import os

    numpy = importlib.util.find_spec("numpy")
    if numpy is None or numpy.origin is None:
        return None
    path = os.path.join(os.path.dirname(numpy.origin), "version.py")
    try:
        spec = importlib.util.spec_from_file_location("version", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.__version__
    except (ImportError, OSError, AttributeError):  # numpy < 1.26 imports its version
        from importlib import metadata

        return metadata.version("numpy")


def _provenance(args: argparse.Namespace, out: _Output) -> dict:
    header = {
        "tool": f"mirpath {__version__}",
        "python": sys.version.split()[0],  # as platform.python_version() reads it
        "numpy": _numpy_version(),
        "rng": {"algorithm": RNG_ALGORITHM, "seed": out.seed},
        "config": out.config,
    }
    if not args.no_timestamp:
        import datetime

        header["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return header


def _write(path: str | None, header: dict, body: dict | list[str]) -> None:
    """Stream one document to the file ``path``, or to stdout if None."""
    sink = contextlib.nullcontext(sys.stdout)
    if path is not None:
        try:
            sink = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot open output file {path!r}: {exc}") from exc
    with sink as stream:
        if isinstance(body, dict):
            # a non-finite number raises ValueError instead of writing NaN
            json.dump({"provenance": header, **body}, stream, indent=2, allow_nan=False)
            stream.write("\n")
        else:
            for key, value in header.items():
                if isinstance(value, dict):
                    value = json.dumps(value, sort_keys=True)
                stream.write(f"# {key}: {value}\n")
            for line in body:
                stream.write(line + "\n")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc


def _read_input(path: str, reader, what: str, wrapper: str | None = None):
    """``reader`` applied to the JSON document in ``path``, unwrapped from
    its ``wrapper`` field if the file is a CLI output."""
    from .grammar import _unique_keys

    text = _read_text(path)
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path!r} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path!r} does not hold {what}: {exc}") from exc
    if isinstance(payload, dict) and wrapper in payload:
        payload = payload[wrapper]
    return _parse_input(path, reader, payload, what)


def _parse_input(path: str, reader, content, what: str):
    """``reader(content)``, where ``content`` was read from ``path``;
    malformed content is a usage error that names the file."""
    try:
        return reader(content)
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        raise UsageError(f"{path!r} does not hold {what}: {exc}") from exc


def _load_grid(path: str) -> RoughPathGrid:
    """Accept either a bare grid document or one wrapped by ``lift``."""
    from .group import grid_from_json

    return _read_input(path, grid_from_json, "a rough-path grid", "grid")


def _load_field(path: str) -> VectorField:
    from .fields import vector_field_from_json

    return _read_input(path, vector_field_from_json, "a vector field", "field")


def _load_characters(args: argparse.Namespace, d: int) -> list[Character]:
    """Character list from ``--ito-strat`` or a ``--chars`` JSON file.

    The file may hold a single character object or a list of them; any
    direction not mentioned keeps the identity character.
    """
    from .translation import _ito_strat_characters, character_from_json, identity_characters

    if args.ito_strat and args.chars:
        raise UsageError("pass either --ito-strat or --chars, not both")
    if args.ito_strat:
        return _ito_strat_characters(d)
    if not args.chars:
        raise UsageError("translation needs --ito-strat or --chars FILE")

    def read(payload) -> list[Character]:
        entries = payload if isinstance(payload, list) else [payload]
        out = [character_from_json(entry, d=d) for entry in entries]
        seen: set[int] = set()
        for ell in out:
            if ell.direction in seen:
                raise ValueError(f"direction {ell.direction} has two characters")
            seen.add(ell.direction)
        return out

    ells = identity_characters(d)
    for ell in _read_input(args.chars, read, "characters"):
        ells[ell.direction] = ell
    return ells


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> _Output:
    from .algebra import enumerate_populated
    from .grammar import format_multi_index

    config = {"d": args.d, "max_norm": args.max_norm, "gamma": str(args.gamma)}
    lines = [
        f"{format_multi_index(m)}  degree={m.degree()}  "
        f"gamma-degree={m.gamma_degree(args.gamma)}  "
        f"symmetry={m.symmetry_factor()}  "
        f"populated={'yes' if m.is_populated() else 'no'}"
        for m in enumerate_populated(args.d, args.max_norm)
    ]
    return _Output(config, None, lines)


def _cmd_verify(args: argparse.Namespace) -> _Output:
    from .verify import run_all_suites

    config = {
        "d": args.d,
        "max_norm": args.max_norm,
        "seed": args.seed,
        "suites": args.suite or "all",
    }
    results = run_all_suites(
        d=args.d, max_norm=args.max_norm, seed=args.seed,
        suites=args.suite, fault_suite=args.inject_fault,
    )
    failures = [
        f"verification failure in suite {r.name}: {r.failed}/{r.checked} checks "
        f"failed: {'; '.join(r.failures) or '(no element recorded)'}"
        for r in results
        if not r.passed
    ]
    body = {"suites": [r.to_json() for r in results], "all_passed": not failures}
    if failures:
        return _Output(config, args.seed, body, EXIT_VERIFICATION, "\n".join(failures))
    return _Output(config, args.seed, body)


def _cmd_lift(args: argparse.Namespace) -> _Output:
    from .algebra import Grading
    from .grammar import _at_most
    from .group import grid_payload
    from .lifts import lift_brownian, lift_piecewise_linear, read_path_csv

    if bool(args.path) == bool(args.brownian):
        raise UsageError("pass exactly one of --path CSV or --brownian MODE")
    # the grid reader's bounds, so that no lift writes a grid it refuses
    grading = Grading(max_norm=_at_most("max_norm", args.max_norm), gamma=args.gamma)
    if args.path:
        samples = _parse_input(args.path, read_path_csv, _read_text(args.path), "a path CSV")
        d = _at_most("d", len(samples[0]) - 1)
        if args.d is not None and args.d != d:
            raise UsageError(
                f"--d {args.d} disagrees with the {d}-column path file"
            )
        grid = lift_piecewise_linear(samples, grading)
        seed = None
        source = {"kind": "piecewise-linear", "file": args.path}
    else:
        d = _at_most("d", args.d if args.d is not None else 1)
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
        "gamma": str(args.gamma),
        "max_norm": args.max_norm,
        "source": source,
    }
    return _Output(config, seed, {"grid": grid_payload(grid)})


def _solve_inputs(args: argparse.Namespace) -> tuple:
    """The grid, field and ``solve_flow`` settings that ``solve`` and
    ``davie-report`` share, and their provenance config."""
    grid = _load_grid(args.grid)
    field = _load_field(args.field)
    if field.d != grid.d:
        raise UsageError(
            f"field drives {field.d} letters but the grid stores {grid.d}"
        )
    settings = {
        "substeps": args.substeps,
        "mesh_level": args.mesh_level,
        "level": args.level,
    }
    config = {
        "grid": args.grid,
        "field": args.field,
        "y0": args.y0,
        "substeps": args.substeps,
        "mesh_level": args.mesh_level,
        "level": None if args.level is None else str(args.level),
    }
    return grid, field, settings, config


def _cmd_solve(args: argparse.Namespace) -> _Output:
    from .solver import solve_flow

    grid, field, settings, config = _solve_inputs(args)
    sol = solve_flow(grid, field, args.y0, **settings)
    body = {
        "solution": {
            "times": list(sol.times),
            "values": list(sol.values),
            "diverged": sol.diverged,
            "message": sol.message,
        }
    }
    if sol.diverged:
        return _Output(config, None, body, EXIT_DIVERGED, f"numeric divergence: {sol.message}")
    return _Output(config, None, body)


def _cmd_translate(args: argparse.Namespace) -> _Output:
    from .group import grid_payload
    from .translation import translate_roughpath

    grid = _load_grid(args.grid)
    ells = _load_characters(args, grid.d)
    translated = translate_roughpath(ells, grid)
    config = {
        "grid": args.grid,
        "characters": "ito-strat" if args.ito_strat else args.chars,
    }
    return _Output(config, None, {"grid": grid_payload(translated)})


def _cmd_translate_field(args: argparse.Namespace) -> _Output:
    from .fields import vector_field_payload
    from .translation import translated_field

    field = _load_field(args.field)
    ells = _load_characters(args, field.d)
    out = translated_field(field, ells)
    config = {
        "field": args.field,
        "characters": "ito-strat" if args.ito_strat else args.chars,
    }
    return _Output(config, None, {"field": vector_field_payload(out)})


def _cmd_davie_report(args: argparse.Namespace) -> _Output:
    from .solver import DivergedError, davie_residual_report, dyadic_pairs, solve_flow

    if args.max_block is not None and args.min_block > args.max_block:
        raise UsageError(
            f"--min-block {args.min_block} exceeds --max-block {args.max_block}"
        )
    grid, field, settings, config = _solve_inputs(args)
    sol = solve_flow(grid, field, args.y0, **settings)
    if sol.diverged:
        return _Output(config, None, None, EXIT_DIVERGED, f"numeric divergence: {sol.message}")
    pairs = dyadic_pairs(sol.times, min_block=args.min_block, max_block=args.max_block)
    try:
        report = davie_residual_report(grid, field, sol, pairs)
    except DivergedError as exc:
        return _Output(config, None, None, EXIT_DIVERGED, f"numeric divergence: {exc}")
    config.update(min_block=args.min_block, max_block=args.max_block)
    body = {
        "report": {
            # fewer than two fit points leave no slope
            "slope": None if math.isnan(report.slope) else report.slope,
            "target_slope": report.target_slope,
            "level": report.level,
            "gamma": report.gamma,
            "rows": [list(row) for row in report.rows],
        },
    }
    return _Output(config, None, body)


def _cmd_ito_strat_demo(args: argparse.Namespace) -> _Output:
    from .lifts import brownian_pair_statistics

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
    return _Output(config, args.seed, lines)


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
    sub.add_argument("--gamma", type=_gamma, default="1/2", metavar="P/Q",
                     help="Hölder exponent as an exact rational in (0,1)")


def _add_d(sub: argparse.ArgumentParser, default: int | None) -> None:
    sub.add_argument("--d", type=_count, default=default,
                     help="number of driving letters (letter 0 is time)")


def _add_max_norm(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-norm", type=int, default=3,
                     help="degree truncation of the graded basis")


def _add_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_non_negative, default=0,
                     help="seed for every random draw in this run")


def _add_solve_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", required=True, metavar="FILE",
                     help="rough-path grid JSON (as written by lift)")
    sub.add_argument("--field", required=True, metavar="FILE",
                     help="vector-field JSON")
    sub.add_argument("--y0", type=_finite_float, default=0.0, help="initial state")
    sub.add_argument("--mesh-level", type=_non_negative, default=None,
                     help="use the dyadic sub-mesh 2^-L of the stored grid")
    sub.add_argument("--substeps", type=_count, default=8,
                     help="RK4 substeps per log-flow step")
    sub.add_argument("--level", type=_rational, default=None, metavar="P/Q",
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
    p.add_argument("--brownian", choices=("ito", "strat"), default=None, metavar="MODE",
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
    p.set_defaults(handler=_cmd_translate)

    p = subs.add_parser("translate-field",
                        help="translate a polynomial vector field")
    _add_output(p)
    p.add_argument("--field", required=True, metavar="FILE")
    p.add_argument("--chars", default=None, metavar="FILE")
    p.add_argument("--ito-strat", action="store_true")
    p.set_defaults(handler=_cmd_translate_field)

    p = subs.add_parser("davie-report",
                        help="residual decay of the local expansion")
    _add_output(p)
    _add_solve_inputs(p)
    p.add_argument("--min-block", type=_count, default=1,
                   help="smallest dyadic block size in the residual fit")
    p.add_argument("--max-block", type=int, default=None,
                   help="largest dyadic block size in the residual fit")
    p.set_defaults(handler=_cmd_davie_report)

    p = subs.add_parser("ito-strat-demo",
                        help="Monte-Carlo second-level gap statistics")
    _add_d(p, 1)
    _add_seed(p)
    _add_output(p)
    p.add_argument("--paths", type=_count, default=10000,
                   help="number of Monte-Carlo paths")
    p.add_argument("--steps", type=_count, default=4096,
                   help="lattice steps per path")
    p.add_argument("--t-final", type=float, default=1.0)
    p.set_defaults(handler=_cmd_ito_strat_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: the handler computes, then its document, stderr
    note and exit code are written and returned here."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.handler(args)
        if out.body is not None:
            _write(args.out, _provenance(args, out), out.body)
    except (ValueError, OSError) as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if out.note is not None:
        print(out.note, file=sys.stderr)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
