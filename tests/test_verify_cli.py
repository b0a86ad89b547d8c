"""Verification suites and the command-line surface.

The suite engine is exercised directly (all suites green on the default
budget, deterministic subsetting, fault injection flipping exactly one
check) and through the CLI, together with the command contract: exit codes
0/1/2/3, provenance headers, byte-level determinism under
``--no-timestamp``, grammar-form failure reports, and the bit-exact
round trip from ``lift`` output through ``solve``.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirpath
from mirpath import algebra
from mirpath.algebra import Grading, MultiIndex, enumerate_populated
from mirpath.cli import _write
from mirpath.cli import main as cli_main
from mirpath.fields import VectorField, vector_field_from_json, vector_field_payload
from mirpath.grammar import format_multi_index
from mirpath.group import GroupElement, _key_index, grid_payload
from mirpath.lifts import (
    lift_brownian,
    lift_piecewise_linear,
    read_path_csv,
    write_path_csv,
)
from mirpath.solver import solve_flow
from mirpath.translation import Character, character_to_json, identity_characters
from mirpath.verify import SuiteResult, _worst_defect, available_suites, run_all_suites


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse-level usage failures
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def reject_constant(token):
    """``parse_constant`` for ``json.loads``: NaN and Infinity are errors."""
    raise AssertionError(f"non-standard JSON token {token}")


def content_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def write_sine_csv(path, n=32, amplitude=1 / 3) -> None:
    rows = [(j / n, amplitude * math.sin(2 * math.pi * j / n)) for j in range(n + 1)]
    buf = io.StringIO()
    write_path_csv(rows, buf)
    path.write_text(buf.getvalue())


def write_field_json(path, rows) -> None:
    path.write_text(json.dumps(vector_field_payload(VectorField.polynomial(rows))))


# ---------------------------------------------------------------------------
# suite engine
# ---------------------------------------------------------------------------


class TestSuiteEngine:
    def test_worst_defect_reports_the_first_nan(self):
        # np.argmax returned the first NaN; a defect loop must not skip it,
        # so that a NaN fails every tolerance
        grading = Grading(max_norm=2, gamma=Fraction(1, 2))
        keys = list(_key_index(1, 2))
        want = GroupElement(1, grading, {key: 1.0 for key in keys})
        defects = {keys[1]: 1.5, keys[2]: math.nan, keys[3]: 100.0, keys[4]: math.nan}
        got = GroupElement(1, grading, {**want.values, **defects})
        worst, key = _worst_defect(want, got)
        assert math.isnan(worst) and key == keys[2]
        assert not worst <= 1e-9
        del defects[keys[2]], defects[keys[4]]
        got = GroupElement(1, grading, {**want.values, **defects})
        assert _worst_defect(want, got) == (99.0, keys[3])
        assert _worst_defect(want, want) == (0.0, None)

    def test_all_suites_pass_on_the_default_budget(self):
        results = run_all_suites()
        assert [r.name for r in results] == list(available_suites())
        for r in results:
            assert r.checked > 0, r.name
            assert r.failed == 0, (r.name, r.failures)
            assert r.passed

    def test_default_budget_check_counts_are_pinned_and_every_cache_is_freed(self):
        results = run_all_suites(2, 3, 0)
        caches = [
            (f"{name}.{attr}", value.cache_info().currsize)
            for name, module in list(sys.modules.items())
            if name.startswith("mirpath.")
            for attr, value in vars(module).items()
            if hasattr(value, "cache_info")
        ]
        assert caches and all(size == 0 for _name, size in caches), caches
        assert not algebra._MULTI_INDICES and not algebra._FORESTS
        assert [(r.checked, r.failed) for r in results] == [
            (n, 0) for n in (1768, 1768, 152, 184, 39, 1768, 48, 3117,
                             67, 625, 324, 100, 286, 90, 276)
        ]

    def test_exact_suites_carry_no_tolerance(self):
        by_name = {r.name: r for r in run_all_suites(d=1, max_norm=1)}
        assert by_name["graft-prelie"].tolerance is None
        assert by_name["adjointness"].tolerance is None
        assert by_name["exp-log"].tolerance == 1e-12
        assert by_name["chen"].tolerance == 1e-9

    def test_degenerate_truncation_still_passes(self):
        for r in run_all_suites(d=1, max_norm=1):
            assert r.failed == 0, (r.name, r.failures)

    def test_subset_reproduces_the_full_run(self):
        full = {r.name: r for r in run_all_suites(d=1, max_norm=2, seed=11)}
        subset = run_all_suites(
            d=1, max_norm=2, seed=11, suites=["chen", "exp-log"]
        )
        # registry order is preserved regardless of request order
        assert [r.name for r in subset] == ["exp-log", "chen"]
        for r in subset:
            assert r == full[r.name]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suites"):
            run_all_suites(suites=["exp-log", "nonesuch"])

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            run_all_suites(d=0)
        with pytest.raises(ValueError):
            run_all_suites(max_norm=0)

    def test_result_json_shape(self):
        r = run_all_suites(d=1, max_norm=1, suites=["coproduct-routes"])[0]
        payload = r.to_json()
        assert payload == {
            "suite": "coproduct-routes",
            "checked": r.checked,
            "failed": 0,
            "tolerance": None,
            "failures": [],
        }

    def test_injected_fault_flips_exactly_one_check(self):
        faulty = run_all_suites(
            d=1, max_norm=2, suites=["adjointness"], fault_suite="adjointness"
        )[0]
        assert faulty.failed == 1
        assert len(faulty.failures) == 1
        assert "[injected fault]" in faulty.failures[0]
        assert "z(" in faulty.failures[0]  # names the elements in grammar form
        clean = run_all_suites(d=1, max_norm=2, suites=["adjointness"])[0]
        assert clean.failed == 0
        assert clean.checked == faulty.checked

    def test_injected_fault_spares_other_suites(self):
        results = run_all_suites(
            d=1, max_norm=2, suites=["exp-log", "chen"], fault_suite="chen"
        )
        by_name = {r.name: r for r in results}
        assert by_name["exp-log"].failed == 0
        assert by_name["chen"].failed == 1


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


class TestCliEnumerate:
    def test_listing_counts(self):
        code, out, _ = run_cli("enumerate", "--d", "1", "--max-norm", "2",
                               "--no-timestamp")
        assert code == 0
        lines = content_lines(out)
        assert len(lines) == 6
        for line in lines:
            assert line.startswith("z(")
            assert "degree=" in line
            assert "gamma-degree=" in line
            assert "symmetry=" in line
            assert line.endswith("populated=yes")

    def test_single_degree_listing(self):
        code, out, _ = run_cli("enumerate", "--d", "1", "--max-norm", "1",
                               "--no-timestamp")
        assert code == 0
        assert len(content_lines(out)) == 2

    def test_empty_truncation_exits_cleanly(self):
        code, out, _ = run_cli("enumerate", "--d", "2", "--max-norm", "0",
                               "--no-timestamp")
        assert code == 0
        assert content_lines(out) == []

    def test_gamma_degree_uses_the_requested_exponent(self):
        _, out, _ = run_cli("enumerate", "--d", "1", "--max-norm", "1",
                            "--gamma", "1/3", "--no-timestamp")
        by_key = {ln.split()[0]: ln for ln in content_lines(out)}
        assert "gamma-degree=3" in by_key["z(0,0)"]
        assert "gamma-degree=1" in by_key["z(1,0)"]

    def test_provenance_header_lines(self):
        _, out, _ = run_cli("enumerate", "--d", "1", "--max-norm", "1",
                            "--no-timestamp")
        header = [ln for ln in out.splitlines() if ln.startswith("#")]
        joined = "\n".join(header)
        assert "# tool: mirpath" in joined
        assert "PCG64" in joined
        assert "# config:" in joined
        assert "timestamp" not in joined

    def test_timestamp_present_by_default(self):
        _, out, _ = run_cli("enumerate", "--d", "1", "--max-norm", "1")
        assert any(ln.startswith("# timestamp:") for ln in out.splitlines())

    def test_invalid_dimension_is_a_usage_error(self):
        code, _, err = run_cli("enumerate", "--d", "0", "--max-norm", "1")
        assert code == 2
        assert "error:" in err

    def test_out_file(self, tmp_path):
        target = tmp_path / "basis.txt"
        code, out, _ = run_cli("enumerate", "--d", "1", "--max-norm", "2",
                               "--no-timestamp", "--out", str(target))
        assert code == 0
        assert out == ""
        assert len(content_lines(target.read_text())) == 6


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestCliVerify:
    def test_subset_passes_with_json_report(self):
        code, out, err = run_cli("verify", "--suite", "exp-log", "--suite",
                                 "coproduct-routes", "--d", "1",
                                 "--max-norm", "2", "--no-timestamp")
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["all_passed"] is True
        names = [s["suite"] for s in payload["suites"]]
        assert names == ["coproduct-routes", "exp-log"]
        for suite in payload["suites"]:
            assert suite["checked"] > 0
            assert suite["failed"] == 0

    def test_injected_fault_exits_one_and_names_elements(self):
        code, out, err = run_cli("verify", "--suite", "adjointness", "--d", "1",
                                 "--max-norm", "2", "--no-timestamp",
                                 "--inject-fault", "adjointness")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False
        failures = payload["suites"][0]["failures"]
        assert len(failures) == 1
        assert "z(" in failures[0]
        assert "adjointness" in err
        assert "z(" in err

    def test_unknown_suite_is_a_usage_error(self):
        code, _, err = run_cli("verify", "--suite", "nonesuch")
        assert code == 2
        assert "unknown suites" in err

    def test_fault_into_unknown_suite_is_a_usage_error(self):
        code, _, _ = run_cli("verify", "--inject-fault", "nonesuch",
                             "--suite", "exp-log")
        assert code == 2

    def test_max_norm_above_the_checked_degree_is_a_usage_error(self):
        # every suite checks degrees up to 3; a higher --max-norm would run
        # the degree-3 checks while the provenance records the higher value
        code, out, err = run_cli("verify", "--suite", "exp-log", "--d", "1",
                                 "--max-norm", "4", "--no-timestamp")
        assert code == 2
        assert out == ""
        assert "1..3" in err and "got 4" in err

    def test_byte_determinism_without_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run_cli("verify", "--suite", "exp-log", "--d", "1",
                                 "--seed", "5", "--no-timestamp",
                                 "--out", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_is_the_only_unstable_field(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            run_cli("verify", "--suite", "exp-log", "--d", "1", "--seed", "5",
                    "--out", str(target))
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        pa["provenance"].pop("timestamp")
        pb["provenance"].pop("timestamp")
        assert pa == pb


# ---------------------------------------------------------------------------
# lift and solve
# ---------------------------------------------------------------------------


@pytest.fixture()
def sine_csv(tmp_path):
    path = tmp_path / "path.csv"
    write_sine_csv(path)
    return path


@pytest.fixture()
def cubic_field_json(tmp_path):
    path = tmp_path / "field.json"
    write_field_json(
        path,
        ((Fraction(1, 5),), (Fraction(1), Fraction(0), Fraction(-1, 4))),
    )
    return path


class TestCliLiftSolve:
    def test_lift_writes_a_grid_document(self, sine_csv, tmp_path):
        out_file = tmp_path / "grid.json"
        code, _, _ = run_cli("lift", "--path", str(sine_csv), "--gamma", "1/2",
                             "--max-norm", "3", "--no-timestamp",
                             "--out", str(out_file))
        assert code == 0
        grid = json.loads(out_file.read_text())["grid"]
        assert grid["d"] == 1
        assert grid["gamma"] == "1/2"
        assert grid["max_norm"] == 3
        assert len(grid["times"]) == 33
        assert len(grid["increments"]) == 32

    def test_lift_needs_exactly_one_source(self, sine_csv):
        code, _, _ = run_cli("lift")
        assert code == 2
        code, _, _ = run_cli("lift", "--path", str(sine_csv), "--brownian", "ito")
        assert code == 2

    @pytest.mark.parametrize("source, message", [
        (("--brownian", "strat", "--d", "7", "--max-norm", "2", "--steps", "4"),
         "d must be at most 6, got 7"),
        (("--path", "wide.csv", "--max-norm", "2"), "d must be at most 6, got 8"),
        (("--path", "wide.csv", "--max-norm", "6"), "max_norm must be at most 5, got 6"),
        (("--path", "nope.csv", "--max-norm", "6"), "max_norm must be at most 5, got 6"),
    ], ids=["brownian-d-7", "csv-8-columns", "csv-max-norm-6", "missing-csv-max-norm-6"])
    def test_lift_refuses_what_the_grid_reader_refuses(self, tmp_path, monkeypatch,
                                                       source, message):
        # the lift used to write these grids, which solve then refused
        monkeypatch.chdir(tmp_path)
        header = "t," + ",".join(f"x{i}" for i in range(1, 9))
        rows = [",".join([str(m / 4)] + [str(0.1 * m * i) for i in range(1, 9)])
                for m in range(5)]
        (tmp_path / "wide.csv").write_text("\n".join([header, *rows]) + "\n")
        code, out, err = run_cli("lift", *source, "--out", "grid.json")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "grid.json").exists()

    def test_brownian_lift_mode_validated(self):
        code, _, err = run_cli("lift", "--brownian", "midpoint", "--steps", "8")
        assert code == 2
        assert "ito" in err

    @pytest.mark.parametrize("t_final", ["nan", "inf", "-1", "0"])
    def test_bad_t_final_is_a_usage_error(self, t_final):
        code, out, err = run_cli("lift", "--brownian", "strat", "--steps", "8",
                                 "--t-final", t_final, "--no-timestamp")
        assert code == 2
        assert "t_final must be finite and > 0" in err
        assert out == ""

    def test_non_finite_sample_is_a_usage_error(self, tmp_path):
        csv_file = tmp_path / "nan.csv"
        csv_file.write_text("t,x1\n0.0,0.0\n0.5,nan\n1.0,0.2\n")
        code, out, err = run_cli("lift", "--path", str(csv_file), "--no-timestamp")
        assert code == 2
        assert "row 3 holds a non-finite number" in err
        assert out == ""

    def test_lift_overflow_is_a_usage_error(self, tmp_path):
        csv_file = tmp_path / "huge.csv"
        csv_file.write_text("t,x1\n0.0,0.0\n0.5,0.1\n1.0,1e300\n")
        code, out, err = run_cli("lift", "--path", str(csv_file), "--no-timestamp")
        assert code == 2
        assert "grid value on segment 1 (t = 0.5 .. 1.0) is not finite" in err
        assert out == ""

    @pytest.mark.parametrize("field, message", [
        ("times", "grid times must be finite"),
        ("increments", "grid value on segment 2 (t = 0.0625 .. 0.09375) is not finite"),
    ])
    def test_non_finite_grid_is_a_usage_error(
        self, sine_csv, cubic_field_json, tmp_path, field, message
    ):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        doc = json.loads(grid_file.read_text())
        if field == "times":
            doc["grid"]["times"][2] = math.inf
        else:
            inc = doc["grid"]["increments"][2]
            inc[next(iter(inc))] = math.nan
        grid_file.write_text(json.dumps(doc))
        code, _, err = run_cli("solve", "--grid", str(grid_file),
                               "--field", str(cubic_field_json))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("key, message", [
        ("z(1,1)", "key MultiIndex('z(1,1)', d=2) is not populated"),
        ("z(3,0)", "letter 3 exceeds alphabet 0..2 (at position 6)"),
        ("z(1,0)^2z(2,2)",
         "key MultiIndex('z(1,0)^2z(2,2)', d=2) has degree 3 above truncation 2"),
    ], ids=["unpopulated", "letter-above-d", "degree-above-N"])
    def test_bad_key_among_repeated_keys_is_a_usage_error(self, tmp_path, key, message):
        # the reader parses each distinct key string once and checks an
        # increment's keys in one step; a new bad key in the last increment,
        # whose other key strings all repeat earlier ones, must still be named
        grid_file = tmp_path / "grid.json"
        field_file = tmp_path / "field.json"
        run_cli("lift", "--brownian", "strat", "--d", "2", "--max-norm", "2",
                "--steps", "4", "--no-timestamp", "--out", str(grid_file))
        write_field_json(field_file, [(0,), (1,), (1,)])
        doc = json.loads(grid_file.read_text())
        increments = doc["grid"]["increments"]
        assert set(increments[-1]) == set(increments[0])
        increments[-1][key] = 0.5
        grid_file.write_text(json.dumps(doc))
        code, out, err = run_cli("solve", "--grid", str(grid_file),
                                 "--field", str(field_file))
        assert code == 2
        assert out == ""
        assert err == f"error: {str(grid_file)!r} does not hold a rough-path grid: {message}\n"

    def test_round_trip_matches_in_process_solve_bit_exactly(
        self, sine_csv, cubic_field_json, tmp_path
    ):
        grid_file = tmp_path / "grid.json"
        sol_file = tmp_path / "sol.json"
        assert run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                       "--out", str(grid_file))[0] == 0
        assert run_cli("solve", "--grid", str(grid_file), "--field",
                       str(cubic_field_json), "--y0", "0.1", "--no-timestamp",
                       "--out", str(sol_file))[0] == 0
        sol = json.loads(sol_file.read_text())["solution"]

        samples = read_path_csv(sine_csv.read_text())
        grid = lift_piecewise_linear(
            samples, Grading(max_norm=3, gamma=Fraction(1, 2))
        )
        field = vector_field_from_json(cubic_field_json.read_text())
        ref = solve_flow(grid, field, 0.1, substeps=8)
        assert sol["times"] == list(ref.times)
        assert sol["values"] == list(ref.values)
        assert sol["diverged"] is False

    def test_linear_fixture_matches_the_closed_form(self, tmp_path):
        # dy = y (dt/4 + dx/2) along x(t): endpoint y0·exp(1/4 + x(1)/2)
        csv_file = tmp_path / "ramp.csv"
        rows = [(j / 32, (j / 32) ** 2) for j in range(33)]
        buf = io.StringIO()
        write_path_csv(rows, buf)
        csv_file.write_text(buf.getvalue())
        field_file = tmp_path / "linfield.json"
        write_field_json(
            field_file,
            ((Fraction(0), Fraction(1, 4)), (Fraction(0), Fraction(1, 2))),
        )
        grid_file = tmp_path / "grid.json"
        sol_file = tmp_path / "sol.json"
        run_cli("lift", "--path", str(csv_file), "--no-timestamp",
                "--out", str(grid_file))
        code, _, _ = run_cli("solve", "--grid", str(grid_file), "--field",
                             str(field_file), "--y0", "0.7", "--no-timestamp",
                             "--out", str(sol_file))
        assert code == 0
        endpoint = json.loads(sol_file.read_text())["solution"]["values"][-1]
        assert endpoint == pytest.approx(0.7 * math.exp(0.25 + 0.5), rel=1e-8)

    def test_mesh_level_flag_coarsens_the_output(
        self, sine_csv, cubic_field_json, tmp_path
    ):
        grid_file = tmp_path / "grid.json"
        sol_file = tmp_path / "sol.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        code, _, _ = run_cli("solve", "--grid", str(grid_file), "--field",
                             str(cubic_field_json), "--mesh-level", "3",
                             "--no-timestamp", "--out", str(sol_file))
        assert code == 0
        assert len(json.loads(sol_file.read_text())["solution"]["times"]) == 9

    def test_mesh_level_above_the_grid_is_a_usage_error(
        self, sine_csv, cubic_field_json, tmp_path
    ):
        # 2^99 dyadic points all lie within the time tolerance of the first
        # grid point, so listing them used to run without end
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        code, out, err = run_cli("solve", "--grid", str(grid_file), "--field",
                                 str(cubic_field_json), "--mesh-level", "99")
        assert code == 2
        assert out == ""
        assert "mesh level 99 asks for 2^99 intervals, more than the 32" in err

    @pytest.mark.parametrize("command", ["solve", "davie-report"])
    def test_mesh_level_off_the_grid_names_the_level(self, cubic_field_json, tmp_path, command):
        csv_file = tmp_path / "three_steps.csv"
        csv_file.write_text("t,x1\n0,0\n0.25,0.1\n0.75,-0.2\n1,0.3\n")
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(csv_file), "--no-timestamp", "--out", str(grid_file))
        code, out, err = run_cli(command, "--grid", str(grid_file), "--field",
                                 str(cubic_field_json), "--mesh-level", "1")
        assert (code, out) == (2, "")
        assert err == "error: mesh level 1 puts a point at t = 0.5, which is not a grid point\n"

    def test_dimension_mismatch_is_a_usage_error(self, sine_csv, tmp_path):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        field_file = tmp_path / "wide.json"
        write_field_json(
            field_file,
            ((Fraction(1),), (Fraction(1),), (Fraction(1),)),
        )
        code, _, err = run_cli("solve", "--grid", str(grid_file),
                               "--field", str(field_file))
        assert code == 2
        assert "letters" in err

    @pytest.mark.parametrize("rows", [
        [{"i": 1, "coeffs": ["1e400"]}],
        [{"i": 1, "coeffs": ["0", "0", "1.5e308"]}],  # f_1'' = 3e308
    ], ids=["coefficient", "derivative"])
    def test_oversized_field_coefficient_is_a_usage_error(
        self, sine_csv, tmp_path, rows
    ):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        field_file = tmp_path / "huge.json"
        field_file.write_text(json.dumps({"d": 1, "fields": rows}))
        code, out, err = run_cli("solve", "--grid", str(grid_file),
                                 "--field", str(field_file))
        assert code == 2
        assert "field letter 1" in err and "not finite as a float" in err
        assert out == ""

    def test_missing_input_file_is_a_usage_error(self, cubic_field_json):
        code, _, err = run_cli("solve", "--grid", "no-such-grid.json",
                               "--field", str(cubic_field_json))
        assert code == 2
        assert "cannot read" in err

    def test_divergence_exits_three_with_local_solution(self, tmp_path):
        csv_file = tmp_path / "flat.csv"
        buf = io.StringIO()
        write_path_csv([(0.0, 0.0), (0.5, 0.1), (1.0, 0.2)], buf)
        csv_file.write_text(buf.getvalue())
        field_file = tmp_path / "blowup.json"
        write_field_json(
            field_file,
            ((Fraction(0), Fraction(0), Fraction(50)), (Fraction(1, 100),)),
        )
        grid_file = tmp_path / "grid.json"
        sol_file = tmp_path / "sol.json"
        run_cli("lift", "--path", str(csv_file), "--no-timestamp",
                "--out", str(grid_file))
        code, _, err = run_cli("solve", "--grid", str(grid_file), "--field",
                               str(field_file), "--y0", "1.0", "--no-timestamp",
                               "--out", str(sol_file))
        assert code == 3
        assert "divergence" in err
        sol = json.loads(sol_file.read_text())["solution"]
        assert sol["diverged"] is True
        assert sol["values"] == [1.0]
        assert "substep" in sol["message"]


    @pytest.mark.parametrize("command", ["solve", "davie-report"])
    def test_power_overflow_in_the_field_exits_three(self, command, tmp_path):
        # f_1' = 1e200, so (f_1')**2 overflows a float inside the right-hand side
        field_file = tmp_path / "field.json"
        field_file.write_text(
            json.dumps({"d": 1, "fields": [{"i": 1, "coeffs": ["0", "1e200"]}]})
        )
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--brownian", "strat", "--d", "1", "--max-norm", "3",
                "--steps", "4", "--no-timestamp", "--out", str(grid_file))
        out_file = tmp_path / "out.json"
        code, _, err = run_cli(command, "--grid", str(grid_file), "--field",
                               str(field_file), "--out", str(out_file))
        assert code == 3
        assert "divergence" in err and "overflowed" in err
        assert "Traceback" not in err
        if command == "solve":
            sol = json.loads(out_file.read_text())["solution"]
            assert sol["diverged"] is True and sol["values"] == [0.0]

    @pytest.mark.parametrize("command", ["solve", "davie-report"])
    @pytest.mark.parametrize("y0", ["nan", "inf", "-inf", "x"])
    def test_non_finite_y0_is_a_usage_error(self, command, y0, sine_csv,
                                            cubic_field_json, tmp_path):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        code, out, err = run_cli(command, "--grid", str(grid_file), "--field",
                                 str(cubic_field_json), f"--y0={y0}")
        assert code == 2
        assert "--y0" in err and "finite" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["solve", "davie-report"])
    def test_y0_beyond_the_state_bound_is_a_usage_error(self, command, tmp_path):
        # the zero field keeps every state constant; a start beyond the
        # solver's bound used to be reported as a divergence at substep 1
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--brownian", "strat", "--d", "1", "--steps", "8",
                "--no-timestamp", "--out", str(grid_file))
        field_file = tmp_path / "field.json"
        field_file.write_text(json.dumps({"d": 1, "fields": []}))
        out_file = tmp_path / "out.json"
        code, out, err = run_cli(command, "--grid", str(grid_file), "--field",
                                 str(field_file), "--y0", "2e12", "--out", str(out_file))
        assert code == 2
        assert err == "error: initial state 2000000000000.0 lies beyond the state bound 1e+12\n"
        assert out == "" and not out_file.exists()

    def test_flat_coordinate_keeps_its_explicit_zeros(self, tmp_path):
        csv_file = tmp_path / "flat.csv"
        buf = io.StringIO()
        write_path_csv([(j / 4, math.sin(j), 0.25) for j in range(5)], buf)
        csv_file.write_text(buf.getvalue())
        grid_file = tmp_path / "grid.json"
        code, _, _ = run_cli("lift", "--path", str(csv_file), "--max-norm", "3",
                             "--no-timestamp", "--out", str(grid_file))
        assert code == 0
        every_key = {format_multi_index(mi) for mi in enumerate_populated(2, 3)}
        for inc in json.loads(grid_file.read_text())["grid"]["increments"]:
            assert set(inc) == every_key
            assert inc["z(2,0)"] == 0.0
            assert sum(v == 0.0 for v in inc.values()) > 1


# ---------------------------------------------------------------------------
# translation commands
# ---------------------------------------------------------------------------


#: Wall-clock budget of a ``translate`` run refused for a truncation
#: shortfall, interpreter start included (it takes about 0.2 s).
SHORTFALL_BUDGET_S = 10


class TestCliTranslate:
    @pytest.fixture()
    def grid_file(self, sine_csv, tmp_path):
        out = tmp_path / "grid.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(out))
        return out

    def test_identity_character_file_is_bit_identical(self, grid_file, tmp_path):
        chars = tmp_path / "chars.json"
        chars.write_text(json.dumps([character_to_json(identity_characters(1)[0])]))
        out_file = tmp_path / "translated.json"
        code, _, _ = run_cli("translate", "--grid", str(grid_file), "--chars",
                             str(chars), "--no-timestamp", "--out", str(out_file))
        assert code == 0
        assert (
            json.loads(out_file.read_text())["grid"]
            == json.loads(grid_file.read_text())["grid"]
        )

    def test_direction_one_rescaling_character(self, grid_file, tmp_path):
        key = MultiIndex({(1, 0): 1}, 2)
        ell = Character(1, {key: Fraction(3, 2)}, 2)
        chars = tmp_path / "chars.json"
        chars.write_text(json.dumps(character_to_json(ell)))
        out_file = tmp_path / "translated.json"
        code, _, _ = run_cli("translate", "--grid", str(grid_file), "--chars",
                             str(chars), "--no-timestamp", "--out", str(out_file))
        assert code == 0
        before = json.loads(grid_file.read_text())["grid"]["increments"]
        after = json.loads(out_file.read_text())["grid"]["increments"]
        for inc_b, inc_a in zip(before, after):
            assert inc_a["z(1,0)"] == 1.5 * inc_b["z(1,0)"]
            assert inc_a["z(0,0)"] == inc_b["z(0,0)"]

    def test_drift_correction_source_flag(self, grid_file, tmp_path):
        out_file = tmp_path / "translated.json"
        code, _, _ = run_cli("translate", "--grid", str(grid_file),
                             "--ito-strat", "--no-timestamp",
                             "--out", str(out_file))
        assert code == 0
        grid = json.loads(out_file.read_text())["grid"]
        assert grid["max_norm"] == 3
        # level-1 diffusion entries are untouched by the drift correction
        before = json.loads(grid_file.read_text())["grid"]["increments"]
        for inc_b, inc_a in zip(before, grid["increments"]):
            assert inc_a["z(1,0)"] == inc_b["z(1,0)"]

    def test_decimal_gamma_is_read_by_its_text(self, tmp_path):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--brownian", "ito", "--d", "1", "--steps", "4",
                "--gamma", "3/10", "--no-timestamp", "--out", str(grid_file))
        doc = json.loads(grid_file.read_text())
        doc["grid"]["gamma"] = 0.3
        grid_file.write_text(json.dumps(doc))
        out_file = tmp_path / "translated.json"
        code, _, _ = run_cli("translate", "--grid", str(grid_file), "--ito-strat",
                             "--no-timestamp", "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["grid"]["gamma"] == "3/10"

    def test_character_source_flags_are_exclusive(self, grid_file, tmp_path):
        chars = tmp_path / "chars.json"
        chars.write_text(json.dumps([character_to_json(identity_characters(1)[0])]))
        code, _, err = run_cli("translate", "--grid", str(grid_file),
                               "--chars", str(chars), "--ito-strat")
        assert code == 2
        assert "not both" in err
        code, _, err = run_cli("translate", "--grid", str(grid_file))
        assert code == 2
        assert "--chars" in err

    def test_ito_strat_translation_keeps_its_explicit_zeros(self, tmp_path):
        ito_file = tmp_path / "ito.json"
        run_cli("lift", "--brownian", "ito", "--d", "2", "--max-norm", "3",
                "--steps", "8", "--no-timestamp", "--out", str(ito_file))
        out_file = tmp_path / "translated.json"
        code, _, _ = run_cli("translate", "--grid", str(ito_file), "--ito-strat",
                             "--no-timestamp", "--out", str(out_file))
        assert code == 0
        grid = json.loads(out_file.read_text())["grid"]
        every_key = {
            format_multi_index(mi) for mi in enumerate_populated(2, grid["max_norm"])
        }
        zeros = 0
        for inc in grid["increments"]:
            assert set(inc) == every_key
            zeros += sum(v == 0.0 for v in inc.values())
        assert zeros > 0

    def test_overflowing_translation_writes_nothing(self, tmp_path):
        # every value 1.5e308: the drift correction overflows to inf, which
        # used to stream a truncated JSON document before the refusal
        grid_file = tmp_path / "huge.json"
        run_cli("lift", "--brownian", "strat", "--d", "1", "--steps", "4",
                "--no-timestamp", "--out", str(grid_file))
        doc = json.loads(grid_file.read_text())
        for inc in doc["grid"]["increments"]:
            for key in inc:
                inc[key] = 1.5e308
        grid_file.write_text(json.dumps(doc))
        out_file = tmp_path / "translated.json"
        for out_flags in ((), ("--out", str(out_file))):
            code, out, err = run_cli("translate", "--grid", str(grid_file),
                                     "--ito-strat", "--no-timestamp", *out_flags)
            assert code == 2
            assert out == ""
            assert err == "error: grid value on segment 0 (t = 0.0 .. 0.25) is not finite\n"
        assert not out_file.exists()

    def test_truncation_shortfall_is_a_usage_error(self, grid_file, tmp_path):
        # a second-order space character needs degree-4 values of the
        # degree-3 grid
        key = MultiIndex({(1, 0): 1, (1, 1): 1}, 2)
        ell = Character(1, {MultiIndex({(1, 0): 1}, 2): 1, key: Fraction(1, 3)}, 1)
        chars = tmp_path / "chars.json"
        chars.write_text(json.dumps(character_to_json(ell)))
        out_file = tmp_path / "translated.json"
        code, out, err = run_cli("translate", "--grid", str(grid_file), "--chars",
                                 str(chars), "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err == (
            "error: translation needs stored values of degree 4, "
            "but the grid is truncated at 3\n"
        )
        assert not out_file.exists()

    def test_truncation_shortfall_is_refused_before_the_dual_table_is_built(self, tmp_path):
        # an order-3 character moves the degree-4 grid to truncation
        # ⌊3/(1/3)⌋ = 9, a basis of 23 094 keys whose dual table took more
        # than a minute to build before the shortfall was found
        csv_file, grid_file, chars = (tmp_path / n for n in ("p.csv", "g.json", "c.json"))
        rows = [(j / 16, math.sin(j / 3), math.cos(j / 5)) for j in range(17)]
        buf = io.StringIO()
        write_path_csv(rows, buf)
        csv_file.write_text(buf.getvalue())
        assert run_cli("lift", "--path", str(csv_file), "--gamma", "1/3", "--max-norm",
                       "4", "--no-timestamp", "--out", str(grid_file))[0] == 0
        chars.write_text(json.dumps(
            {"direction": 1, "terms": {"z(1,0)": "1", "z(1,0)^2z(1,2)": "1/5"}}
        ))
        src = str(Path(mirpath.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "mirpath.cli", "translate", "--grid", str(grid_file),
             "--chars", str(chars)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=SHORTFALL_BUDGET_S,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: translation needs stored values of degree 5, "
            "but the grid is truncated at 4\n"
        )

    def test_fine_gamma_shortfall_is_refused_within_the_budget(self, tmp_path):
        # order 2 at γ = 1/1000 moves the output to truncation 2000; the
        # shortfall search used to build Dᵏ of each character image for every
        # k < 2000, and died with a RecursionError
        grid_file, chars = tmp_path / "g.json", tmp_path / "c.json"
        assert run_cli("lift", "--brownian", "strat", "--d", "1", "--max-norm", "3",
                       "--gamma", "1/1000", "--steps", "4", "--no-timestamp",
                       "--out", str(grid_file))[0] == 0
        chars.write_text(json.dumps(
            {"direction": 1, "terms": {"z(1,0)": "1", "z(1,0)z(1,1)": "1"}}
        ))
        src = str(Path(mirpath.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "mirpath.cli", "translate", "--grid", str(grid_file),
             "--chars", str(chars)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=SHORTFALL_BUDGET_S,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: translation needs stored values of degree 4, "
            "but the grid is truncated at 3\n"
        )

    def test_output_grading_the_reader_refuses_is_not_written(self, tmp_path, monkeypatch):
        # order 2 at γ = 1/3 moves the degree-5 grid to truncation 6, which
        # the grid reader refuses; translate used to write it with exit 0
        from mirpath import translation

        def no_dual_table(*args):
            raise AssertionError("a dual image was built")

        csv_file, grid_file, chars = (tmp_path / n for n in ("p.csv", "g.json", "c.json"))
        write_sine_csv(csv_file, n=4)
        assert run_cli("lift", "--path", str(csv_file), "--max-norm", "5", "--gamma",
                       "1/3", "--no-timestamp", "--out", str(grid_file))[0] == 0
        chars.write_text(json.dumps([
            {"direction": i, "terms": {"z(1,0)z(1,1)": "1"}} for i in (0, 1)
        ]))
        monkeypatch.setattr(translation, "_dual_table", no_dual_table)
        out_file = tmp_path / "translated.json"
        code, out, err = run_cli("translate", "--grid", str(grid_file), "--chars",
                                 str(chars), "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err == "error: max_norm must be at most 5, got 6\n"
        assert not out_file.exists()

    def test_field_translation_emits_exact_coefficients(
        self, cubic_field_json, tmp_path
    ):
        out_file = tmp_path / "tfield.json"
        code, _, _ = run_cli("translate-field", "--field", str(cubic_field_json),
                             "--ito-strat", "--no-timestamp", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())["field"]
        rows = {entry["i"]: [Fraction(c) for c in entry["coeffs"]]
                for entry in payload["fields"]}
        # drift gains (1/2)·f1·f1' = -y/4 + y^3/16 on top of 1/5
        assert rows[0] == [
            Fraction(1, 5), Fraction(-1, 4), Fraction(0), Fraction(1, 16)
        ]
        # diffusion row is unchanged
        assert rows[1] == [Fraction(1), Fraction(0), Fraction(-1, 4)]

    def test_translated_field_feeds_back_into_solve(
        self, cubic_field_json, tmp_path, sine_csv
    ):
        grid_file = tmp_path / "grid.json"
        tfield_file = tmp_path / "tfield.json"
        sol_file = tmp_path / "sol.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        run_cli("translate-field", "--field", str(cubic_field_json),
                "--ito-strat", "--no-timestamp", "--out", str(tfield_file))
        code, _, _ = run_cli("solve", "--grid", str(grid_file), "--field",
                             str(tfield_file), "--y0", "0.1", "--no-timestamp",
                             "--out", str(sol_file))
        assert code == 0
        assert json.loads(sol_file.read_text())["solution"]["diverged"] is False

    def test_translated_field_beyond_the_float_range_is_refused(self, tmp_path):
        # f_1 = 1e300 (1 + y) reads, but its drift correction -f_1 f_1'/2 does
        # not fit a float, so solve would refuse the translated field
        field_file = tmp_path / "huge.json"
        field_file.write_text(json.dumps({"d": 1, "fields": [
            {"i": 0, "coeffs": ["0"]}, {"i": 1, "coeffs": ["1e300", "1e300"]},
        ]}))
        out_file = tmp_path / "tfield.json"
        code, out, err = run_cli("translate-field", "--field", str(field_file),
                                 "--ito-strat", "--no-timestamp", "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err == ("error: field letter 0: a coefficient of f_0 or of one of its "
                       "derivatives is not finite as a float\n")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


#: How the readers refuse an integer beyond the float range, up to its value.
HUGE = "must be a JSON number in the float range, got "


class TestCliMalformedInputs:
    """Malformed input files exit 2 with a message that names the file."""

    @pytest.fixture()
    def grid_doc(self, tmp_path):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--brownian", "strat", "--d", "1", "--steps", "4",
                "--no-timestamp", "--out", str(grid_file))
        return json.loads(grid_file.read_text())

    @staticmethod
    def assert_usage_error(path, *argv) -> str:
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {str(path)!r} does not hold ")
        return err

    def solve_grid(self, tmp_path, doc, field_file) -> str:
        grid_file = tmp_path / "bad_grid.json"
        grid_file.write_text(json.dumps(doc))
        return self.assert_usage_error(grid_file, "solve", "--grid", str(grid_file),
                                       "--field", str(field_file))

    def test_grid_gamma_with_zero_denominator(self, grid_doc, cubic_field_json, tmp_path):
        grid_doc["grid"]["gamma"] = "1/0"
        self.solve_grid(tmp_path, grid_doc, cubic_field_json)

    def test_grid_times_must_be_json_numbers(self, grid_doc, cubic_field_json, tmp_path):
        # the rule of an increment value: an int or a float, not a bool, finite
        grid_doc["grid"]["times"] = [0, "0.25", "5e-1", 0.75, True]
        err = self.solve_grid(tmp_path, grid_doc, cubic_field_json)
        assert "time 1 must be a JSON number, got '0.25'" in err

    @pytest.mark.parametrize("where, message", [
        ("times", f"time 2 {HUGE}1{'0' * 17}...{'0' * 19}"),
        ("increments", f"increment 1 at 'z(1,0)' {HUGE}-1{'0' * 16}...{'0' * 19}"),
    ])
    def test_grid_integer_beyond_the_float_range(
        self, grid_doc, cubic_field_json, tmp_path, where, message
    ):
        if where == "times":
            grid_doc["grid"]["times"][2] = 10**310
        else:
            grid_doc["grid"]["increments"][1]["z(1,0)"] = -(10**310)
        err = self.solve_grid(tmp_path, grid_doc, cubic_field_json)
        assert err.endswith(f"{message}\n")

    def test_grid_increment_given_as_a_list(self, grid_doc, cubic_field_json, tmp_path):
        grid_doc["grid"]["increments"][1] = list(grid_doc["grid"]["increments"][1].values())
        self.solve_grid(tmp_path, grid_doc, cubic_field_json)

    def test_grid_value_true(self, grid_doc, cubic_field_json, tmp_path):
        grid_doc["grid"]["increments"][2]["z(1,0)"] = True
        self.solve_grid(tmp_path, grid_doc, cubic_field_json)

    def test_grid_d_true(self, grid_doc, cubic_field_json, tmp_path):
        grid_doc["grid"]["d"] = True
        self.solve_grid(tmp_path, grid_doc, cubic_field_json)

    def test_grid_max_norm_given_as_a_string(self, grid_doc, cubic_field_json, tmp_path):
        grid_doc["grid"]["max_norm"] = str(grid_doc["grid"]["max_norm"])
        self.solve_grid(tmp_path, grid_doc, cubic_field_json)

    def test_grid_key_given_under_two_spellings(self, grid_doc, cubic_field_json, tmp_path):
        grid_doc["grid"]["increments"][1]["z(1,0)^1"] = 0.5
        err = self.solve_grid(tmp_path, grid_doc, cubic_field_json)
        assert "'z(1,0)^1' repeats the key z(1,0)" in err

    def test_grid_increment_repeating_a_key(self, grid_doc, cubic_field_json, tmp_path):
        grid_file = tmp_path / "bad_grid.json"
        text = json.dumps(grid_doc["grid"])
        grid_file.write_text(text.replace('"z(1,0)": ', '"z(1,0)": 0.5, "z(1,0)": ', 1))
        err = self.assert_usage_error(grid_file, "solve", "--grid", str(grid_file),
                                      "--field", str(cubic_field_json))
        assert "the key 'z(1,0)' appears twice in one object" in err

    def solve_field(self, tmp_path, doc) -> str:
        grid_file = tmp_path / "grid.json"
        field_file = tmp_path / "bad_field.json"
        field_file.write_text(json.dumps(doc))
        return self.assert_usage_error(field_file, "solve", "--grid", str(grid_file),
                                       "--field", str(field_file))

    def test_field_coefficient_with_zero_denominator(self, grid_doc, tmp_path):
        self.solve_field(tmp_path, {
            "d": 1, "fields": [{"i": 0, "coeffs": ["1/0"]}, {"i": 1, "coeffs": ["1"]}]
        })

    def test_field_coeffs_given_as_a_string(self, grid_doc, tmp_path):
        self.solve_field(tmp_path, {"d": 1, "fields": [{"i": 1, "coeffs": "12"}]})

    def test_field_d_given_as_a_float(self, grid_doc, tmp_path):
        self.solve_field(tmp_path, {"d": 1.9, "fields": [{"i": 1, "coeffs": ["1"]}]})

    def test_field_letter_true(self, grid_doc, tmp_path):
        self.solve_field(tmp_path, {"d": 1, "fields": [{"i": True, "coeffs": ["1"]}]})

    def test_field_letter_listed_twice(self, tmp_path):
        field_file = tmp_path / "twice.json"
        field_file.write_text(json.dumps({"d": 1, "fields": [
            {"i": 1, "coeffs": ["1"]}, {"i": 0, "coeffs": ["0"]}, {"i": 1, "coeffs": ["2"]},
        ]}))
        err = self.assert_usage_error(field_file, "translate-field", "--ito-strat",
                                      "--field", str(field_file))
        assert "field letter 1 is listed twice" in err

    def test_field_entry_repeating_a_key(self, grid_doc, tmp_path):
        grid_file = tmp_path / "grid.json"
        field_file = tmp_path / "repeat.json"
        field_file.write_text('{"d": 1, "fields": [{"i": 0, "coeffs": ["0"]}, '
                              '{"i": 1, "coeffs": ["0.5", "0.3"], "coeffs": ["9"]}]}')
        err = self.assert_usage_error(field_file, "solve", "--grid", str(grid_file),
                                      "--field", str(field_file))
        assert "the key 'coeffs' appears twice in one object" in err

    def translate_chars(self, tmp_path, doc) -> str:
        grid_file = tmp_path / "grid.json"
        chars = tmp_path / "chars.json"
        chars.write_text(json.dumps(doc))
        return self.assert_usage_error(chars, "translate", "--grid", str(grid_file),
                                       "--chars", str(chars))

    def test_character_term_with_zero_denominator(self, grid_doc, tmp_path):
        self.translate_chars(tmp_path, {"direction": 1, "terms": {"z(1,0)": "1/0"}})

    def test_character_terms_given_as_a_list(self, grid_doc, tmp_path):
        self.translate_chars(tmp_path, [{"direction": 1, "terms": [["z(1,0)", "2"]]}])

    def test_character_direction_true(self, grid_doc, tmp_path):
        self.translate_chars(tmp_path, {"direction": True, "terms": {"z(1,0)": "2"}})

    def test_two_characters_for_one_direction(self, grid_doc, tmp_path):
        err = self.translate_chars(tmp_path, [
            {"direction": 1, "terms": {"z(1,0)": "2"}},
            {"direction": 1, "terms": {"z(1,0)": "3"}},
        ])
        assert "direction 1 has two characters" in err

    def test_character_term_given_under_two_spellings(self, grid_doc, tmp_path):
        err = self.translate_chars(
            tmp_path, {"direction": 1, "terms": {"z(1,0)": "2", "z(1,0)^1": "3"}}
        )
        assert "'z(1,0)^1' repeats the term 'z(1,0)'" in err

    def test_character_file_repeating_a_key(self, grid_doc, tmp_path):
        grid_file = tmp_path / "grid.json"
        chars = tmp_path / "chars.json"
        chars.write_text('{"direction": 1, "terms": {"z(1,0)": "2", "z(1,0)": "3"}}')
        err = self.assert_usage_error(chars, "translate", "--grid", str(grid_file),
                                      "--chars", str(chars))
        assert "the key 'z(1,0)' appears twice in one object" in err

    @pytest.mark.parametrize("kind, doc, message", [
        ("grid", lambda g: {k: v for k, v in g.items() if k != "times"},
         "missing key 'times'"),
        ("grid", lambda g: [g], "a grid must be a JSON object, got [{...}]"),
        ("grid", lambda g: {**g, "increments": 5}, "increments must be a JSON list, got 5"),
        ("field", {"fields": []}, "missing key 'd'"),
        ("field", {"d": 1, "fields": [5]}, "field entry 0 must be a JSON object, got 5"),
        ("field", {"d": 1, "fields": {"i": 1}}, "fields must be a JSON list, got {'i': 1}"),
        ("chars", [5], "a character must be a JSON object, got 5"),
        ("chars", "abc", "a character must be a JSON object, got 'abc'"),
        ("grid", lambda g: {**g, "gamma": [1]}, "gamma must be a JSON rational, got [1]"),
        ("field", {"d": 1, "fields": [{"i": 1, "coeffs": ["1", True]}]},
         "coefficient 1 of field letter 1 must be a JSON rational, got True"),
        ("chars", {"direction": 1, "terms": {"z(1,0)": [1]}},
         "the weight of 'z(1,0)' must be a JSON rational, got [1]"),
    ], ids=["grid-without-times", "grid-as-a-list", "grid-increments-a-number",
            "field-without-d", "field-entry-a-number", "fields-as-an-object",
            "characters-a-number", "characters-a-string", "grid-gamma-a-list",
            "field-coefficient-true", "character-weight-a-list"])
    def test_json_reader_names_what_is_wrong(self, grid_doc, cubic_field_json, tmp_path,
                                             kind, doc, message):
        # each used to name only a Python internal, such as 'times'
        if kind == "grid":
            err = self.solve_grid(tmp_path, doc(grid_doc["grid"]), cubic_field_json)
        elif kind == "field":
            err = self.solve_field(tmp_path, doc)
        else:
            err = self.translate_chars(tmp_path, doc)
        assert err.endswith(f": {message}\n")

    @pytest.mark.parametrize("flag", ["--grid", "--field", "--chars"])
    def test_missing_file_is_named_once(self, grid_doc, cubic_field_json, tmp_path, flag):
        # the read used to sit inside the reader's own refusal, which named it again
        missing = str(tmp_path / "nope.json")
        grid = missing if flag == "--grid" else str(tmp_path / "grid.json")
        if flag == "--chars":
            argv = ["translate", "--grid", grid, "--chars", missing]
        else:
            field = missing if flag == "--field" else str(cubic_field_json)
            argv = ["solve", "--grid", grid, "--field", field]
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read {missing!r}: "
                       f"[Errno 2] No such file or directory: {missing!r}\n")

    def test_path_csv_with_a_word_for_a_number(self, tmp_path):
        csv_file = tmp_path / "word.csv"
        csv_file.write_text("t,x1\n0,0\n0.5,abc\n1,0.2\n")
        code, out, err = run_cli("lift", "--path", str(csv_file))
        assert (code, out) == (2, "")
        assert err == (f"error: {str(csv_file)!r} does not hold a path CSV: "
                       "could not convert string to float: 'abc'\n")


class TestCliReports:
    def test_residual_report_carries_slope_and_target(
        self, sine_csv, cubic_field_json, tmp_path
    ):
        grid_file = tmp_path / "grid.json"
        rep_file = tmp_path / "report.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        code, _, _ = run_cli("davie-report", "--grid", str(grid_file),
                             "--field", str(cubic_field_json), "--y0", "0.1",
                             "--min-block", "2", "--max-block", "16",
                             "--no-timestamp", "--out", str(rep_file))
        assert code == 0
        report = json.loads(rep_file.read_text())["report"]
        assert report["target_slope"] == pytest.approx((3 + 1) * 0.5)
        assert isinstance(report["slope"], float)
        assert report["slope"] > report["target_slope"] - 0.5
        assert report["rows"]
        for s, t, residual in report["rows"]:
            assert 0.0 <= s < t <= 1.0
            assert residual >= 0.0

    def test_report_propagates_divergence_exit(self, tmp_path):
        csv_file = tmp_path / "flat.csv"
        buf = io.StringIO()
        write_path_csv([(0.0, 0.0), (0.5, 0.1), (1.0, 0.2)], buf)
        csv_file.write_text(buf.getvalue())
        field_file = tmp_path / "blowup.json"
        write_field_json(
            field_file,
            ((Fraction(0), Fraction(0), Fraction(50)), (Fraction(1, 100),)),
        )
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(csv_file), "--no-timestamp",
                "--out", str(grid_file))
        code, _, err = run_cli("davie-report", "--grid", str(grid_file),
                               "--field", str(field_file), "--y0", "1.0")
        assert code == 3
        assert "divergence" in err

    @staticmethod
    def huge_grid(tmp_path, max_norm, value):
        grid_file = tmp_path / "huge.json"
        run_cli("lift", "--brownian", "strat", "--d", "1", "--max-norm", str(max_norm),
                "--steps", "4", "--no-timestamp", "--out", str(grid_file))
        doc = json.loads(grid_file.read_text())
        for inc in doc["grid"]["increments"]:
            for key in inc:
                inc[key] = value
        grid_file.write_text(json.dumps(doc))
        return grid_file

    @pytest.mark.parametrize("command", ["solve", "davie-report"])
    def test_overflowing_logarithm_diverges_without_a_warning(self, command, tmp_path):
        # products of 1.5e308 overflow in log_element; numpy's RuntimeWarning
        # used to escape main under -W error, and reach stderr otherwise
        grid_file = self.huge_grid(tmp_path, 3, 1.5e308)
        field_file = tmp_path / "field.json"
        write_field_json(field_file, [(0,), (1,)])
        code, out, err = run_cli(command, "--grid", str(grid_file), "--field",
                                 str(field_file), "--no-timestamp")
        assert code == 3
        assert err == ("numeric divergence: the logarithm of the increment over "
                       "[0.0, 0.25] is not finite\n")
        if command == "solve":
            assert json.loads(out)["solution"]["values"] == [0.0]
        else:
            assert out == ""

    @pytest.mark.parametrize("command", ["solve", "davie-report"])
    def test_one_huge_level_one_value_is_a_numeric_divergence(self, command, tmp_path):
        # a grid the reader accepts, with one finite z(1,0) of 1e200: its
        # logarithm overflows, which is a divergence (exit 3), where a
        # primitivity check on the logarithm used to call it a non-character;
        # the message names the step, where it used to read "state nan left
        # the finite range at substep 1/8"
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--brownian", "strat", "--d", "1", "--max-norm", "3",
                "--steps", "4", "--no-timestamp", "--out", str(grid_file))
        doc = json.loads(grid_file.read_text())
        doc["grid"]["increments"][1]["z(1,0)"] = 1e200
        grid_file.write_text(json.dumps(doc))
        field_file = tmp_path / "field.json"
        write_field_json(field_file, [(0,), (1,)])
        code, out, err = run_cli(command, "--grid", str(grid_file), "--field",
                                 str(field_file), "--no-timestamp")
        assert code == 3
        assert err == ("numeric divergence: the logarithm of the increment over "
                       "[0.25, 0.5] is not finite\n")
        if command == "solve":
            assert json.loads(out)["solution"]["times"] == [0.0, 0.25]
        else:
            assert out == ""

    def test_non_finite_expansion_exits_three_and_writes_nothing(self, tmp_path):
        # at N = 1 each step's logarithm is finite and the zero field keeps
        # the solution at 0, but a composed block is inf and its expansion
        # inf·0 = nan: the report used to stream its JSON up to that residual
        grid_file = self.huge_grid(tmp_path, 1, 1e308)
        field_file = tmp_path / "zero.json"
        field_file.write_text(json.dumps({"d": 1, "fields": []}))
        code, out, err = run_cli("davie-report", "--grid", str(grid_file), "--field",
                                 str(field_file), "--no-timestamp")
        assert code == 3
        assert out == ""
        assert err == "numeric divergence: expansion over [0.0, 0.5] is nan at state 0.0\n"

    @pytest.mark.parametrize("blocks", [("--max-block", "0"),
                                        ("--min-block", "8", "--max-block", "2")],
                             ids=["max-block-0", "min-above-max"])
    def test_block_bounds_out_of_order_are_a_usage_error(
        self, blocks, sine_csv, cubic_field_json, tmp_path
    ):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        code, out, err = run_cli("davie-report", "--grid", str(grid_file),
                                 "--field", str(cubic_field_json), *blocks)
        assert code == 2
        assert "exceeds --max-block" in err
        assert out == ""

    @pytest.mark.parametrize("min_block", ["0", "-3"])
    def test_min_block_below_one_is_a_usage_error(
        self, min_block, sine_csv, cubic_field_json, tmp_path
    ):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        code, out, err = run_cli("davie-report", "--grid", str(grid_file),
                                 "--field", str(cubic_field_json), "--min-block", min_block)
        assert (code, out) == (2, "")
        assert f"argument --min-block: expected a positive integer, got '{min_block}'" in err

    def test_report_without_a_fit_writes_null_slope(
        self, sine_csv, cubic_field_json, tmp_path
    ):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--path", str(sine_csv), "--no-timestamp",
                "--out", str(grid_file))
        code, out, _ = run_cli("davie-report", "--grid", str(grid_file),
                               "--field", str(cubic_field_json),
                               "--min-block", "32", "--max-block", "32")
        assert code == 0
        report = json.loads(out, parse_constant=reject_constant)["report"]
        assert len(report["rows"]) == 1
        assert report["slope"] is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_output_refuses_non_finite_numbers(self, bad, tmp_path):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write(str(tmp_path / "out.json"), {}, {"slope": bad})

    def test_gap_statistics_table(self, tmp_path):
        out_file = tmp_path / "demo.csv"
        code, _, _ = run_cli("ito-strat-demo", "--d", "2", "--paths", "400",
                             "--steps", "64", "--seed", "9", "--no-timestamp",
                             "--out", str(out_file))
        assert code == 0
        lines = content_lines(out_file.read_text())
        assert lines[0] == "i,j,mean_gap,standard_error,expected,abs_z"
        assert len(lines) == 1 + 4
        for row in lines[1:]:
            i, j, mean, se, want, z = row.split(",")
            assert float(se) > 0.0
            assert float(want) == (0.5 if i == j else 0.0)
            # a seeded healthy run sits well inside the statistical band
            assert float(z) < 6.0
            assert "," not in mean and "." in mean

    def test_gap_statistics_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            run_cli("ito-strat-demo", "--d", "1", "--paths", "200",
                    "--steps", "32", "--seed", "3", "--no-timestamp",
                    "--out", str(target))
        assert a.read_bytes() == b.read_bytes()

    def test_demo_overflow_is_a_usage_error(self):
        # squared gaps of order 1e307 used to print inf and nan statistics,
        # with numpy's overflow warnings on stderr, and exit 0
        code, out, err = run_cli("ito-strat-demo", "--d", "1", "--paths", "2",
                                 "--steps", "4", "--t-final", "1e308",
                                 "--no-timestamp")
        assert code == 2
        assert out == ""
        assert err == "error: gap statistics overflow the float range at t_final = 1e+308\n"

    @pytest.mark.parametrize("t_final", ["nan", "inf", "-1", "0"])
    def test_demo_rejects_bad_t_final(self, t_final):
        code, out, err = run_cli("ito-strat-demo", "--d", "1", "--paths", "10",
                                 "--steps", "8", "--t-final", t_final,
                                 "--no-timestamp")
        assert code == 2
        assert "t_final must be finite and > 0" in err
        assert out == ""


# ---------------------------------------------------------------------------
# top-level behaviour
# ---------------------------------------------------------------------------


#: Wall-clock budget for refusing a rational flag with a nine-digit exponent.
LONG_EXPONENT_BUDGET_S = 0.5


class TestCliTopLevel:
    def test_version_flag(self):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert out.startswith("mirpath ")

    def test_missing_subcommand_is_a_usage_error(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_invalid_gamma_rejected_before_any_work(self, tmp_path):
        # the exponent is rejected before lift tries to read the missing file
        code, _, err = run_cli("lift", "--path", "nope.csv", "--gamma", "7/3")
        assert code == 2
        assert "gamma" in err

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--gamma", "x"),
        ("enumerate", "--d", "x"),
        ("verify", "--d", "0"),
        ("lift", "--path", "nope.csv", "--gamma", "0"),
        ("lift", "--path", "nope.csv", "--gamma", "1/0"),
        ("lift", "--path", "nope.csv", "--d", "0"),
        ("lift", "--path", "nope.csv", "--seed", "-1"),
        ("lift", "--path", "nope.csv", "--brownian", "midpoint"),
        ("solve", "--grid", "nope.json", "--field", "nope.json", "--level", "abc"),
        ("solve", "--grid", "nope.json", "--field", "nope.json", "--level", "1/0"),
        ("solve", "--grid", "nope.json", "--field", "nope.json", "--y0", "nan"),
        ("davie-report", "--grid", "nope.json", "--field", "nope.json", "--min-block", "0"),
        ("davie-report", "--grid", "nope.json", "--field", "nope.json", "--level", "x"),
        ("ito-strat-demo", "--d", "-1"),
        ("ito-strat-demo", "--paths", "0"),
        ("ito-strat-demo", "--steps", "x"),
        ("solve", "--grid", "nope.json", "--field", "nope.json", "--substeps", "0"),
        ("solve", "--grid", "nope.json", "--field", "nope.json", "--mesh-level", "-1"),
        ("davie-report", "--grid", "nope.json", "--field", "nope.json", "--substeps", "0"),
        ("davie-report", "--grid", "nope.json", "--field", "nope.json", "--mesh-level", "-1"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_each_flag_is_refused_before_any_file_is_read(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert f"error: argument {argv[-2]}: " in err
        assert "nope" not in err

    @pytest.mark.parametrize("argv", [
        ("lift", "--path", "nope.csv", "--gamma", "1e-100000000"),
        ("solve", "--grid", "nope.json", "--field", "nope.json", "--level", "1e100000000"),
        ("solve", "--grid", "nope.json", "--field", "nope.json", "--level", "1e10000"),
    ], ids=lambda argv: f"{argv[-2]}={argv[-1]}")
    def test_rational_flag_with_a_long_exponent_is_refused_within_budget(self, argv):
        # Fraction would build the power of ten: minutes for a nine-digit exponent
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < LONG_EXPONENT_BUDGET_S
        assert (code, out) == (2, "")
        assert f"error: argument {argv[-2]}: expected a rational p/q, got {argv[-1]!r}" in err

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--d", "1", "--max-norm", "2"),
        ("lift", "--brownian", "strat", "--steps", "4"),
    ], ids=lambda argv: argv[0])
    def test_gamma_of_more_than_4000_digits_is_refused_before_any_work(self, argv):
        # 1e-9999 used to be read, and its denominator then failed to print
        # as p/q after the work was done
        code, out, err = run_cli(*argv, "--gamma", "1e-9999")
        assert (code, out) == (2, "")
        assert "error: argument --gamma: expected a rational p/q, got '1e-9999'" in err

    @staticmethod
    def assert_seed_refused(*argv):
        code, out, err = run_cli(*argv, "--seed=-1", "--no-timestamp")
        assert code == 2
        assert out == ""
        assert "argument --seed: expected a non-negative integer, got '-1'" in err

    def test_lift_refuses_a_negative_seed(self):
        self.assert_seed_refused("lift", "--brownian", "strat", "--steps", "4")

    def test_verify_refuses_a_negative_seed(self):
        # the exact suites used to run with seed -1 and exit 0
        self.assert_seed_refused("verify", "--d", "1", "--max-norm", "1",
                                 "--suite", "graft-prelie")

    def test_ito_strat_demo_refuses_a_negative_seed(self):
        self.assert_seed_refused("ito-strat-demo", "--paths", "2", "--steps", "4")

    @pytest.mark.parametrize("command", ["solve", "davie-report"])
    @pytest.mark.parametrize("flag", ["--d", "--max-norm", "--seed"])
    def test_grid_readers_reject_basis_and_seed_flags(self, command, flag):
        # the grid file fixes d and N, and nothing in these commands is random
        code, _, err = run_cli(command, "--grid", "g.json", "--field", "f.json",
                               flag, "1")
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv, flag", [
        (("translate", "--grid", "g.json", "--ito-strat"), "--d"),
        (("translate", "--grid", "g.json", "--ito-strat"), "--max-norm"),
        (("translate", "--grid", "g.json", "--ito-strat"), "--seed"),
        (("translate-field", "--field", "f.json", "--ito-strat"), "--d"),
        (("translate-field", "--field", "f.json", "--ito-strat"), "--seed"),
        (("ito-strat-demo",), "--max-norm"),
        (("ito-strat-demo",), "--gamma"),
        (("enumerate",), "--seed"),
        (("solve", "--grid", "g.json", "--field", "f.json"), "--gamma"),
        (("davie-report", "--grid", "g.json", "--field", "f.json"), "--gamma"),
        (("translate", "--grid", "g.json", "--ito-strat"), "--gamma"),
        (("translate-field", "--field", "f.json", "--ito-strat"), "--gamma"),
        (("verify",), "--gamma"),
        (("translate", "--grid", "g.json", "--ito-strat"), "--out-max-norm"),
        (("translate", "--grid", "g.json", "--ito-strat"), "--out-gamma"),
        (("translate-field", "--field", "f.json", "--ito-strat"), "--max-norm"),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else v)
    def test_unused_flags_are_rejected(self, argv, flag):
        # each of these flags used to be accepted and then ignored
        code, _, err = run_cli(*argv, flag, "1")
        assert code == 2
        assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# the exit-code contract of main, over every subcommand
# ---------------------------------------------------------------------------

#: Wall-clock budget of the whole property run below (it takes about 1.5 s).
CONTRACT_BUDGET_S = 10.0

# (valid, invalid) values of each flag: nan, inf, zero, negative, huge and
# wrong-type values, where each applies
GAMMAS = (["1/2", "1/3"], ["0", "1", "-1/2", "nan", "inf", "x", "1/0"])
FLOATS = (["1", "0.5"], ["0", "-1", "1e308", "nan", "inf", "-inf", "x"])
SEEDS = (["0", "7", str(2**70)], ["-1", "x"])
DIMS = (["1", "2"], ["0", "-1", "x"])
NORMS = (["1", "2", "3"], ["0", "-1", "x"])
STEPS = (["4", "8"], ["3", "0", "-4", "x"])
BLOCKS = (["1", "2", "99"], ["0", "-1", "x"])
# verify's suites that take well under 0.1 s at d = 2, N = 3
SUITES = (["bialgebra", "chen", "coproduct-routes", "deshuffle-coalgebra", "exp-log",
           "translate-identity", "translate-population", "upsilon-leibniz"], ["nonesuch"])
SOLVE_FLAGS = {
    "--y0": (["0", "0.1", "1e308"], ["nan", "inf", "-inf", "x"]),
    "--substeps": (["1", "2"], ["0", "-1", "x"]),
    "--mesh-level": (["0", "1", "2"], ["-1", "99", "x"]),
    "--level": (["1", "2", "3/2"], ["0", "-1", "99", "1/0", "x"]),
}


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """Input files by kind: valid ones, and copies broken by nan, inf, zero,
    negative, huge and wrong-type values, by naming one item twice, or by
    not being JSON at all."""
    root = tmp_path_factory.mktemp("contract")

    def put(name, text):
        (root / name).write_text(text)
        return str(root / name)

    def grid_doc(d, max_norm):
        grading = Grading(max_norm=max_norm, gamma=Fraction(1, 2))
        return grid_payload(lift_brownian(d, 1.0, 4, 0, "strat", grading))

    def broken(doc, edit):
        doc = copy.deepcopy(doc)
        edit(doc)
        return json.dumps(doc)

    def every_value(doc, value):
        for inc in doc["increments"]:
            for key in inc:
                inc[key] = value

    g1, g1_n1 = grid_doc(1, 3), grid_doc(1, 1)
    grids = (
        [put("g1.json", json.dumps(g1)), put("g2.json", json.dumps(grid_doc(2, 2)))],
        [
            put("g-nan.json",
                broken(g1, lambda g: g["increments"][1].update({"z(1,0)": math.nan}))),
            put("g-inf.json", broken(g1, lambda g: g["times"].__setitem__(2, math.inf))),
            put("g-huge.json", broken(g1, lambda g: every_value(g, 1.5e308))),
            put("g-huge-n1.json", broken(g1_n1, lambda g: every_value(g, 1e308))),
            put("g-zero.json", broken(g1, lambda g: every_value(g, 0.0))),
            put("g-negative.json", broken(g1, lambda g: g["times"].__setitem__(1, -1.0))),
            put("g-type.json", broken(g1, lambda g: g.update(d="1"))),
            put("g-gamma.json", broken(g1, lambda g: g.update(gamma="0"))),
            put("g-twice.json",
                broken(g1, lambda g: g["increments"][1].update({"z(1,0)^1": 0.5}))),
            put("g-repeat.json",
                json.dumps(g1).replace('"z(1,0)": ', '"z(1,0)": 0.5, "z(1,0)": ', 1)),
            put("g-text.json", "{"),
            str(root / "missing.json"),
        ],
    )

    def field(d, *rows):
        return json.dumps({"d": d, "fields": [{"i": i, "coeffs": c} for i, c in rows]})

    fields = (
        [
            put("f1.json", field(1, (1, ["1", "1/3"]))),
            put("f2.json", field(2, (0, ["1/10"]), (1, ["1", "0", "-1/4"]), (2, ["1/2"]))),
            put("f-zero.json", field(1)),
        ],
        [
            put("f-power.json", field(1, (1, ["0", "1e200"]))),
            put("f-nan.json", field(1, (1, ["nan"]))),
            put("f-inf.json", field(1, (1, ["inf"]))),
            put("f-huge.json", field(1, (1, ["1e400"]))),
            put("f-negative.json", field(-1, (0, ["1"]))),
            put("f-type.json", json.dumps({"d": 1, "fields": [{"i": 1, "coeffs": "12"}]})),
            put("f-twice.json", field(1, (1, ["1"]), (1, ["2"]))),
            put("f-repeat.json",
                '{"d": 1, "fields": [{"i": 1, "coeffs": ["0.5"], "coeffs": ["9"]}]}'),
            put("f-text.json", "not json"),
        ],
    )

    def csv(*rows):
        return "\n".join(rows) + "\n"

    csvs = (
        [
            put("p1.csv", csv("t,x1", *(f"{j / 8},{math.sin(j) / 3}" for j in range(9)))),
            put("p2.csv", csv("t,x1,x2", "0,0,0", "0.5,0.1,-0.2", "1,0.3,0.1")),
        ],
        [
            put("p-nan.csv", csv("t,x1", "0,0", "0.5,nan", "1,0.2")),
            put("p-inf.csv", csv("t,x1", "0,0", "0.5,inf", "1,0.2")),
            put("p-huge.csv", csv("t,x1", "0,0", "0.5,0.1", "1,1e300")),
            put("p-zero.csv", csv("t,x1", "0,0", "0,0")),
            put("p-negative.csv", csv("t,x1", "0,0", "-1,0.1")),
            put("p-type.csv", csv("t,x1", "0,0", "0.5,abc")),
            put("p-header.csv", csv("t,x1")),
        ],
    )
    chars = (
        [put("c-identity.json", json.dumps([character_to_json(identity_characters(1)[1])]))],
        [
            put("c-direction.json", json.dumps({"direction": 5, "terms": {"z(1,0)": "2"}})),
            put("c-type.json", json.dumps({"direction": 1, "terms": [["z(1,0)", "2"]]})),
            put("c-twice.json", json.dumps([{"direction": 1, "terms": {"z(1,0)": "2"}},
                                            {"direction": 1, "terms": {"z(1,0)": "3"}}])),
            put("c-term-twice.json",
                json.dumps({"direction": 1, "terms": {"z(1,0)": "2", "z(1,0)^1": "3"}})),
            put("c-repeat.json", '{"direction": 1, "terms": {"z(1,0)": "2", "z(1,0)": "3"}}'),
        ],
    )
    return {"root": root, "grid": grids, "field": fields, "csv": csvs, "chars": chars}


def _pick(data, pool) -> str:
    """A value of the (valid, invalid) ``pool``, invalid one time in four."""
    valid, invalid = pool
    return data.draw(st.sampled_from(invalid if data.draw(st.integers(0, 3)) == 0 else valid))


def _flags(data, pools: dict) -> list[str]:
    """Each flag of ``pools`` absent or set to a value of its pool."""
    return [f"{flag}={_pick(data, pool)}" for flag, pool in pools.items()
            if data.draw(st.booleans())]


def _character_flags(data, files) -> list[str]:
    choice = data.draw(st.sampled_from(["ito-strat", "chars", "both", "neither"]))
    argv = []
    if choice in ("ito-strat", "both"):
        argv.append("--ito-strat")
    if choice in ("chars", "both"):
        argv += ["--chars", _pick(data, files["chars"])]
    return argv


def _draw_argv(data, command: str, files) -> list[str]:
    """A command line for ``command``.  Huge integers go only to flags whose
    work does not grow with them; --steps and --paths are always bounded,
    and verify always runs one or two cheap suites."""
    if command == "enumerate":
        return _flags(data, {"--d": DIMS, "--max-norm": NORMS, "--gamma": GAMMAS})
    if command == "verify":
        argv = [f"--suite={_pick(data, SUITES)}" for _ in range(data.draw(st.integers(1, 2)))]
        return argv + _flags(data, {
            "--inject-fault": SUITES, "--d": DIMS,
            "--max-norm": (NORMS[0], [*NORMS[1], "4", str(2**70)]),
            "--seed": SEEDS,
        })
    if command == "lift":
        source = data.draw(st.sampled_from(["path", "brownian", "both", "neither"]))
        argv = [f"--steps={_pick(data, STEPS)}"]
        if source in ("path", "both"):
            argv += ["--path", _pick(data, files["csv"])]
        if source in ("brownian", "both"):
            argv += ["--brownian", _pick(data, (["ito", "strat"], ["midpoint"]))]
        return argv + _flags(data, {
            "--d": DIMS, "--max-norm": NORMS, "--t-final": FLOATS,
            "--seed": SEEDS, "--gamma": GAMMAS,
        })
    if command in ("solve", "davie-report"):
        argv = ["--grid", _pick(data, files["grid"]), "--field", _pick(data, files["field"]),
                *_flags(data, SOLVE_FLAGS)]
        if command == "davie-report":
            argv += _flags(data, {"--min-block": BLOCKS, "--max-block": BLOCKS})
        return argv
    if command == "translate":
        return ["--grid", _pick(data, files["grid"]), *_character_flags(data, files)]
    if command == "translate-field":
        return ["--field", _pick(data, files["field"]), *_character_flags(data, files)]
    assert command == "ito-strat-demo"
    return [f"--paths={_pick(data, (['1', '8'], ['0', '-1', 'x']))}",
            f"--steps={_pick(data, STEPS)}",
            *_flags(data, {"--d": DIMS, "--t-final": FLOATS, "--seed": SEEDS})]


COMMANDS = ["enumerate", "verify", "lift", "solve", "translate",
            "translate-field", "davie-report", "ito-strat-demo"]
TEXT_COMMANDS = {"enumerate", "ito-strat-demo"}


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def _exit_code_contract(files, data):
    command = data.draw(st.sampled_from(COMMANDS))
    argv = [command, *_draw_argv(data, command, files)]
    target = files["root"] / "out"
    output = data.draw(st.sampled_from(["stdout", "file", "unwritable"]))
    if output == "file":
        argv += ["--out", str(target)]
    elif output == "unwritable":
        argv += ["--out", str(files["root"] / "no-such-dir" / "out")]
    if data.draw(st.booleans()):
        argv.append("--no-timestamp")

    target.unlink(missing_ok=True)
    # argparse's own exit 2 aside, any exception that escapes main fails here
    code, out, err = run_cli(*argv)
    written = target.read_text() if target.exists() else ""
    target.unlink(missing_ok=True)

    assert code in ({0, 1, 2, 3} if command == "verify" else {0, 2, 3}), (argv, code, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == ""), (argv, code, err)
    if output == "file":
        assert out == ""
    else:
        written = out
    if code == 2 or (code == 3 and command != "solve"):
        assert written == "", (argv, code, err)
        return
    assert written, (argv, code)
    if command in TEXT_COMMANDS:
        assert written.startswith("# tool: mirpath ")
        return
    doc = json.loads(written, parse_constant=reject_constant)
    assert "provenance" in doc
    if code == 3:
        assert doc["solution"]["diverged"] is True


def test_every_subcommand_keeps_the_exit_code_contract(contract_inputs):
    # exit 0, 2 or 3 (1 only from verify), no exception, and every document
    # written is strict JSON; a refusal (exit 2) and davie-report's
    # divergence leave no output, solve's divergence writes its partial result
    start = time.perf_counter()
    _exit_code_contract(contract_inputs)
    assert time.perf_counter() - start < CONTRACT_BUDGET_S


# ---------------------------------------------------------------------------
# what each command imports
# ---------------------------------------------------------------------------


def _run_python(script: str, cwd) -> dict:
    """Run ``script`` in a fresh interpreter with the package on the path and
    return the JSON object it prints."""
    src = str(Path(mirpath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


UNUSED_BY_THE_FLOW = ["numpy", "mirpath.translation", "mirpath.verify",
                      "dataclasses", "inspect", "platform", "datetime", "csv"]


def test_version_loads_no_layer_and_every_export_resolves(tmp_path):
    got = _run_python(f"""
        import importlib, json, sys
        from mirpath.cli import main
        try:
            main(["--version"])
        except SystemExit:
            pass
        loaded = [m for m in {UNUSED_BY_THE_FLOW!r} if m in sys.modules]
        import mirpath
        star = {{}}
        exec("from mirpath import *", star)
        missing = [n for n in mirpath.__all__ if n not in star]
        wrong = [
            n for n, module in mirpath._MODULE_OF.items()
            if getattr(mirpath, n) is not getattr(
                importlib.import_module("mirpath." + module), n)
        ]
        disagree = [
            m for m, names in mirpath._EXPORTS.items()
            if set(names) != set(importlib.import_module("mirpath." + m).__all__)
        ]
        print(json.dumps({{"loaded": loaded, "missing": missing, "wrong": wrong,
                          "disagree": disagree, "names": sorted(mirpath.__all__)}}))
    """, tmp_path)
    assert got["loaded"] == []
    assert got["missing"] == [] and got["wrong"] == []
    assert got["disagree"] == []
    assert {"__version__", "solve_flow", "translate", "run_all_suites"} <= set(got["names"])


def test_each_layer_lists_its_row_of_the_export_table():
    layers = ["algebra", "grammar", "group", "lifts", "fields", "translation", "solver", "verify"]
    assert sorted(mirpath._EXPORTS) == sorted(layers)
    for layer in layers:
        assert importlib.import_module(f"mirpath.{layer}").__all__ == list(mirpath._EXPORTS[layer])
    # a list of names written out; the package's ``__all__`` is derived
    literal = sorted(
        path.name
        for path in Path(mirpath.__file__).parent.glob("*.py")
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        and isinstance(stmt.value, ast.List)
        and all(isinstance(e, ast.Constant) for e in stmt.value.elts)
    )
    assert literal == ["cli.py"]


def test_each_operation_has_one_spelling():
    for name in ("mi_product", "degree", "gamma_degree", "is_populated",
                 "symmetry_factor", "grid_to_json", "vector_field_to_json", "SolveConfig"):
        with pytest.raises(AttributeError):
            getattr(mirpath, name)
    assert list(inspect.signature(mirpath.gl_product).parameters) == ["u", "v"]
    assert list(inspect.signature(mirpath.translate).parameters) == ["ells", "u"]
    assert list(inspect.signature(mirpath.solve_flow).parameters) == [
        "path", "f", "y0", "substeps", "mesh_level", "level"]


def _lift_in_its_own_process(tmp_path, *flags: str) -> None:
    """Write ``grid.json`` with ``lift`` in a fresh interpreter."""
    got = _run_python(f"""
        import json
        from mirpath.cli import main
        code = main(["lift", *{list(flags)!r}, "--no-timestamp", "--out", "grid.json"])
        print(json.dumps({{"code": code}}))
    """, tmp_path)
    assert got == {"code": 0}


def test_flow_pipeline_loads_no_numpy_translation_or_verify(tmp_path):
    write_field_json(tmp_path / "field.json", [(0,), (1,)])
    got = _run_python(f"""
        import json, sys
        from mirpath.cli import main
        flow = ["--grid", "grid.json", "--field", "field.json", "--no-timestamp"]
        codes = [
            main(["lift", "--brownian", "strat", "--d", "1", "--steps", "4",
                  "--no-timestamp", "--out", "grid.json"]),
            main(["solve", *flow, "--out", "solution.json"]),
            main(["davie-report", *flow, "--out", "davie.json"]),
        ]
        loaded = [m for m in {UNUSED_BY_THE_FLOW!r} if m in sys.modules]
        print(json.dumps({{"codes": codes, "loaded": loaded}}))
    """, tmp_path)
    assert got == {"codes": [0, 0, 0], "loaded": []}


def test_solve_and_davie_report_load_no_lifts(tmp_path):
    # the grid reader lives in group; one process per stage, as lift loads lifts
    write_field_json(tmp_path / "field.json", [(0,), (1,)])
    _lift_in_its_own_process(tmp_path, "--brownian", "strat", "--d", "1", "--steps", "4")
    for command in ("solve", "davie-report"):
        got = _run_python(f"""
            import json, sys
            from mirpath.cli import main
            code = main([{command!r}, "--grid", "grid.json", "--field", "field.json",
                         "--no-timestamp", "--out", "out.json"])
            print(json.dumps({{"code": code, "lifts": "mirpath.lifts" in sys.modules}}))
        """, tmp_path)
        assert got == {"code": 0, "lifts": False}, command


def test_a_field_row_beyond_512_coefficients_exits_2_naming_its_letter(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    grid = grid_payload(lift_brownian(1, 1.0, 4, 0, "strat", Grading(3, Fraction(1, 2))))
    Path("grid.json").write_text(json.dumps({"grid": grid}))
    Path("field.json").write_text(json.dumps({"d": 1, "fields": [{"i": 1, "coeffs": ["1"] * 513}]}))
    code, out, err = run_cli("solve", "--grid", "grid.json", "--field", "field.json")
    assert (code, out) == (2, "")
    assert "field letter 1: coeffs must hold at most 512 values, got 513" in err


def test_verify_and_translate_load_no_dataclasses_inspect_or_platform(tmp_path):
    _lift_in_its_own_process(tmp_path, "--brownian", "ito", "--d", "1", "--steps", "4")
    got = _run_python("""
        import json, sys
        from mirpath.cli import main
        codes = [
            main(["verify", "--d", "1", "--max-norm", "2", "--no-timestamp", "--out", "v.json"]),
            main(["translate", "--grid", "grid.json", "--ito-strat", "--no-timestamp",
                  "--out", "t.json"]),
        ]
        loaded = [m for m in ["dataclasses", "inspect", "platform"] if m in sys.modules]
        print(json.dumps({"codes": codes, "loaded": loaded}))
    """, tmp_path)
    assert got == {"codes": [0, 0], "loaded": []}


def test_a_run_without_no_timestamp_writes_an_iso_utc_timestamp():
    import datetime

    before = datetime.datetime.now(datetime.timezone.utc)
    code, out, _ = run_cli("verify", "--suite", "exp-log", "--d", "1", "--max-norm", "1")
    after = datetime.datetime.now(datetime.timezone.utc)
    assert code == 0
    stamp = datetime.datetime.fromisoformat(json.loads(out)["provenance"]["timestamp"])
    assert stamp.utcoffset() == datetime.timedelta(0)
    assert before <= stamp <= after


def test_header_records_the_python_version_platform_reports():
    import platform

    code, out, _ = run_cli("enumerate", "--d", "1", "--max-norm", "1", "--no-timestamp")
    assert code == 0
    assert f"# python: {platform.python_version()}" in out.splitlines()


@pytest.mark.parametrize("argv, loads_numpy", [
    (["lift", "--brownian", "ito", "--d", "2", "--steps", "8"], False),
    (["lift", "--path", "path.csv"], False),
    (["verify", "--d", "1", "--max-norm", "2"], False),
    (["enumerate", "--d", "2", "--max-norm", "3"], False),
    (["translate", "--grid", "grid.json", "--ito-strat"], False),
    (["translate-field", "--field", "field.json", "--ito-strat"], False),
    (["ito-strat-demo", "--paths", "10", "--steps", "8"], True),
], ids=["lift-brownian", "lift-path", "verify", "enumerate", "translate",
        "translate-field", "ito-strat-demo"])
def test_only_the_pair_statistics_load_numpy(argv, loads_numpy, tmp_path):
    # the Brownian lift draws through mirpath._pcg; the Monte-Carlo of
    # ito-strat-demo reads the same stream through numpy
    _lift_in_its_own_process(tmp_path, "--brownian", "ito", "--d", "1", "--steps", "4")
    (tmp_path / "path.csv").write_text("t,x1\n0,0\n0.5,1\n1,0.5\n")
    write_field_json(tmp_path / "field.json", [(0,), (1,)])
    got = _run_python(f"""
        import json, sys
        from mirpath.cli import main
        code = main([*{argv!r}, "--no-timestamp", "--out", "out.txt"])
        print(json.dumps({{"code": code, "loaded": "numpy" in sys.modules}}))
    """, tmp_path)
    assert got == {"code": 0, "loaded": loads_numpy}


def test_header_records_the_installed_numpy_version():
    import numpy

    code, out, _ = run_cli("verify", "--d", "1", "--max-norm", "1", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["provenance"]["numpy"] == numpy.__version__


def test_numpy_version_without_a_standalone_version_file(tmp_path, monkeypatch):
    # numpy 1.24 and 1.25 import their version.py's value from a sibling module
    import importlib.metadata
    import importlib.util

    from mirpath.cli import _numpy_version

    package = tmp_path / "numpy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "version.py").write_text(
        "from ._version import get_versions\n__version__ = get_versions()['version']\n"
    )
    stand_in = importlib.util.spec_from_file_location("numpy", package / "__init__.py")
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: stand_in if name == "numpy" else None)
    assert _numpy_version() == importlib.metadata.version("numpy")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert _numpy_version() is None
