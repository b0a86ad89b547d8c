"""Verification suites and the command-line surface.

The suite engine is exercised directly (all suites green on the default
budget, deterministic subsetting, fault injection flipping exactly one
check) and through the CLI, together with the command contract: exit codes
0/1/2/3, provenance headers, byte-level determinism under
``--no-timestamp``, grammar-form failure reports, and the bit-exact
round trip from ``lift`` output through ``solve``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import mirpath
from mirpath.algebra import Grading, MultiIndex, enumerate_populated
from mirpath.cli import _emit_json
from mirpath.cli import main as cli_main
from mirpath.fields import VectorField, vector_field_from_json, vector_field_to_json
from mirpath.grammar import format_multi_index
from mirpath.lifts import lift_piecewise_linear, read_path_csv, write_path_csv
from mirpath.solver import SolveConfig, solve_flow
from mirpath.translation import Character, character_to_json, identity_characters
from mirpath.verify import SuiteResult, available_suites, run_all_suites


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse-level usage failures
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def content_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def write_sine_csv(path, n=32, amplitude=1 / 3) -> None:
    rows = [(j / n, amplitude * math.sin(2 * math.pi * j / n)) for j in range(n + 1)]
    buf = io.StringIO()
    write_path_csv(rows, buf)
    path.write_text(buf.getvalue())


def write_field_json(path, rows) -> None:
    path.write_text(vector_field_to_json(VectorField.polynomial(rows)))


# ---------------------------------------------------------------------------
# suite engine
# ---------------------------------------------------------------------------


class TestSuiteEngine:
    def test_all_suites_pass_on_the_default_budget(self):
        results = run_all_suites()
        assert [r.name for r in results] == list(available_suites())
        for r in results:
            assert r.checked > 0, r.name
            assert r.failed == 0, (r.name, r.failures)
            assert r.passed

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
        with pytest.raises(ValueError):
            run_all_suites(gamma=Fraction(1))

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
        assert "overflows on segment 1" in err
        assert out == ""

    @pytest.mark.parametrize("field, message", [
        ("times", "grid times must be finite"),
        ("increments", "increment 2 holds a non-finite value"),
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
        ref = solve_flow(grid, field, 0.1, SolveConfig(rk4_substeps=8))
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
    @pytest.mark.parametrize("y0", ["nan", "inf", "-inf"])
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

    def test_truncation_shortfall_is_a_usage_error(self, grid_file):
        code, _, err = run_cli("translate", "--grid", str(grid_file),
                               "--ito-strat", "--out-max-norm", "4")
        assert code == 2
        assert "4" in err

    def test_field_translation_emits_exact_coefficients(
        self, cubic_field_json, tmp_path
    ):
        out_file = tmp_path / "tfield.json"
        code, _, _ = run_cli("translate-field", "--field", str(cubic_field_json),
                             "--ito-strat", "--max-norm", "3",
                             "--no-timestamp", "--out", str(out_file))
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
                "--ito-strat", "--max-norm", "3",
                "--no-timestamp", "--out", str(tfield_file))
        code, _, _ = run_cli("solve", "--grid", str(grid_file), "--field",
                             str(tfield_file), "--y0", "0.1", "--no-timestamp",
                             "--out", str(sol_file))
        assert code == 0
        assert json.loads(sol_file.read_text())["solution"]["diverged"] is False


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class TestCliMalformedInputs:
    """Malformed input files exit 2 with a message that names the file."""

    @pytest.fixture()
    def grid_doc(self, tmp_path):
        grid_file = tmp_path / "grid.json"
        run_cli("lift", "--brownian", "strat", "--d", "1", "--steps", "4",
                "--no-timestamp", "--out", str(grid_file))
        return json.loads(grid_file.read_text())

    @staticmethod
    def assert_usage_error(path, *argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {str(path)!r} does not hold ")

    def solve_grid(self, tmp_path, doc, field_file):
        grid_file = tmp_path / "bad_grid.json"
        grid_file.write_text(json.dumps(doc))
        self.assert_usage_error(grid_file, "solve", "--grid", str(grid_file),
                                "--field", str(field_file))

    def test_grid_gamma_with_zero_denominator(self, grid_doc, cubic_field_json, tmp_path):
        grid_doc["grid"]["gamma"] = "1/0"
        self.solve_grid(tmp_path, grid_doc, cubic_field_json)

    def test_grid_increment_given_as_a_list(self, grid_doc, cubic_field_json, tmp_path):
        grid_doc["grid"]["increments"][1] = list(grid_doc["grid"]["increments"][1].values())
        self.solve_grid(tmp_path, grid_doc, cubic_field_json)

    def test_grid_value_true(self, grid_doc, cubic_field_json, tmp_path):
        grid_doc["grid"]["increments"][2]["z(1,0)"] = True
        self.solve_grid(tmp_path, grid_doc, cubic_field_json)

    def test_field_coefficient_with_zero_denominator(self, grid_doc, tmp_path):
        grid_file = tmp_path / "grid.json"
        field_file = tmp_path / "bad_field.json"
        field_file.write_text(json.dumps(
            {"d": 1, "fields": [{"i": 0, "coeffs": ["1/0"]}, {"i": 1, "coeffs": ["1"]}]}
        ))
        self.assert_usage_error(field_file, "solve", "--grid", str(grid_file),
                                "--field", str(field_file))

    def test_field_coeffs_given_as_a_string(self, grid_doc, tmp_path):
        grid_file = tmp_path / "grid.json"
        field_file = tmp_path / "bad_field.json"
        field_file.write_text(json.dumps({"d": 1, "fields": [{"i": 1, "coeffs": "12"}]}))
        self.assert_usage_error(field_file, "solve", "--grid", str(grid_file),
                                "--field", str(field_file))

    def test_character_term_with_zero_denominator(self, grid_doc, tmp_path):
        grid_file = tmp_path / "grid.json"
        chars = tmp_path / "chars.json"
        chars.write_text(json.dumps({"direction": 1, "terms": {"z(1,0)": "1/0"}}))
        self.assert_usage_error(chars, "translate", "--grid", str(grid_file),
                                "--chars", str(chars))

    def test_character_terms_given_as_a_list(self, grid_doc, tmp_path):
        grid_file = tmp_path / "grid.json"
        chars = tmp_path / "chars.json"
        chars.write_text(json.dumps([{"direction": 1, "terms": [["z(1,0)", "2"]]}]))
        self.assert_usage_error(chars, "translate", "--grid", str(grid_file),
                                "--chars", str(chars))


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

        def reject(token):
            raise AssertionError(f"non-standard JSON token {token}")

        report = json.loads(out, parse_constant=reject)["report"]
        assert len(report["rows"]) == 1
        assert report["slope"] is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_output_refuses_non_finite_numbers(self, bad, tmp_path):
        args = argparse.Namespace(out=str(tmp_path / "out.json"), no_timestamp=True)
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit_json({"slope": bad}, args)

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
    ], ids=lambda v: v[0] if isinstance(v, tuple) else v)
    def test_unused_flags_are_rejected(self, argv, flag):
        # each of these flags used to be accepted and then ignored
        code, _, err = run_cli(*argv, flag, "1")
        assert code == 2
        assert "unrecognized arguments" in err


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


UNUSED_BY_THE_FLOW = ["numpy", "mirpath.translation", "mirpath.verify"]


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
        print(json.dumps({{"loaded": loaded, "missing": missing, "wrong": wrong,
                          "names": sorted(mirpath.__all__)}}))
    """, tmp_path)
    assert got["loaded"] == []
    assert got["missing"] == [] and got["wrong"] == []
    assert {"__version__", "solve_flow", "translate", "run_all_suites"} <= set(got["names"])


def test_flow_pipeline_loads_neither_translation_nor_verify(tmp_path):
    write_field_json(tmp_path / "field.json", [(0,), (1,)])
    got = _run_python("""
        import json, sys
        from mirpath.cli import main
        flow = ["--grid", "grid.json", "--field", "field.json", "--no-timestamp"]
        codes = [
            main(["lift", "--brownian", "strat", "--d", "1", "--steps", "4",
                  "--no-timestamp", "--out", "grid.json"]),
            main(["solve", *flow, "--out", "solution.json"]),
            main(["davie-report", *flow, "--out", "davie.json"]),
        ]
        loaded = [m for m in ("mirpath.translation", "mirpath.verify") if m in sys.modules]
        print(json.dumps({"codes": codes, "loaded": loaded}))
    """, tmp_path)
    assert got == {"codes": [0, 0, 0], "loaded": []}
