import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from stepweaver import cli, dsl, optimizer
from stepweaver.cli import main
from stepweaver.io import (
    RunConfig,
    ScheduleFileError,
    dumps_schedule,
    load_schedule,
    loads_schedule,
    save_schedule,
)
from stepweaver.optimizer import CACHE_ENV_VAR, CACHE_NAME, build_tables, load_tables, obs_f, save_tables
from stepweaver.schedule import (
    ClassMismatchError,
    CompClass,
    IdentityError,
    JoinOp,
    ResourceCapError,
    ScheduleError,
    StepSchedule,
    UncertifiedScheduleError,
    empty_schedule,
    join,
)

SQ2 = math.sqrt(2.0)
ROOT = Path(__file__).resolve().parent.parent


def _bogus_g_schedule():
    """Steps that satisfy the closed-form g-identities yet break the
    gradient-norm inequality: the file loads cleanly and fails verification."""
    b = 1.07
    for _ in range(60):
        b = 1.0 + 1.0 / (4.0 * math.sqrt(11.0 + 2.0 * b))
    return StepSchedule(np.array([5.0, b]), CompClass.G, 1.0 / (1.0 + 2.0 * (5.0 + b)))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _nested(depth):
    """``((...(e >< e)...) >< e)`` with ``depth`` parentheses open at once."""
    return "(" * depth + "e >< e)" + " >< e)" * (depth - 1)


class TestScheduleFile:
    def test_round_trip_bit_exact(self, tmp_path):
        h = obs_f(10)
        path = tmp_path / "h.json"
        save_schedule(path, h, construction="obsf(10)")
        loaded = load_schedule(path)
        assert np.array_equal(loaded.steps, h.steps)
        assert loaded.rate == h.rate
        assert loaded.comp_class is h.comp_class
        assert loaded.tree is not None  # adopted from the construction

    def test_seventeen_digit_decimals(self):
        h = obs_f(2)
        text = dumps_schedule(h)
        doc = json.loads(text)
        assert doc["steps"][0] == h.steps[0]
        assert "1.4142135623730951" in text

    def test_steps_keep_their_seventeen_digit_bytes(self):
        h = obs_f(700)
        doc = dumps_schedule(h)
        assert '"steps": [' + ", ".join(format(float(x), ".17g") for x in h.steps) + "]" in doc

    def test_unknown_keys_rejected(self):
        h = obs_f(1)
        doc = json.loads(dumps_schedule(h))
        doc["surprise"] = 1
        with pytest.raises(ScheduleFileError, match="unknown keys: surprise"):
            loads_schedule(json.dumps(doc))

    def test_missing_keys_rejected(self):
        doc = json.loads(dumps_schedule(obs_f(1)))
        del doc["rate"]
        with pytest.raises(ScheduleFileError, match="missing keys: rate"):
            loads_schedule(json.dumps(doc))

    def test_length_mismatch_rejected(self):
        doc = json.loads(dumps_schedule(obs_f(2)))
        doc["n"] = 3
        with pytest.raises(ScheduleFileError, match="does not match n"):
            loads_schedule(json.dumps(doc))

    def test_rate_revalidated(self):
        doc = json.loads(dumps_schedule(obs_f(2)))
        doc["rate"] = 0.5
        with pytest.raises(ScheduleFileError, match="revalidation"):
            loads_schedule(json.dumps(doc))

    def test_construction_must_reproduce_steps(self):
        doc = json.loads(dumps_schedule(obs_f(3), construction="obsf(3)"))
        doc["construction"] = "(e |> (e |> (e |> e)))"  # same length, different steps
        with pytest.raises(ScheduleFileError, match="construction"):
            loads_schedule(json.dumps(doc))

    @pytest.mark.parametrize(
        "construction,reason",
        [
            ("(e |> (e |> (e |> e)))", "construction steps differ: step 0 is "),
            ("(e |> (e |> e))", "construction has length 2, schedule has 3 steps"),
        ],
    )
    def test_construction_mismatch_says_what_differs(self, tmp_path, capsys, construction, reason):
        """The check the verifier makes of a tree: the error keeps its
        documented text and exit code 4, and names the first difference."""
        doc = json.loads(dumps_schedule(obs_f(3), construction="obsf(3)"))
        doc["construction"] = construction
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 4
        prefix = "error: construction: expression does not reproduce the stored steps: "
        assert capsys.readouterr().err.startswith(prefix + reason)

    @pytest.mark.parametrize(
        "base,construction,code,message",
        [
            ("obsf(3)", "(e >< )", 4, "construction: syntax error at position 6: expected an expression"),
            ("obsf(3)", "(e >< e)", 4, "construction: expression has classes {s}, cannot evaluate as f: (e >< e)"),
            ("silver(2)", "(const_s(3) >< e)", 4, "construction: cannot join conjectured schedules"),
            ("obsf(3)", "obsf(20001)", 5, "length 20001 exceeds the largest accepted length"),
        ],
    )
    def test_construction_errors_name_the_field(self, tmp_path, capsys, base, construction, code, message):
        """A construction that does not compile is a schedule-file error
        (exit 4) naming the field; only a resource cap keeps exit 5."""
        schedule, _ = dsl.compile_expression(base)
        doc = json.loads(dumps_schedule(schedule, construction=base))
        doc["construction"] = construction
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScheduleFileError if code == 4 else ResourceCapError) as exc:
            loads_schedule(path.read_text())
        assert str(exc.value).startswith(message)
        for command in ("verify", "run"):
            assert main([command, str(path)]) == code
            captured = capsys.readouterr()
            assert (captured.out, captured.err.startswith(f"error: {message}")) == ("", True)

    def test_schema_version_checked(self):
        doc = json.loads(dumps_schedule(obs_f(1)))
        doc["schema_version"] = 99
        with pytest.raises(ScheduleFileError, match="schema_version"):
            loads_schedule(json.dumps(doc))

    def test_conjectured_flag_restored_from_construction(self, tmp_path):
        from stepweaver.builders import constant_optimal

        h = constant_optimal(CompClass.S, 4)
        path = tmp_path / "c.json"
        save_schedule(path, h, construction="const_s(4)")
        assert load_schedule(path).conjectured


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.battery == 200
        assert cfg.seed == 0xC0FFEE

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScheduleFileError, match="unknown config keys"):
            RunConfig.from_dict({"batery": 10})

    def test_positive_fields_enforced(self):
        with pytest.raises(ScheduleFileError):
            RunConfig(battery=0)
        with pytest.raises(ScheduleFileError):
            RunConfig(slack_tol=-1e-8)

    def test_from_json(self):
        cfg = RunConfig.from_json('{"battery": 17, "seed": 3}')
        assert cfg.battery == 17 and cfg.seed == 3

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"battery": True}, "battery must be a positive integer"),
            ({"battery": 2.5}, "battery must be a positive integer"),
            ({"seed": False}, "seed must be a positive integer"),
            ({"seed": "3"}, "seed must be a positive integer"),
            ({"q_tol": "1e-9"}, "q_tol must be a positive number"),
            ({"slack_tol": True}, "slack_tol must be a positive number"),
        ],
    )
    def test_field_types_enforced(self, doc, message):
        with pytest.raises(ScheduleFileError, match=message):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("name", ["identity_tol", "slack_tol", "tight_tol", "q_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_tolerances_must_be_finite(self, name, value):
        with pytest.raises(ScheduleFileError, match=f"config field {name} must be"):
            RunConfig.from_dict({name: value})

    def test_infinite_tolerances_cannot_pass_a_wrong_rate(self, tmp_path, capsys):
        """A silver(2) file whose rate is 0.3 (not 0.1716) fails revalidation
        under the default config, and an all-Infinity config is refused
        instead of passing it."""
        sched = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(sched)])
        doc = json.loads(sched.read_text())
        doc["rate"] = 0.3
        del doc["construction"]
        sched.write_text(json.dumps(doc))
        config = tmp_path / "config.json"
        config.write_text('{"identity_tol": Infinity, "slack_tol": Infinity, "tight_tol": Infinity, "q_tol": Infinity}')
        capsys.readouterr()
        assert main(["verify", str(sched)]) == 4
        assert "rate fails revalidation" in capsys.readouterr().err
        assert main(["verify", str(sched), "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config field identity_tol must be finite, got inf\n"

    def test_cache_dir_is_an_unknown_key(self, tmp_path, capsys):
        sched = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(sched)])
        config = tmp_path / "config.json"
        config.write_text('{"battery": 10, "cache_dir": "/tmp"}')
        assert main(["verify", str(sched), "--config", str(config)]) == 4
        assert "unknown config keys: cache_dir" in capsys.readouterr().err

    def test_output_format_is_an_unknown_key(self, tmp_path, capsys):
        """The report format has one switch, ``verify --json``; a config file
        cannot set it."""
        sched = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(sched)])
        config = tmp_path / "config.json"
        config.write_text('{"output_format": "json"}')
        capsys.readouterr()
        assert main(["verify", str(sched), "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown config keys: output_format\n"


class TestCli:
    def test_compose_writes_schedule(self, tmp_path, capsys):
        out = tmp_path / "f3.json"
        code = main(["compose", "((e >< e) |> (e |> e))", "--class", "f", "--out", str(out)])
        assert code == 0
        loaded = load_schedule(out)
        assert np.allclose(loaded.steps, [SQ2, 1.0 + SQ2, 1.5], rtol=1e-15)

    def test_compose_silver_macro(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["compose", "silver(2)", "--class", "s", "--out", str(out)]) == 0
        assert np.allclose(load_schedule(out).steps, [SQ2, 2.0, SQ2], rtol=1e-15)

    def test_compose_type_error_exit_3(self, capsys):
        assert main(["compose", "((e |> e) >< e)"]) == 3
        assert "required" in capsys.readouterr().err

    def test_compose_parse_error_exit_2(self, capsys):
        assert main(["compose", "(e >< e) >< e)"]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_optimize_and_table(self, tmp_path, capsys):
        out = tmp_path / "f10.json"
        table = tmp_path / "rates.csv"
        code = main(
            ["optimize", "--class", "f", "--n", "10", "--out", str(out), "--table", str(table)]
        )
        assert code == 0
        loaded = load_schedule(out)
        assert loaded.n == 10
        rows = table.read_text().strip().splitlines()
        assert rows[0] == "n,length,rate,normalized"
        assert len(rows) == 12
        last = rows[-1].split(",")
        assert float(last[2]) == loaded.rate
        assert loaded.rate == pytest.approx(0.02124, abs=1e-4)

    def test_optimize_s_power_of_two(self, tmp_path):
        out = tmp_path / "s7.json"
        assert main(["optimize", "--class", "s", "--n", "7", "--out", str(out)]) == 0
        assert load_schedule(out).rate == pytest.approx((1.0 + SQ2) ** -3, rel=1e-12)

    def test_optimize_g_is_reverse_of_f(self, tmp_path):
        fo, go = tmp_path / "f.json", tmp_path / "g.json"
        main(["optimize", "--class", "f", "--n", "3", "--out", str(fo)])
        main(["optimize", "--class", "g", "--n", "3", "--out", str(go)])
        f, g = load_schedule(fo), load_schedule(go)
        assert np.array_equal(g.steps, f.steps[::-1])
        assert g.rate == f.rate

    def test_verify_pass_exit_0(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(out)])
        assert main(["verify", str(out), "--battery", "20"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_fail_exit_1(self, tmp_path, capsys):
        out = tmp_path / "bogus.json"
        out.write_text(dumps_schedule(_bogus_g_schedule()))
        assert main(["verify", str(out), "--battery", "40"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_corrupted_step_rejected_at_load(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["steps"][1] = 2.5  # corrupt one step: identity revalidation fails
        del doc["construction"]
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out), "--battery", "20"]) == 4

    def test_verify_json_report(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["compose", "(e |> e)", "--class", "f", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", str(out), "--battery", "10", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True

    def test_verify_json_writes_a_nan_slack_as_null(self, tmp_path, capsys):
        """RFC 8259 JSON has no NaN: a check that could not be built reports
        ``"slack": null``.  right_heavy(3)'s reverse misses the 1e-15
        identity tolerance, so its reversal-duality slack is NaN."""
        sched, config = tmp_path / "r3.json", tmp_path / "tol.json"
        assert main(["compose", "rheavy(3)", "--out", str(sched)]) == 0
        config.write_text('{"identity_tol": 1e-15}')
        capsys.readouterr()
        assert main(["verify", str(sched), "--config", str(config), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        entry = next(c for c in doc["checks"] if c["name"] == "reversal-duality")
        assert entry["passed"] is False and entry["slack"] is None
        assert entry["instance"].startswith("g-identity violated")

    @pytest.mark.parametrize(
        "error,code",
        [
            (dsl.DslSyntaxError("boom", 3), 2),
            (dsl.DslTypeError("boom"), 3),
            (ClassMismatchError("boom"), 3),
            (UncertifiedScheduleError("boom"), 3),
            (IdentityError("boom"), 3),
            (ScheduleFileError("boom"), 4),
            (FileNotFoundError("boom"), 4),
            (ResourceCapError("boom"), 5),
            (ScheduleError("boom"), 2),
        ],
    )
    def test_exit_code_of_each_error_type(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_compose", fail)
        assert main(["compose", "e"]) == code
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_other_errors_are_not_swallowed(self, monkeypatch):
        def fail(args):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "cmd_compose", fail)
        with pytest.raises(ZeroDivisionError):
            main(["compose", "e"])

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("schema_version", True, "schema_version: expected 1, got True"),
            ("schema_version", 1.0, "schema_version: expected 1, got 1.0"),
            ("n", True, "n: expected a nonnegative integer, got True"),
            ("steps", [True], "steps: expected an array of numbers"),
            ("rate", True, "rate: expected a number, got True"),
        ],
    )
    def test_json_booleans_are_not_numbers_exit_4(self, tmp_path, capsys, key, value, message):
        doc = {"schema_version": 1, "class": "s", "n": 1, "steps": [1.4142135623730951]}
        doc["rate"] = 0.41421356237309503
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--battery", "5"]) == 0
        capsys.readouterr()
        path.write_text(json.dumps(dict(doc, **{key: value})))
        assert main(["verify", str(path), "--battery", "5"]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_io_error_exit_4(self, capsys):
        assert main(["verify", "/nonexistent/file.json"]) == 4

    def test_cap_error_exit_5(self, capsys):
        assert main(["compose", "silver(99)", "--class", "s"]) == 5

    @pytest.mark.parametrize("expr", ["const_g(1000000000000000)", "const_s(1000000000)", "const_g(100001)"])
    def test_constant_schedule_length_cap_exit_5(self, capsys, expr):
        assert main(["compose", expr]) == 5
        n = expr[expr.index("(") + 1 : -1]
        assert capsys.readouterr().err == f"error: length {n} exceeds cap 100000\n"

    @pytest.mark.parametrize("macro", ["obss", "obsf", "obsg"])
    def test_obs_length_cap_exit_5(self, capsys, macro):
        assert main(["compose", f"{macro}(20001)"]) == 5
        assert capsys.readouterr().err == (
            "error: length 20001 exceeds the largest accepted length 20000 (O(N^2) table fill)\n"
        )

    def test_optimize_cap_names_the_requested_length(self, capsys):
        assert main(["optimize", "--class", "s", "--n", "20001"]) == 5
        assert capsys.readouterr().err == (
            "error: --n 20001 exceeds the largest accepted length 20000 (O(N^2) table fill)\n"
        )
        with pytest.raises(SystemExit):
            main(["optimize", "--help"])
        assert "schedule length, at most 20000" in " ".join(capsys.readouterr().out.split())

    def test_run_huber_tight(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["compose", "(e |> e)", "--class", "f", "--out", str(out)])
        trace = tmp_path / "trace.csv"
        capsys.readouterr()
        code = main(
            ["run", str(out), "--function", "huber:delta=0.25", "--x0", "1", "--out", str(trace)]
        )
        assert code == 0
        summary = json.loads("\n".join(capsys.readouterr().out.splitlines()[1:]))
        assert abs(summary["defining_slack"]) < 1e-9
        rows = trace.read_text().strip().splitlines()
        assert rows[0] == "i,x,f_i,grad_norm"
        assert len(rows) == 3

    def test_run_quad_gap_is_half_rate(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["compose", "((e >< e) |> (e |> e))", "--class", "f", "--out", str(out)])
        capsys.readouterr()
        main(["run", str(out), "--function", "quad:a=1", "--x0", "1", "--out", str(tmp_path / "t.csv")])
        summary = json.loads("\n".join(capsys.readouterr().out.splitlines()[1:]))
        assert summary["objective_gap"] == pytest.approx(summary["rate"] * 0.5, rel=1e-12)

    def test_run_random_emits_d_columns(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(out)])
        trace = tmp_path / "t.csv"
        assert main(["run", str(out), "--function", "random:d=8,seed=4", "--out", str(trace)]) == 0
        row = trace.read_text().strip().splitlines()[1]
        assert len(row.split(",")[1].split(";")) == 8

    @pytest.mark.parametrize(
        "flags,field",
        [(["--function", "quad:a=abc"], "--function quad:a"), (["--x0", "foo"], "--x0")],
    )
    def test_run_bad_number_is_a_parse_error(self, tmp_path, capsys, flags, field):
        out = tmp_path / "h.json"
        main(["compose", "(e |> e)", "--class", "f", "--out", str(out)])
        capsys.readouterr()
        assert main(["run", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: expected float")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--x0", "nan"], "x0 must be finite, got nan at coordinate 0"),
            (["--x0=-inf"], "x0 must be finite, got -inf at coordinate 0"),
            (["--function", "random:d=2", "--x0", "1,1e309"], "x0 must be finite, got inf at coordinate 1"),
            (["--x0", "1e308"], "trace row 0 of 0..3 overflows; rerun from a smaller --x0"),
            (
                ["--function", "huber:delta=1e-3", "--x0", "1e200"],
                "half_dist_sq overflows on this trace; rerun from a smaller --x0",
            ),
        ],
    )
    def test_run_non_finite_is_an_argument_error(self, tmp_path, capsys, flags, message):
        """A non-finite start point, or a trace or summary that overflows,
        exits 2 with nothing on stdout: no CSV row, no NaN or Infinity."""
        out = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(out)])
        trace = tmp_path / "t.csv"
        capsys.readouterr()
        assert main(["run", str(out), *flags]) == 2
        assert main(["run", str(out), *flags, "--out", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n" * 2
        assert not trace.exists()

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("random:d=-2", "random:d: expected a positive integer, got -2"),
            ("random:d=0", "random:d: expected a positive integer, got 0"),
            ("random:d=2,seed=-1", "random:seed: expected a nonnegative integer, got -1"),
            ("quad:a=0.5,d=3,bogus=1", "quad:d: unknown key, expected a"),
            ("quad:bogus=1", "quad:bogus: unknown key, expected a"),
            ("huber:a=1", "huber:a: unknown key, expected delta"),
            ("random:d=2,delta=1", "random:delta: unknown key, expected d or seed"),
            ("huber:delta=0.5,delta=0.7", "huber:delta: repeated key"),
            ("random:seed=1,d=2,seed=3", "random:seed: repeated key"),
            ("quad:a=1, a=2", "quad:a: repeated key"),
        ],
    )
    def test_run_random_out_of_range_is_a_parse_error(self, tmp_path, capsys, spec, message):
        """A random parameter out of range, an unknown key or a repeated key
        exits 2 with a line that names the function and the key."""
        out = tmp_path / "h.json"
        main(["compose", "(e |> e)", "--class", "f", "--out", str(out)])
        capsys.readouterr()
        assert main(["run", str(out), "--function", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --function {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--k", "-1"], ["optimize", "--class", "s", "--n", "-3"], ["bounds", "--k", "abc"]],
    )
    def test_size_must_be_a_nonnegative_integer(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: stepweaver")
        assert f"expected a nonnegative integer, got {argv[-1]!r}" in captured.err

    @pytest.mark.parametrize(
        "flag,value",
        [("--seed", "-1"), ("--seed", "0"), ("--seed", "0x0"), ("--seed", "abc"), ("--battery", "0"),
         ("--battery", "-3"), ("--battery", "2.5")],
    )
    def test_verify_flags_must_be_positive_integers(self, tmp_path, capsys, flag, value):
        sched = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(sched)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(sched), flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: stepweaver")
        assert f"argument {flag}: expected a positive integer, got {value!r}" in captured.err

    def test_verify_seed_keeps_base_prefixes(self, tmp_path, capsys):
        sched = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(sched)])
        capsys.readouterr()
        assert main(["verify", str(sched), "--battery", "8", "--seed", "0x65", "--json"]) == 0
        hex_report = json.loads(capsys.readouterr().out)
        assert main(["verify", str(sched), "--battery", "8", "--seed", "101", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == hex_report
        assert "seed 0x65" in hex_report["checks"][0]["instance"]

    @pytest.mark.parametrize("doc", ['{"seed": -1}', '{"seed": 0}', '{"battery": 0}'])
    def test_verify_config_file_values_exit_4(self, tmp_path, capsys, doc):
        sched = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(sched)])
        config = tmp_path / "config.json"
        config.write_text(doc)
        capsys.readouterr()
        assert main(["verify", str(sched), "--config", str(config)]) == 4
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["verify", "{bad}"], ["run", "{bad}"], ["verify", "{good}", "--config", "{bad}"]], ids=["verify", "run", "config"]
    )
    def test_undecodable_input_file_exit_4(self, tmp_path, capsys, argv):
        """A schedule or config file that is not UTF-8 exits 4 with one line
        naming the file, not a decode traceback (exit 1 is a failed verification)."""
        good, bad = tmp_path / "h.json", tmp_path / "bad.json"
        main(["compose", "silver(2)", "--out", str(good)])
        bad.write_bytes(b"\xff")
        capsys.readouterr()
        assert main([a.format(good=good, bad=bad) for a in argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: not UTF-8 text: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("field", ["steps", "rate", "identity_tol", "slack_tol", "tight_tol", "q_tol"])
    def test_number_beyond_binary64_exit_4(self, tmp_path, capsys, field):
        """A JSON integer too large for a float (here 10^400) exits 4 with a
        line naming its field, not an OverflowError traceback."""
        sched, config = tmp_path / "h.json", tmp_path / "config.json"
        main(["compose", "silver(2)", "--out", str(sched)])
        capsys.readouterr()
        huge, argv, name = "1" + "0" * 400, ["verify", str(sched)], field
        if field in ("steps", "rate"):
            doc = json.loads(sched.read_text())
            doc["rate" if field == "rate" else "steps"] = "HUGE" if field == "rate" else ["HUGE"] + doc["steps"][1:]
            sched.write_text(json.dumps(doc).replace('"HUGE"', huge))
        else:
            config.write_text(f'{{"{field}": {huge}}}')
            argv, name = argv + ["--config", str(config)], f"config field {field}"
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {name}: number beyond the binary64 range\n")

    def test_integer_fields_keep_their_rules(self, tmp_path, capsys):
        """``seed`` takes any positive integer, however large; an integer too
        long for Python to read (over 4300 digits) is invalid JSON, exit 4."""
        assert RunConfig.from_json('{"seed": 1' + "0" * 400 + "}").seed == 10**400
        sched, config = tmp_path / "h.json", tmp_path / "config.json"
        main(["compose", "silver(2)", "--out", str(sched)])
        config.write_text('{"battery": 2, "seed": 1' + "0" * 400 + "}")
        capsys.readouterr()
        assert main(["verify", str(sched), "--config", str(config)]) == 0
        config.write_text('{"seed": 1' + "0" * 5000 + "}")
        capsys.readouterr()
        assert main(["verify", str(sched), "--config", str(config)]) == 4
        assert capsys.readouterr().err.startswith("error: config is not valid JSON: Exceeds the limit")
        sched.write_text(sched.read_text().replace('"n": 3', '"n": 1' + "0" * 5000))
        assert main(["verify", str(sched)]) == 4
        assert capsys.readouterr().err.startswith("error: not valid JSON: Exceeds the limit")

    def test_huge_random_dimension_exit_5(self, tmp_path, capsys):
        """``random:d`` beyond ``gd.MAX_COORDS`` is refused before anything is drawn."""
        sched = tmp_path / "h.json"
        main(["compose", "silver(2)", "--out", str(sched)])
        capsys.readouterr()
        assert main(["run", str(sched), "--function", "random:d=10000000000000"]) == 5
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: dimension 10000000000000 exceeds cap 16777216\n")

    def test_bounds(self, capsys):
        assert main(["bounds", "--k", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,1.2715533")
        assert lines[1].startswith("c_low,0.4208")
        assert lines[2] == "k,r_obs_s,r_obs_f"
        assert len(lines) == 7

    def test_bounds_k_guard(self, capsys):
        assert main(["bounds", "--k", "15"]) == 5

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
    @pytest.mark.parametrize("k", [14, 18])
    def test_bounds_over_the_table_cap_names_k(self, monkeypatch, capsys, k, force):
        """A level over the table cap exits 5 before any fill, with or
        without --force, and names --k and the largest level allowed."""

        def no_fill(*args, **kwargs):
            raise AssertionError("table fill started")

        monkeypatch.setattr(optimizer, "load_or_build", no_fill)
        assert main(["bounds", "--k", str(k), *force]) == 5
        captured = capsys.readouterr()
        assert captured.err == f"error: --k {k} exceeds the largest accepted level 13 (O(4^k) table fill)\n"
        assert captured.out == ""

    def test_bounds_largest_level_still_needs_force(self, capsys):
        assert main(["bounds", "--k", "13"]) == 5
        assert "rerun with --force" in capsys.readouterr().err

    def test_bounds_csv(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--k", "2", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "n,length,s_rate,s_normalized,f_rate,f_normalized"
        # normalized s-column never drops below 1
        for row in rows[1:]:
            assert float(row.split(",")[3]) >= 1.0 - 1e-10

    def test_cache_env_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STEPWEAVER_CACHE", str(tmp_path / "cache"))
        assert main(["optimize", "--class", "s", "--n", "4"]) == 0
        assert list((tmp_path / "cache").glob("obs-tables-*.npz"))

    def test_compose_macros_use_the_table_cache(self, tmp_path, monkeypatch, capsys, rows_filled):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        out = tmp_path / "obss.json"

        def compose():
            optimizer._SHARED_TABLES = None
            assert main(["compose", "obss(400)"]) == 0
            assert main(["compose", "obss(400)", "--out", str(out)]) == 0
            return capsys.readouterr().out, out.read_bytes()

        monkeypatch.setattr(optimizer, "_SHARED_TABLES", None)
        with monkeypatch.context() as m:  # obss on the in-process tables alone
            m.setitem(dsl._MACROS, "obss", (CompClass.S, optimizer.obs_s))
            before = compose()
        assert compose() == before
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        rows_filled.update(s=0, f=0)
        assert compose() == before
        assert rows_filled == {"s": 400, "f": 0}  # an s-class request fills only the s-table
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [CACHE_NAME]
        rows_filled.update(s=0, f=0)
        assert compose() == before
        assert rows_filled == {"s": 0, "f": 0}

    @pytest.mark.parametrize(
        "corrupt",
        ["garbage", "truncated", "empty", "meta=[]", "n_max=0", 'n_max="11"']
        + [f"{key}={value}" for key in ("s_split", "f_split") for value in (0, 50, -3)]
        + ["s_rate=0.0", "f_rate=1.5", "f_rate=nan"],
    )
    @pytest.mark.parametrize(
        "argv", [["optimize", "--class", "s", "--n", "10"], ["bounds", "--k", "3"]]
    )
    def test_corrupt_table_cache_is_rebuilt(self, tmp_path, capsys, argv, corrupt):
        if argv[0] == "optimize":  # an s-class fill writes only the base f row: seed f rows to corrupt
            save_tables(build_tables(11), str(tmp_path / "cold"))
        assert main(argv + ["--cache", str(tmp_path / "cold")]) == 0
        cold = capsys.readouterr().out
        (path,) = (tmp_path / "cold").iterdir()
        cache = tmp_path / "cache"
        cache.mkdir()
        target = cache / path.name
        data = path.read_bytes()
        bad = {"garbage": b"\x93not a table" * 40, "truncated": data[: len(data) // 2], "empty": b""}
        if corrupt in bad:
            target.write_bytes(bad[corrupt])
        else:  # a loadable file with one wrong entry
            arrays = dict(np.load(path, allow_pickle=False))
            key, value = corrupt.split("=")
            meta = json.loads(str(arrays["meta"]))
            if key == "meta":
                arrays["meta"] = value
            elif key == "n_max":
                arrays["meta"] = json.dumps(dict(meta, n_max=json.loads(value)))
            else:
                arrays[key][-1] = float(value)
            np.savez(target, **arrays)
        assert main(argv + ["--cache", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert captured.err.startswith(f"warning: rebuilding table cache {target}: ")
        assert captured.err.count("\n") == 1
        assert load_tables(str(target)).n_max == load_tables(str(path)).n_max
        assert [p.name for p in cache.iterdir()] == [path.name]

    def test_larger_cache_serves_smaller_optimize(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        argv = ["optimize", "--class", "g", "--n", "10", "--table", str(table), "--cache"]
        assert main(argv + [str(tmp_path / "cold")]) == 0
        cold = capsys.readouterr().out, table.read_text()
        big = tmp_path / "big"
        assert main(["optimize", "--class", "g", "--n", "40", "--cache", str(big)]) == 0
        (path,) = big.iterdir()
        capsys.readouterr()
        assert main(argv + [str(big)]) == 0
        assert (capsys.readouterr().out, table.read_text()) == cold
        assert list(big.iterdir()) == [path]
        assert load_tables(str(path)).n_max == 41

    def test_optimize_s_then_f_fills_only_the_missing_f_rows(self, tmp_path, capsys, rows_filled):
        cache = str(tmp_path / "cache")
        out = {}
        for cls, n in (("s", 300), ("f", 200)):
            rows_filled.update(s=0, f=0)
            assert main(["optimize", "--class", cls, "--n", str(n), "--cache", cache]) == 0
            out[cls] = rows_filled.copy(), capsys.readouterr().out
        assert out["s"][0] == {"s": 300, "f": 0}
        assert out["f"][0] == {"s": 0, "f": 200}  # from the s rows the file holds
        rows_filled.update(s=0, f=0)
        assert main(["optimize", "--class", "s", "--n", "300", "--cache", cache]) == 0
        assert rows_filled == {"s": 0, "f": 0}
        assert capsys.readouterr().out == out["s"][1]
        path = tmp_path / "cache" / CACHE_NAME
        assert [p.name for p in path.parent.iterdir()] == [CACHE_NAME]
        assert (load_tables(str(path)).n_max, load_tables(str(path)).f_max) == (301, 201)
        assert main(["optimize", "--class", "f", "--n", "200", "--cache", str(tmp_path / "cold")]) == 0
        assert capsys.readouterr().out == out["f"][1]

    @pytest.mark.parametrize("corrupt", ["f_max=12", "f_rate[:-1]", "f_split[:-1]"])
    def test_cache_with_bad_f_rows_is_rebuilt(self, tmp_path, capsys, corrupt):
        """A file declaring more f rows than s rows, or holding fewer f rows
        than it declares, is rebuilt with the usual warning."""
        argv = ["optimize", "--class", "f", "--n", "10", "--cache", str(tmp_path)]
        path = save_tables(build_tables(11), str(tmp_path))
        arrays = dict(np.load(path, allow_pickle=False))
        if corrupt == "f_max=12":
            arrays["meta"] = json.dumps(dict(json.loads(str(arrays["meta"])), f_max=12))
        else:
            key = corrupt.removesuffix("[:-1]")
            arrays[key] = arrays[key][:-1]
        np.savez(path, **arrays)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith(f"warning: rebuilding table cache {path}: ")
        assert captured.err.count("\n") == 1
        assert main(argv) == 0
        assert capsys.readouterr() == (captured.out, "")
        assert load_tables(path).f_max == 11

    def test_identity_message_prints_plain_floats(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        doc = {"schema_version": 1, "class": "s", "n": 1, "steps": [1.4142135623730951], "rate": 0.4}
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 4
        err = capsys.readouterr().err
        assert "=0.4142135623730951" in err
        assert "np.float64(" not in err

    @pytest.mark.parametrize("key,value", [("construction", 5), ("construction", ["e"]), ("provenance", 7)])
    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_non_string_text_field_exit_4(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "h.json"
        main(["compose", "(e |> e)", "--class", "f", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc[key] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(out)]) == 4
        assert capsys.readouterr().err == f"error: {key}: expected a string, got {value!r}\n"

    def test_conjectured_schedule_verifies_without_certification(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["compose", "const_s(5)", "--class", "s", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), "--battery", "20", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conjectured"] is True
        assert doc["passed"] is True
        assert doc["certified"] is False

    @pytest.mark.parametrize("depth", [988, 990, dsl.MAX_NESTING])
    def test_deep_nesting_composes(self, tmp_path, capsys, depth):
        out = tmp_path / "h.json"
        assert main(["compose", _nested(depth), "--class", "s", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["n"], doc["construction"]) == (depth, _nested(depth))

    def test_nesting_beyond_the_cap_is_a_parse_error_at_the_paren(self, capsys):
        assert main(["compose", _nested(dsl.MAX_NESTING + 1), "--class", "s"]) == 2
        assert capsys.readouterr().err == (
            f"error: syntax error at position {dsl.MAX_NESTING}: "
            f"expression nesting deeper than {dsl.MAX_NESTING}\n"
        )

    def test_verify_deep_construction(self, tmp_path, capsys):
        h = empty_schedule(CompClass.S)
        for _ in range(990):
            h = join(JoinOp.SJOIN, h, empty_schedule(CompClass.S))
        path = tmp_path / "deep.json"
        path.write_text(dumps_schedule(h, construction=_nested(990)))
        assert main(["verify", str(path), "--battery", "5"]) == 0

    def test_deep_nesting_is_a_parse_error(self, capsys):
        text = "(e >< e)"
        for _ in range(6000):
            text = f"({text} >< e)"
        assert main(["compose", text, "--class", "s"]) == 2


# ---------------------------------------------------------------------------
# Fuzzing: every input ends in a documented exit code, never a traceback
# ---------------------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda sub: st.lists(sub, max_size=3) | st.dictionaries(st.text(max_size=4), sub, max_size=3),
    max_leaves=6,
)
_JUNK = st.text(st.sampled_from("()<>|eE3-+@é١ \t\u3000,=:") | st.characters(), min_size=1, max_size=3)

_MACROS = st.builds("{}({})".format, st.sampled_from(dsl.MACRO_NAMES), st.integers(0, 12))
_OVER_CAP = st.sampled_from(["silver(21)", "obss(20001)", "dshort(100001)", "const_s(100001)"])
_EXPRESSIONS = st.recursive(
    st.just("e") | _MACROS | _OVER_CAP,
    lambda sub: st.builds("({} {} {})".format, sub, st.sampled_from(["><", "|>", "<|", "⋈", "▷", "◁"]), sub),
    max_leaves=8,
)

_BASES = {"s": "silver(2)", "f": "((e >< e) |> (e |> e))", "g": "obsg(3)"}
_SCHEDULE_KEYS = ("schema_version", "class", "n", "steps", "rate", "construction", "provenance")
_TOLERANCES = st.floats(1e-12, 1e-3) | st.floats(1e-300, 1e300) | _JSON_VALUES
_CONFIGS = st.builds(
    lambda extra, doc: {**extra, **doc},
    st.just({}) | st.dictionaries(st.text(max_size=6), _JSON_VALUES, min_size=1, max_size=1),
    st.fixed_dictionaries(
        {"battery": st.integers(1, 16)},
        optional={"seed": st.integers(-3, 2**70) | _JSON_VALUES}
        | dict.fromkeys(("identity_tol", "slack_tol", "tight_tol", "q_tol"), _TOLERANCES),
    ),
)

_NO_DIGITS = st.text(st.sampled_from("abcxyz.-+ _;:=,"), max_size=5)  # never a large d
_NUMBERS = st.one_of(
    st.floats().map(repr), st.integers().map(str), st.sampled_from(["inf", "-inf", "nan", "1e308"]), _NO_DIGITS
)
_PARAMETERS = {
    "a": st.floats(0, 1).map(repr) | _NUMBERS,
    "delta": st.floats(0, 10).map(repr) | _NUMBERS,
    "d": st.integers(-3, 16).map(str) | _NO_DIGITS,
    "seed": st.integers(-3, 2**70).map(str) | _NO_DIGITS,
    "x": _NUMBERS,
}
# a function takes its own keys three times as often as the foreign key ``x``
_FUNCTION_KEYS = {"quad": ["a"] * 3, "huber": ["delta"] * 3, "random": ["d", "seed"] * 3, "bogus": [], "": []}
_FUNCTIONS = st.sampled_from(list(_FUNCTION_KEYS)).flatmap(
    lambda kind: st.lists(
        st.sampled_from(_FUNCTION_KEYS[kind] + ["x"]).flatmap(lambda key: _PARAMETERS[key].map(f"{key}={{}}".format)),
        max_size=2,
    ).map(lambda params: f"{kind}:{','.join(params)}" if params else kind)
)


_CACHES = st.sampled_from([None, "fresh", "file", "under-file", "garbage", "directory"])


def _cache_argv(root, kind):
    """``--cache`` in a new directory under ``root`` of one ``kind``: the
    directory itself (``fresh``), a file (``file``), a path under a file
    (``under-file``), or the directory holding a garbage table file
    (``garbage``) or a directory in the table file's place (``directory``);
    no flag for ``None``."""
    if kind is None:
        return []
    base = tempfile.mkdtemp(dir=root)
    if kind in ("file", "under-file"):
        path = os.path.join(base, "plain")
        with open(path, "w") as fh:
            fh.write("not a directory")
        return ["--cache", path if kind == "file" else os.path.join(path, "tables")]
    if kind == "garbage":
        with open(os.path.join(base, CACHE_NAME), "wb") as fh:
            fh.write(b"garbage")
    elif kind == "directory":
        os.mkdir(os.path.join(base, CACHE_NAME))
    return ["--cache", base]


# where an output file cannot go, and the empty path, which is refused:
# (kind, exit code)
_OUT_PATHS = st.sampled_from([("directory", 4), ("under-file", 4), ("empty", 4)])


def _out_path(root, kind):
    """An output path in a new directory under ``root``: the directory
    itself, a path under a plain file, or ``""``."""
    base = tempfile.mkdtemp(dir=root)
    if kind == "directory":
        return base
    if kind == "under-file":
        path = os.path.join(base, "plain")
        with open(path, "w") as fh:
            fh.write("not a directory")
        return os.path.join(path, "out.csv")
    return ""


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """One schedule file per class, and scratch room for edited copies."""
    root = tmp_path_factory.mktemp("fuzz")
    for cls, expr in _BASES.items():
        schedule, ast = dsl.compile_expression(expr)
        (root / f"{cls}.json").write_text(dumps_schedule(schedule, construction=dsl.format_expr(ast)))
    return root


@pytest.mark.parametrize(
    "argv",
    [
        ["compose", "silver(2)", "--out"],
        ["optimize", "--class", "f", "--n", "4", "--out"],
        ["optimize", "--class", "s", "--n", "4", "--table"],
        ["optimize", "--class", "g", "--n", "4", "--out", "{dir}/h.json", "--table"],
        ["run", "{dir}/s.json", "--out"],
        ["bounds", "--k", "2", "--out"],
    ],
)
def test_empty_output_path_is_refused(fuzz_dir, capsys, argv):
    """An empty ``--out`` or ``--table`` exits 4 with an error naming the
    flag, before anything is computed, written or printed."""
    argv = [a.format(dir=fuzz_dir) for a in argv] + [""]
    before = sorted(fuzz_dir.iterdir())
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[-2]}: empty path\n"
    assert sorted(fuzz_dir.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--class", "f", "--n", "4", "--table", "{tmp}/t.csv", "--out", "{tmp}"],
        ["optimize", "--class", "s", "--n", "4", "--out", "{tmp}/h.json", "--table", "{tmp}"],
        ["optimize", "--class", "g", "--n", "4", "--out", "{tmp}"],
        ["compose", "silver(2)", "--out", "{tmp}"],
        ["run", "{dir}/s.json", "--out", "{tmp}"],
        ["bounds", "--k", "2", "--out", "{tmp}"],
        ["optimize", "--class", "f", "--n", "3", "--table", "{tmp}/x.txt", "--out", "{tmp}/x.txt"],
    ],
)
def test_unopenable_output_path_fails_before_any_output(fuzz_dir, tmp_path, capsys, argv):
    """An output path that cannot be opened (here a directory), or that names
    the file of another output flag, exits 4 with an error naming its flag;
    nothing is printed and no output file is left, the one this call created
    for the other output of the same command included."""
    argv = [a.format(dir=fuzz_dir, tmp=tmp_path) for a in argv]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[-2]}: ")
    assert not any(tmp_path.iterdir())


def test_two_flags_naming_one_file_are_refused(tmp_path, monkeypatch, capsys):
    """``--table`` and ``--out`` that name one regular file (an existing one,
    through another spelling or a symlink) exit 4 with an error naming both
    flags; the file keeps its bytes."""
    table = tmp_path / "x.txt"
    table.write_bytes(b"old bytes\n")
    (tmp_path / "link.txt").symlink_to(table)
    monkeypatch.chdir(tmp_path)
    for out in ("./x.txt", "link.txt"):
        assert main(["optimize", "--class", "f", "--n", "3", "--table", str(table), "--out", out]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --out: names the same file as --table\n")
        assert table.read_bytes() == b"old bytes\n"


def test_unopenable_output_path_keeps_an_existing_file(tmp_path, capsys):
    """An existing output file is not emptied when another output path of
    the same command cannot be opened."""
    table = tmp_path / "t.csv"
    table.write_bytes(b"old bytes\n")
    assert main(["optimize", "--class", "f", "--n", "4", "--table", str(table), "--out", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ")
    assert table.read_bytes() == b"old bytes\n"


def test_output_replaces_a_longer_existing_file(tmp_path, capsys):
    assert main(["compose", "silver(2)"]) == 0
    want = capsys.readouterr().out
    path = tmp_path / "h.json"
    path.write_text("x" * 4 * len(want))
    assert main(["compose", "silver(2)", "--out", str(path)]) == 0
    assert path.read_text() == want


def _cli_env() -> dict:
    """The environment of a CLI subprocess: this tree's sources first on the
    path, ``STEPWEAVER_CACHE`` unset."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_outputs_to_dev_stdout_in_a_pipe(tmp_path, capsys):
    """``/dev/stdout`` into a pipe cannot be truncated; both outputs reach it."""
    argv = ["optimize", "--class", "f", "--n", "3"]
    assert main(argv + ["--out", str(tmp_path / "h.json"), "--table", str(tmp_path / "t.csv")]) == 0
    capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "stepweaver.cli", *argv, "--out", "/dev/stdout", "--table", "/dev/stdout"],
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    for name in ("t.csv", "h.json"):
        assert (tmp_path / name).read_text() in proc.stdout
    assert "wrote rate table /dev/stdout\n" in proc.stdout and "wrote /dev/stdout: f-schedule n=3" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize(
    "argv",
    [
        ["compose", "silver(1)", "--out", "/dev/stdout"],
        ["bounds", "--k", "2", "--out", "/dev/stdout"],
        ["optimize", "--class", "f", "--n", "3", "--out", "/dev/stdout", "--table", "/dev/stdout"],
    ],
)
def test_outputs_to_dev_stdout_in_a_regular_file(tmp_path, capsys, argv):
    """``/dev/stdout`` redirected to a regular file gets, byte for byte, what
    a pipe gets: what the command prints, then each output and its notice."""
    env = _cli_env()
    command = [sys.executable, "-m", "stepweaver.cli", *argv]
    piped = subprocess.run(command, env=env, capture_output=True, timeout=120)
    assert (piped.returncode, piped.stderr) == (0, b"")
    path = tmp_path / "stdout.txt"
    with open(path, "wb") as fh:
        assert subprocess.run(command, env=env, stdout=fh, timeout=120).returncode == 0
    assert path.read_bytes() == piped.stdout
    # the same outputs into files, in process
    assert main([str(tmp_path / argv[i - 1][2:]) if a == "/dev/stdout" else a for i, a in enumerate(argv)]) == 0
    printed = "".join(line for line in capsys.readouterr().out.splitlines(True) if not line.startswith("wrote "))
    last = piped.stdout.splitlines()[-1]
    assert piped.stdout.startswith(printed.encode()) and last.startswith(b"wrote ") and b"/dev/stdout" in last
    for name in ("out", "table"):
        if (tmp_path / name).exists():
            assert (tmp_path / name).read_bytes() in piped.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_a_reader_that_stops_after_one_line_ends_the_command_quietly():
    """A reader that closes stdout's pipe after the first line ends the
    output without an ``error:`` line or the interpreter's own complaint,
    and the command exits 0.  The output (95 KB) is more than the pipe holds
    (64 KiB on Linux) beside one line, so the command writes into the
    closed pipe."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "stepweaver.cli", "bounds", "--k", "9", "--out", "/dev/stdout"],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,  # an unbuffered reader takes the first line and no more
    )
    with proc:
        assert proc.stdout.readline().startswith(b"p,")
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=120)) == (b"", 0)


@pytest.mark.parametrize("failed", [True, False])
def test_a_closed_reader_keeps_the_verify_exit_code(tmp_path, failed):
    """``verify`` into a pipe whose read end is closed before it starts exits
    as its report says, 1 for a failed one and 0 for a pass, with nothing on
    stderr."""
    path = tmp_path / "h.json"
    path.write_text(dumps_schedule(_bogus_g_schedule() if failed else obs_f(3, build_tables(4))))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stepweaver.cli", "verify", str(path), "--battery", "40"],
            env=_cli_env(),
            stdout=write,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.stderr, proc.returncode) == (b"", 1 if failed else 0)


# Imports the package, constructs schedules (compose into argv[1], optimize,
# bounds), then runs the command argv[2:]; prints the constructs' exit codes,
# whether numpy.random was loaded before and after the command, its exit
# code and its output.
_FOOTPRINT = """
import contextlib, io, json, sys
import stepweaver
from stepweaver import cli

def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

constructs = (["compose", "silver(3)", "--out", sys.argv[1]], ["optimize", "--class", "g", "--n", "20"], ["bounds", "--k", "3"])
codes = [call(argv)[0] for argv in constructs]
before = "numpy.random" in sys.modules
code, out = call(sys.argv[2:])
print(json.dumps([codes, before, "numpy.random" in sys.modules, code, out]))
"""


@pytest.mark.parametrize("argv", [["verify"], ["run", "--function", "random:d=3,seed=1"]], ids=["verify", "run-random"])
def test_numpy_random_loads_at_the_first_draw(tmp_path, capsys, argv):
    """A fresh interpreter that imports the package and runs compose,
    optimize and bounds has not loaded ``numpy.random``; ``verify`` (its
    battery) and ``run --function random:`` load it at their first draw and
    print what they print in a process that had loaded it already."""
    path = str(tmp_path / "h.json")
    command = [argv[0], path, *argv[1:]]
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, path, *command], env=_cli_env(), capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    codes, before, after, code, out = json.loads(proc.stdout)
    assert (codes, before, after, code) == ([0, 0, 0], False, True, 0)
    importlib.import_module("numpy.random")  # in this process, loaded before the command runs
    assert main(command) == 0
    assert capsys.readouterr().out == out


def _run_cli(argv):
    """``main(argv)`` with ``STEPWEAVER_CACHE`` unset: its exit code and
    output.  Any exception other than argparse's exit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop(CACHE_ENV_VAR, None)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    assert code in range(6), (argv, code, err.getvalue())
    if code >= 2:
        lines = err.getvalue().splitlines()
        assert any(line.startswith("error: ") or ": error: " in line for line in lines), (argv, lines)
    return code, out.getvalue()


class TestCliFuzz:
    @given(
        _EXPRESSIONS,
        st.lists(st.tuples(st.integers(0, 400), _JUNK), max_size=2),
        st.sampled_from([[], ["--class", "s"], ["--class", "f"], ["--class", "g"]]),
    )
    def test_compose(self, expr, junk, cls):
        for at, text in junk:
            expr = expr[:at] + text + expr[at:]
        _run_cli(["compose", *cls, "--", expr])

    @given(
        st.sampled_from(sorted(_BASES)),
        st.sampled_from(["remove", "add", "retype"]),
        st.sampled_from(_SCHEDULE_KEYS) | st.text(max_size=6),
        _JSON_VALUES,
    )
    def test_verify_edited_schedule_file(self, fuzz_dir, cls, edit, key, value):
        doc = json.loads((fuzz_dir / f"{cls}.json").read_text())
        if edit == "remove":
            assume(key in doc)
            del doc[key]
        elif edit == "add":
            assume(key not in doc)
            doc[key] = value
        else:
            assume(key in doc and type(value) is not type(doc[key]))
            doc[key] = value
        path = fuzz_dir / "edited.json"
        path.write_text(json.dumps(doc))
        _run_cli(["verify", str(path), "--battery", "4"])

    @given(st.sampled_from(sorted(_BASES)), _CONFIGS, st.booleans())
    def test_verify_random_config(self, fuzz_dir, cls, doc, as_json):
        path = fuzz_dir / "config.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", str(fuzz_dir / f"{cls}.json"), "--config", str(path)]
        code, out = _run_cli(argv + ["--json"] * as_json)
        if as_json and code < 2:
            json.loads(out, parse_constant=_refuse_constant)

    @given(
        st.sampled_from(sorted(_BASES)),
        _FUNCTIONS,
        st.none() | _NUMBERS | st.lists(st.floats().map(repr), min_size=1, max_size=3).map(",".join),
    )
    def test_run_function(self, fuzz_dir, cls, spec, x0):
        argv = ["run", str(fuzz_dir / f"{cls}.json"), "--function", spec]
        _run_cli(argv if x0 is None else argv + [f"--x0={x0}"])

    @given(st.sampled_from(sorted(_BASES)), _OUT_PATHS)
    def test_run_out(self, fuzz_dir, cls, out):
        kind, expected = out
        code, _ = _run_cli(["run", str(fuzz_dir / f"{cls}.json"), "--out", _out_path(fuzz_dir, kind)])
        assert code == expected

    @given(st.sampled_from("fgs"), st.integers(0, 16), st.sampled_from(["--out", "--table"]), _OUT_PATHS)
    def test_optimize_out_and_table(self, fuzz_dir, cls, n, flag, out):
        kind, expected = out
        code, _ = _run_cli(["optimize", "--class", cls, "--n", str(n), flag, _out_path(fuzz_dir, kind)])
        assert code == expected

    @given(st.sampled_from(sorted(_BASES.values())), _OUT_PATHS)
    def test_compose_out(self, fuzz_dir, expr, out):
        kind, expected = out
        code, stdout = _run_cli(["compose", "--out", _out_path(fuzz_dir, kind), "--", expr])
        assert code == expected
        assert stdout == ""

    @given(st.integers(0, 3), _OUT_PATHS)
    def test_bounds_out(self, fuzz_dir, k, out):
        kind, expected = out
        code, stdout = _run_cli(["bounds", "--k", str(k), "--out", _out_path(fuzz_dir, kind)])
        assert code == expected
        assert stdout == ""  # refused before the constants are printed

    @given(
        st.sampled_from(sorted(_BASES)),
        st.lists(_JSON_VALUES, max_size=3) | st.text(max_size=6) | st.none() | st.integers() | st.floats(),
    )
    def test_verify_config_not_an_object(self, fuzz_dir, cls, doc):
        path = fuzz_dir / "config.json"
        path.write_text(json.dumps(doc))
        code, _ = _run_cli(["verify", str(fuzz_dir / f"{cls}.json"), "--config", str(path)])
        assert code == 4

    @given(st.sampled_from("fgs"), st.integers(0, 64) | st.integers(optimizer.MAX_OBS_LEN + 1, 10**9), _CACHES)
    def test_optimize(self, fuzz_dir, cls, n, cache):
        _run_cli(["optimize", "--class", cls, "--n", str(n), *_cache_argv(fuzz_dir, cache)])

    @given(
        st.tuples(st.integers(0, 3) | st.integers(14, 10**6), st.booleans()) | st.just((13, False)),
        _CACHES,
    )
    def test_bounds(self, fuzz_dir, k_force, cache):
        k, force = k_force  # never --k 13 --force: that fills 16383 rows
        _run_cli(["bounds", "--k", str(k), *["--force"] * force, *_cache_argv(fuzz_dir, cache)])
