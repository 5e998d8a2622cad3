import json
import math

import numpy as np
import pytest

from stepweaver import dsl, optimizer
from stepweaver.cli import main
from stepweaver.io import (
    RunConfig,
    ScheduleFileError,
    dumps_schedule,
    load_schedule,
    loads_schedule,
    save_schedule,
)
from stepweaver.optimizer import CACHE_ENV_VAR, CACHE_NAME, load_tables, obs_f
from stepweaver.schedule import CompClass, JoinOp, empty_schedule, join

SQ2 = math.sqrt(2.0)


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

    def test_cache_dir_is_an_unknown_key(self, tmp_path, capsys):
        sched = tmp_path / "h.json"
        main(["compose", "silver(2)", "--class", "s", "--out", str(sched)])
        config = tmp_path / "config.json"
        config.write_text('{"battery": 10, "cache_dir": "/tmp"}')
        assert main(["verify", str(sched), "--config", str(config)]) == 4
        assert "unknown config keys: cache_dir" in capsys.readouterr().err


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
        # steps satisfying the closed-form identities that nevertheless break
        # the gradient-norm inequality: loads cleanly, fails verification
        import numpy as np
        from stepweaver.io import dumps_schedule
        from stepweaver.schedule import StepSchedule

        b = 1.07
        for _ in range(60):
            b = 1.0 + 1.0 / (4.0 * math.sqrt(11.0 + 2.0 * b))
        bogus = StepSchedule(np.array([5.0, b]), CompClass.G, 1.0 / (1.0 + 2.0 * (5.0 + b)))
        out = tmp_path / "bogus.json"
        out.write_text(dumps_schedule(bogus))
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

    def test_io_error_exit_4(self, capsys):
        assert main(["verify", "/nonexistent/file.json"]) == 4

    def test_cap_error_exit_5(self, capsys):
        assert main(["compose", "silver(99)", "--class", "s"]) == 5

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
        "spec,message",
        [
            ("random:d=-2", "random:d: expected a positive integer, got -2"),
            ("random:d=0", "random:d: expected a positive integer, got 0"),
            ("random:d=2,seed=-1", "random:seed: expected a nonnegative integer, got -1"),
        ],
    )
    def test_run_random_out_of_range_is_a_parse_error(self, tmp_path, capsys, spec, message):
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
        rows_filled[0] = 0
        assert compose() == before
        assert rows_filled[0] == 400
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [CACHE_NAME]
        rows_filled[0] = 0
        assert compose() == before
        assert rows_filled[0] == 0

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
            f"error: syntax error at byte {dsl.MAX_NESTING}: "
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
