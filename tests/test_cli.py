"""Tests for the command-line front end: exit codes, reports, determinism."""

import csv
import dataclasses
import json

import pytest

from vnlab.cli import (COMMANDS, CliInputError, build_config, main,
                       read_points_csv)

# the window-count table the dataset-arith command must reproduce exactly
NINE_CELLS = {
    (42, 28): (147_884, 3_245, 7_271),
    (42, 14): (148_038, 3_399, 7_425),
    (42, 7): (148_115, 3_476, 7_502),
}


def run(args):
    return main(list(args))


# ---------------------------------------------------------------------------
# dataset arithmetic
# ---------------------------------------------------------------------------


class TestDatasetArith:
    def test_nine_cells_pass(self, tmp_path, capsys):
        out = tmp_path / "arith.json"
        assert run(["dataset-arith", "--json", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        got = {}
        for row in report["results"]:
            key = (row["history"], row["predict"])
            got.setdefault(key, {})[row["split"]] = row["count"]
            assert row["ok"] is True
        for key, (train, val, test) in NINE_CELLS.items():
            assert got[key] == {
                "train": train, "validation": val, "test": test,
            }

    def test_single_region_scales_down(self, tmp_path):
        out = tmp_path / "arith1.json"
        code = run(["dataset-arith", "--set", "regions=1",
                    "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        counts = {(r["history"], r["predict"], r["split"]): r["count"]
                  for r in report["results"]}
        assert counts[(42, 28, "train")] == 147_884 // 11
        assert counts[(42, 7, "test")] == 7_502 // 11

    def test_splits_echoed(self, tmp_path):
        out = tmp_path / "arith2.json"
        run(["dataset-arith", "--json", str(out), "--quiet"])
        report = json.loads(out.read_text())
        days = {s["name"]: s["days"] for s in report["splits"]}
        assert days == {"train": 13_514, "validation": 365, "test": 731}


# ---------------------------------------------------------------------------
# verify-deepsets
# ---------------------------------------------------------------------------


class TestVerifyDeepsets:
    def test_clean_run_passes(self, tmp_path):
        out = tmp_path / "ds.json"
        code = run(["verify-deepsets", "--set", "seeds=6",
                    "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["failing_cases"] == []
        assert len(report["results"]) == 6
        assert all(r["max_err"] <= 1e-12 for r in report["results"])
        assert report["config"]["seeds"] == 6  # echo includes overrides

    def test_injected_fault_fails_with_exit_2(self, tmp_path):
        out = tmp_path / "fault.json"
        code = run(["verify-deepsets", "--set", "seeds=4",
                    "--set", "inject_fault=true", "--json", str(out),
                    "--quiet"])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert len(report["failing_cases"]) == 4
        assert report["config"]["inject_fault"] is True

    def test_stdout_lines(self, capsys):
        assert run(["verify-deepsets", "--set", "seeds=2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # one per case plus the summary
        assert lines[-1].startswith("PASS verify-deepsets")

    def test_quiet_prints_only_summary(self, capsys):
        run(["verify-deepsets", "--set", "seeds=2", "--quiet"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("PASS")


# ---------------------------------------------------------------------------
# verify-kernel
# ---------------------------------------------------------------------------


class TestVerifyKernel:
    def test_exact_grid_passes_and_csv_schema(self, tmp_path):
        out = tmp_path / "kernel.csv"
        code = run(["verify-kernel", "--set", "seeds=4",
                    "--csv", str(out), "--quiet"])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phase", "case", "n", "d", "m", "feature_kind",
                           "value", "ok"]
        body = rows[1:]
        assert len(body) == 8  # 4 cases x 2 feature kinds
        assert all(r[0] == "exact" and r[7] == "true" for r in body)
        assert all(float(r[6]) <= 1e-12 for r in body)

    def test_sweep_rows_informational(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(["verify-kernel", "--set", "seeds=2", "--set", "sweep=true",
                    "--set", "sweep_m=16,64", "--set", "sweep_pairs=30",
                    "--set", "sweep_seeds=2", "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        sweep = report["sweep"]
        assert [p["m"] for p in sweep] == [16, 64]
        assert sweep[1]["median_rel_err"] < sweep[0]["median_rel_err"]


# ---------------------------------------------------------------------------
# verify-deep
# ---------------------------------------------------------------------------


class TestVerifyDeep:
    def test_default_modes_pass(self, tmp_path):
        out = tmp_path / "deep.json"
        code = run(["verify-deep", "--set", "seeds=3",
                    "--set", "sweep_seeds=2", "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["trace_time2_exact"] is True
        medians = report["sweep_medians"]
        assert all(a > b for a, b in zip(medians, medians[1:]))
        assert report["worst_oracle_err"] <= 1e-10

    def test_each_oracle_program_runs_once(self, monkeypatch):
        # the oracle phase takes its output and its layer-2 trace from one
        # run; the sweep's runs go through run_and_report
        from vnlab import cli, mpnnvn
        runs = []

        def counting_run_program(s0, prog, observe=None):
            runs.append(len(prog.layers))
            return mpnnvn.run_program(s0, prog, observe)

        def no_execute(self, g, X):
            raise AssertionError("verify-deep ran a program twice")

        monkeypatch.setattr(cli, "run_program", counting_run_program)
        monkeypatch.setattr(mpnnvn.LayerProgram, "execute", no_execute)
        assert run(["verify-deep", "--set", "seeds=3",
                    "--set", "sweep_seeds=1", "--quiet"]) == 0
        assert runs == [6 + 2] * 3  # one n + 2 layer program per seed, n=6

    def test_no_certified_instance_exits_1(self, capsys):
        # on a line at most two points are each separable from the rest
        assert run(["verify-deep", "--set", "n=3", "--set", "d=1",
                    "--set", "seeds=1", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: no certified instance for n=3, d=1, min_delta=0.1:")

    @pytest.mark.parametrize("settings, factor", [
        (["c_factors=1e308"], "1e+308"),
        (["c_factors=2,1e308", "min_delta=0.05"], "1e+308"),
    ])
    def test_infinite_amplification_exits_1(self, capsys, settings, factor):
        args = ["verify-deep", "--quiet"]
        for item in settings:
            args += ["--set", item]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: c_factors value {factor} over "
                                   "min_delta=")
        assert lines[0].endswith("gives an infinite amplification")

    def test_gatv2_mode(self, tmp_path):
        out = tmp_path / "deep2.json"
        code = run(["verify-deep", "--set", "seeds=1",
                    "--set", "sweep_seeds=1", "--set", "gatv2=true",
                    "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["gatv2"] is True
        gatv2 = report["gatv2"]
        assert gatv2["ok"] is True
        assert gatv2["achieved_gap"] == pytest.approx(1.7, abs=1e-12)
        assert gatv2["middle_cluster_weight"] >= 0.99
        assert gatv2["program_bounds_ok"] is True
        assert gatv2["program_max_abs"] < 1e-5
        assert report["results"][-1]["phase"] == "gatv2"


# ---------------------------------------------------------------------------
# check-separability
# ---------------------------------------------------------------------------


class TestCheckSeparability:
    def test_square_plus_centroid(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("1,0\n0,1\n-1,0\n0,-1\n0,0\n")
        out = tmp_path / "sep.json"
        code = run(["check-separability", str(pts),
                    "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        flags = [r["separable"] for r in report["results"]]
        assert flags == [True, True, True, True, False]
        assert report["all_separable"] is False
        assert report["delta"] is None
        assert report["suggested_amplification"] is None

    def test_all_separable_reports_delta_and_c(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("1,0\n0,1\n-1,0\n0,-1\n")
        out = tmp_path / "sep.json"
        assert run(["check-separability", str(pts),
                    "--json", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert report["all_separable"] is True
        assert report["delta"] == pytest.approx(1.0)
        assert report["suggested_amplification"] > 0

    def test_malformed_csv_exits_1(self, tmp_path, capsys):
        pts = tmp_path / "bad.csv"
        pts.write_text("1,2\n3\n")
        assert run(["check-separability", str(pts)]) == 1
        assert "columns" in capsys.readouterr().err

    def test_non_numeric_cell_exits_1(self, tmp_path):
        pts = tmp_path / "bad.csv"
        pts.write_text("1,2\n3,oops\n")
        assert run(["check-separability", str(pts)]) == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_1(self, tmp_path, capsys, cell):
        pts = tmp_path / "bad.csv"
        pts.write_text(f"1,0\n0,{cell}\n-1,0\n")
        assert run(["check-separability", str(pts)]) == 1
        err = capsys.readouterr().err
        assert f"{pts}:2: non-finite cell" in err
        assert "Traceback" not in err

    def test_read_points_rejects_non_finite(self, tmp_path):
        pts = tmp_path / "bad.csv"
        pts.write_text("1,0\nnan,1\n")
        with pytest.raises(CliInputError, match=r"bad.csv:2: non-finite"):
            read_points_csv(str(pts))

    def test_error_line_counts_blank_lines(self, tmp_path):
        pts = tmp_path / "bad.csv"
        pts.write_text("1,0\n\n0,1\ninf,0\n")
        with pytest.raises(CliInputError, match=r"bad.csv:4: non-finite"):
            read_points_csv(str(pts))

    def test_missing_file_exits_1(self, tmp_path):
        assert run(["check-separability", str(tmp_path / "nope.csv")]) == 1

    def test_single_point_exits_1(self, tmp_path):
        pts = tmp_path / "one.csv"
        pts.write_text("1,2\n")
        assert run(["check-separability", str(pts)]) == 1

    def test_read_points_shapes(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("1.5,2\n-3,0.25\n")
        X = read_points_csv(str(pts))
        assert X.shape == (2, 2)
        assert X[1, 1] == 0.25


# ---------------------------------------------------------------------------
# config plumbing and exit-code contract
# ---------------------------------------------------------------------------


class TestConfigPlumbing:
    def test_defaults(self):
        cfg = build_config("verify-deepsets", None, [])
        assert cfg == {"max_n": 16, "max_d": 8, "seeds": 50, "tol": 1e-12,
                       "inject_fault": False}

    def test_file_then_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\nseeds = 9\nmax_n=4\n\n")
        cfg = build_config("verify-deepsets", str(path), ["seeds=2"])
        assert cfg["seeds"] == 2  # command line beats the file
        assert cfg["max_n"] == 4
        assert cfg["max_d"] == 8  # untouched default

    def test_unknown_key_exits_1(self):
        assert run(["verify-deepsets", "--set", "bogus=1"]) == 1

    def test_bad_value_exits_1(self):
        assert run(["verify-deepsets", "--set", "seeds=many"]) == 1

    def test_bad_config_line_exits_1(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seeds\n")
        assert run(["verify-deepsets", "--config", str(path)]) == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert run(["fabricate-results"]) == 1
        capsys.readouterr()

    def test_missing_subcommand_exits_1(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_bool_config_forms(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("inject_fault = yes\n")
        cfg = build_config("verify-deepsets", str(path), [])
        assert cfg["inject_fault"] is True
        cfg = build_config("verify-deepsets", str(path), ["inject_fault=off"])
        assert cfg["inject_fault"] is False


class TestConfigRanges:
    """A value its command cannot check with is a usage error, not a run."""

    OUT_OF_RANGE = [
        # counts below the smallest value their command runs with
        ("verify-deepsets", ["seeds=0"]),
        ("verify-kernel", ["seeds=0"]),
        ("verify-deepsets", ["max_n=1"]),
        ("verify-deepsets", ["max_d=0"]),
        ("verify-kernel", ["max_m=0"]),
        ("verify-kernel", ["seed=-1"]),
        ("verify-kernel", ["sweep=true", "sweep_pairs=0"]),
        ("verify-kernel", ["sweep=true", "sweep_seeds=0"]),
        ("verify-deep", ["n=0"]),
        ("verify-deep", ["n=1"]),
        ("verify-deep", ["d=0"]),
        # tolerances, eps and band: finite and positive, eps below 1
        ("verify-deepsets", ["tol=nan"]),
        ("verify-kernel", ["tol=-1e-12"]),
        ("verify-deep", ["tol_oracle=inf"]),
        ("verify-deep", ["eps=1"]),
        ("check-separability", ["eps=0"]),
        ("check-separability", ["band=-1e-6"]),
        # a list that would check nothing
        ("verify-deep", ["c_factors="]),
    ]

    @pytest.mark.parametrize(
        "command, settings", OUT_OF_RANGE,
        ids=[f"{c}:{','.join(s)}" for c, s in OUT_OF_RANGE])
    def test_out_of_range_exits_1(self, tmp_path, capsys, command, settings):
        args = [command]
        if command == "check-separability":
            pts = tmp_path / "pts.csv"
            pts.write_text("1,0\n0,1\n-1,0\n0,-1\n")
            args.append(str(pts))
        for item in settings:
            args += ["--set", item]
        assert run(args + ["--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        key = settings[-1].partition("=")[0]
        assert lines[0].startswith(f"error: bad value for {key}:")

    def test_smallest_values_run(self):
        cfg = build_config("verify-deep", None,
                           ["n=2", "d=1", "c_factors=3", "eps=0.5"])
        assert (cfg["n"], cfg["d"], cfg["c_factors"]) == (2, 1, (3.0,))
        assert run(["verify-deepsets", "--set", "seeds=1", "--set", "max_n=2",
                    "--set", "max_d=1", "--quiet"]) == 0
        assert run(["verify-kernel", "--set", "seeds=1", "--set", "max_n=1",
                    "--set", "max_d=1", "--set", "max_m=1", "--set", "seed=0",
                    "--quiet"]) == 0


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            jp = tmp_path / f"{tag}.json"
            cp = tmp_path / f"{tag}.csv"
            code = run(["verify-deepsets", "--set", "seeds=4",
                        "--json", str(jp), "--csv", str(cp), "--quiet"])
            assert code == 0
            paths.append((jp.read_bytes(), cp.read_bytes()))
        assert paths[0] == paths[1]

    def test_report_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VNLAB_REPORT_DIR", str(tmp_path / "reports"))
        monkeypatch.chdir(tmp_path)
        code = run(["dataset-arith", "--json", "arith.json", "--quiet"])
        assert code == 0
        assert (tmp_path / "reports" / "arith.json").exists()

    def test_absolute_path_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VNLAB_REPORT_DIR", str(tmp_path / "reports"))
        target = tmp_path / "direct.json"
        assert run(["dataset-arith", "--json", str(target), "--quiet"]) == 0
        assert target.exists()
        assert not (tmp_path / "reports" / "direct.json").exists()


class TestUnwritableReport:
    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_missing_directory_exits_1(self, tmp_path, capsys, flag):
        target = tmp_path / "no-such-dir" / "report"
        assert run(["dataset-arith", "--quiet", flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: cannot write {flag[2:]} report {target}: "
                       "No such file or directory\n")

    def test_directory_as_report_exits_1(self, tmp_path, capsys):
        assert run(["dataset-arith", "--quiet", "--json", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write json report {tmp_path}: ")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory",
                                       "missing-dir-under-env"])
    def test_bad_path_fails_before_the_run(self, tmp_path, capsys,
                                           monkeypatch, flag, where):
        target = {"missing-dir": str(tmp_path / "no-such-dir" / "x"),
                  "directory": str(tmp_path),
                  "missing-dir-under-env": "no-such-dir/x"}[where]
        monkeypatch.setenv("VNLAB_REPORT_DIR", str(tmp_path / "reports"))
        assert run(["dataset-arith", flag, target]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # the run never started, so no PASS line
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write")


# cheap settings for every subcommand, plus one run that must fail
TABLE_RUNS = [
    ("verify-deepsets", ["seeds=2"]),
    ("verify-deepsets", ["seeds=2", "inject_fault=true"]),
    ("verify-kernel", ["seeds=2"]),
    ("verify-deep", ["seeds=1", "sweep_seeds=1"]),
    ("check-separability", []),
    ("dataset-arith", []),
]


class TestCommandTable:
    """The envelope, CSV layout and exit code every table entry gets."""

    def test_table_covers_every_subcommand(self):
        assert {c for c, _ in TABLE_RUNS} == set(COMMANDS)

    @pytest.mark.parametrize(
        "command, settings", TABLE_RUNS,
        ids=[f"{c}:{','.join(s)}" for c, s in TABLE_RUNS])
    def test_report_envelope_csv_and_exit_code(self, tmp_path, command,
                                               settings):
        args = [command]
        if command == "check-separability":
            pts = tmp_path / "pts.csv"
            pts.write_text("1,0\n0,1\n-1,0\n0,-1\n0,0\n")
            args.append(str(pts))
        for item in settings:
            args += ["--set", item]
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        code = run(args + ["--json", str(jp), "--csv", str(cp), "--quiet"])
        report = json.loads(jp.read_text())
        # reports stay indented; only program documents are one line
        assert jp.read_text() == json.dumps(report, indent=2,
                                            sort_keys=True) + "\n"
        assert report["format"] == "cli-report/v1"
        assert report["command"] == command
        echo = json.loads(json.dumps(build_config(command, None, settings)))
        assert report["config"] == echo
        assert isinstance(report["pass"], bool)
        with open(cp, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == COMMANDS[command].columns
        assert len(rows) - 1 == len(report["results"]) > 0
        assert code == (0 if report["pass"] else 2)

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # a fault in the package is not a usage error (1): it shows its
        # traceback, then names itself on the last line, and writes nothing
        def broken(cfg, args):
            raise RuntimeError("runner broke")

        monkeypatch.setitem(COMMANDS, "dataset-arith", dataclasses.replace(
            COMMANDS["dataset-arith"], run=broken))
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        assert run(["dataset-arith", "--json", str(jp),
                    "--csv", str(cp)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0] == "Traceback (most recent call last):"
        assert lines[-1] == "internal error: RuntimeError: runner broke"
        assert not jp.exists() and not cp.exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_lists_every_config_key(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            run([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        listed = out.split("config keys (via --config file or --set):\n")[1]
        names = [line.split()[0] for line in listed.splitlines()]
        assert names == sorted(COMMANDS[command].keys)


class TestConsoleEntryPoint:
    def test_installed_script_runs(self):
        import shutil
        import subprocess

        exe = shutil.which("vnlab")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run([exe, "dataset-arith", "--quiet"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_declared_script_runs(self):
        """The ``[project.scripts]`` target resolves and runs, installed or not."""
        import importlib
        import pathlib

        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["vnlab"]
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        assert entry(["dataset-arith", "--quiet"]) == 0
