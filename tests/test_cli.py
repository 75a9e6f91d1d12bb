"""Command-line interface: subcommands, artifacts, and the exit-code contract."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vczsim
from conftest import bundled_benchmark_text, uncertified_from
from vczsim import simulator
from vczsim.cli import EXIT_ABORT, EXIT_FAIL, EXIT_PARSE, EXIT_PASS, build_parser, main
from vczsim.trace_io import read_trace
from vczsim.virtual import QpInfeasibleError

SQUEEZE_TEXT = """
[plant]
catalog = integrator

[obstacle]
center = 5.0 0.0
radius = 0.8

[target]
center = 10.0 0.0
radius = 1.2

[vcz]
r_c = 0.3

[horizon]
t_f = 4.0
dt = 0.002

[shrink]
r_start = 10.5
r_end = 0.8

[controller]
gain = 10.0

[initial_state]
x0 = 0.0 0.0
"""


@pytest.fixture
def benchmark_file(tmp_path):
    path = tmp_path / "benchmark.scn"
    path.write_text(bundled_benchmark_text())
    return path


class TestValidateCommand:
    def test_bundled_benchmark_passes(self, capsys):
        assert main(["validate", "benchmark"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_radius_ordering_failure_names_v4(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(bundled_benchmark_text().replace("r_c = 0.5", "r_c = 1.2"))
        assert main(["validate", str(path)]) == EXIT_FAIL
        assert "V4: FAIL" in capsys.readouterr().out

    def test_malformed_numeric_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(bundled_benchmark_text().replace("t_f = 10.0", "t_f = ten"))
        assert main(["validate", str(path)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_is_parse_error(self, capsys):
        assert main(["validate", "/nonexistent/path.scn"]) == EXIT_PARSE

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "old, new",
        [("epsilon_sat", "qp_h = 1 0 ; 0 -1\nepsilon_sat"), ("t_f = 10.0", "t_f = inf"), ("dt = 0.001", "dt = nan")],
        ids=["qp_h-indefinite", "t_f-inf", "dt-nan"],
    )
    def test_bad_horizon_or_cost_is_parse_error(self, tmp_path, capsys, command, old, new):
        path = tmp_path / "bad.scn"
        path.write_text(bundled_benchmark_text().replace(old, new, 1))
        out_args = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + out_args) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("radius = 0.5", "radius = nan", "line 9, key 'radius'"),
            ("alpha = 1.0", "alpha = nan", "line 33, key 'alpha'"),
            ("x0 = 0.0 0.0", "x0 = nan 0.0", "line 37, key 'x0'"),
            ("seed = 0", "seed = -3", "line 40, key 'seed'"),
        ],
        ids=["radius-nan", "alpha-nan", "x0-nan", "seed-negative"],
    )
    def test_bad_scenario_number_is_parse_error(self, tmp_path, capsys, command, old, new, where):
        # validate once passed the NaNs and run then died with a traceback.
        path = tmp_path / "bad.scn"
        path.write_text(bundled_benchmark_text().replace(old, new, 1))
        out_args = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + out_args) == EXIT_PARSE
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--dt", "nan"), ("--tf", "inf")])
    def test_bad_override_is_parse_error(self, tmp_path, capsys, command, flag, value):
        out_args = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, "benchmark", flag, value] + out_args) == EXIT_PARSE
        assert "t_f and dt must be finite" in capsys.readouterr().err

class TestCountArguments:
    """Out-of-range counts are argument errors (exit 2) before any work starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "benchmark", "--out", "unused", "--decimate", "0"],
            ["suite", "--count", "0"],
            ["validate", "benchmark", "--samples", "1"],
            ["suite", "--count", "two"],
            ["run", "benchmark", "--out", "unused", "--seed", "-1"],
            ["validate", "benchmark", "--seed", "-1"],
            ["suite", "--count", "1", "--seed", "-5"],
        ],
        ids=["decimate-0", "count-0", "samples-1", "count-word", "run-seed", "validate-seed", "suite-seed"],
    )
    def test_rejected_while_parsing(self, argv, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("run", "run_campaign", "validate"):
            monkeypatch.setattr(f"vczsim.cli.{name}", no_work)
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == EXIT_PARSE
        assert "expected an integer >=" in capsys.readouterr().err

    def test_smallest_values_accepted(self):
        parser = build_parser()
        assert parser.parse_args(["run", "benchmark", "--out", "d", "--decimate", "1"]).decimate == 1
        assert parser.parse_args(["suite", "--count", "1"]).count == 1
        assert parser.parse_args(["validate", "benchmark", "--samples", "2"]).samples == 2
        assert parser.parse_args(["suite", "--seed", "0"]).seed == 0


class TestRunCommand:
    def test_benchmark_run_writes_artifacts(self, tmp_path, benchmark_file, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", str(benchmark_file), "--out", str(out_dir), "--dt", "0.005", "--decimate", "20"])
        assert code == EXIT_PASS
        stdout = capsys.readouterr().out
        assert "ptra_verdict = pass" in stdout
        assert (out_dir / "validation.txt").exists()
        assert (out_dir / "verification.txt").exists()
        metrics = (out_dir / "metrics.txt").read_text()
        assert "terminal_distance" in metrics and "max_e_hat" in metrics
        trace = read_trace(out_dir / "trace.csv")
        assert trace.t[-1] == pytest.approx(10.0)

    def test_validation_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(bundled_benchmark_text().replace("x0 = 0.0 0.0", "x0 = 1.5 2.0"))
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == EXIT_FAIL
        assert (out_dir / "validation.txt").exists()
        assert not (out_dir / "trace.csv").exists()

    def test_runtime_abort_exits_three_with_partial_trace(self, tmp_path, capsys):
        path = tmp_path / "squeeze.scn"
        path.write_text(SQUEEZE_TEXT)
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == EXIT_ABORT
        assert "aborted" in capsys.readouterr().err
        assert (out_dir / "abort.txt").exists()
        trace = read_trace(out_dir / "trace.csv")
        assert trace.t[-1] < 4.0

    def test_infeasible_first_qp_exits_three_with_header_only_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        def infeasible(c, t, scenario, hint):
            raise QpInfeasibleError(c, t, (0, 2))

        monkeypatch.setattr(simulator, "virtual_control", infeasible)
        out_dir = tmp_path / "out"
        assert main(["run", "benchmark", "--out", str(out_dir)]) == EXIT_ABORT
        assert "aborted" in capsys.readouterr().err
        assert (out_dir / "abort.txt").read_text().startswith("qp_infeasible at t = 0.0")
        lines = (out_dir / "trace.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[3].startswith("t,x1,x2,")


    def test_uncertified_qp_exits_three_with_partial_trace(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(simulator, "virtual_control", uncertified_from(5, simulator.virtual_control))
        out_dir = tmp_path / "out"
        assert main(["run", "benchmark", "--out", str(out_dir), "--dt", "0.01"]) == EXIT_ABORT
        assert "aborted: qp_uncertified at t = 0.05" in capsys.readouterr().err
        assert (out_dir / "abort.txt").read_text().startswith("qp_uncertified at t = 0.05\n")
        assert len(read_trace(out_dir / "trace.csv")) == 5
        assert not (out_dir / "metrics.txt").exists()


class TestPlotCommand:
    def test_plot_from_run(self, tmp_path, benchmark_file, capsys):
        out_dir = tmp_path / "out"
        main(["run", str(benchmark_file), "--out", str(out_dir), "--dt", "0.01"])
        fig = tmp_path / "fig.svg"
        code = main(
            ["plot", str(out_dir / "trace.csv"), str(benchmark_file), "--out", str(fig),
             "--snapshots", "0,5,10"]
        )
        assert code == EXIT_PASS
        assert fig.read_text().startswith("<svg")

    @pytest.mark.parametrize("times", ["0,abc", "0,inf", "nan", ""])
    def test_bad_snapshot_times_rejected_while_parsing(self, times, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr("vczsim.cli.read_trace", no_work)
        with pytest.raises(SystemExit) as exc_info:
            main(["plot", "unused.csv", "benchmark", "--out", "f.svg", "--snapshots", times])
        assert exc_info.value.code == EXIT_PARSE
        assert "expected comma-separated finite times" in capsys.readouterr().err

    def test_snapshot_times_parse_to_floats(self):
        args = build_parser().parse_args(["plot", "t.csv", "benchmark", "--out", "f.svg",
                                          "--snapshots", "0,2.5,-1e-3"])
        assert args.snapshots == [0.0, 2.5, -0.001]

    def test_hash_mismatch_exits_one(self, tmp_path, benchmark_file, capsys):
        out_dir = tmp_path / "out"
        main(["run", str(benchmark_file), "--out", str(out_dir), "--dt", "0.01"])
        other = tmp_path / "other.scn"
        other.write_text(bundled_benchmark_text().replace("radius = 1.1", "radius = 1.3"))
        code = main(
            ["plot", str(out_dir / "trace.csv"), str(other), "--out", str(tmp_path / "f.svg")]
        )
        assert code == EXIT_FAIL
        assert "hash mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows[:1],  # header only
            lambda rows: rows[:5] + [rows[5] + ",0"] + rows[6:],  # one cell too many
            lambda rows: rows[:5] + [rows[5].split(",", 1)[1]] + rows[6:],  # one cell short
            lambda rows: rows[:5] + ["abc" + rows[5][rows[5].index(","):]] + rows[6:],  # not a number
            lambda rows: [rows[0].replace("qp_kkt", "qp_kkt2")] + rows[1:],  # a column renamed
        ],
        ids=["header_only", "extra_cell", "missing_cell", "non_numeric", "renamed_column"],
    )
    def test_malformed_trace_exits_two(self, tmp_path, edit, capsys):
        out_dir = tmp_path / "out"
        main(["run", "benchmark", "--out", str(out_dir), "--dt", "0.01"])
        lines = (out_dir / "trace.csv").read_text().splitlines()
        meta, rows = lines[:3], lines[3:]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(meta + edit(rows)) + "\n")
        capsys.readouterr()
        code = main(["plot", str(bad), "benchmark", "--out", str(tmp_path / "f.svg")])
        assert code == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err
        assert not (tmp_path / "f.svg").exists()


class TestSuiteCommand:
    def test_small_campaign(self, capsys):
        assert main(["suite", "--count", "3", "--seed", "2024"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "3 scenarios" in out
        assert "forward invariance" in out


def _child_env():
    """This environment with the tested package's directory first on
    PYTHONPATH, so a child interpreter imports the same vczsim."""
    path = [str(Path(vczsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "vczsim.cli", "validate", "benchmark"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == EXIT_PASS
    assert "all checks passed" in proc.stdout


def test_runtime_imports_numpy_only():
    # scipy is a benchmark-only extra; the package and the CLI must not load it.
    code = (
        "import sys, vczsim, vczsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
