"""Command-line surface: naming, determinism, error handling, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from blindpnp import cli
from blindpnp.cli import main
from blindpnp.pipeline import PipelineConfig, pose_errors, solve
from blindpnp.synth import load_instance, oracle_cost


def run_cli(args):
    return main(list(args))


class TestGenerate:
    def test_naming_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli(["generate", "--count", "2", "--seed", "7",
                        "--n-points", "20", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["instance_0000007.txt",
                                           "instance_0000008.txt",
                                           "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["library_version"]

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            run_cli(["generate", "--count", "2", "--seed", "3",
                     "--n-points", "15", "--out", str(out)])
        for name in ("instance_0000003.txt", "instance_0000004.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unwritable_directory_reported(self, tmp_path, capsys):
        # a regular file in the parent position makes the path unusable
        # for any user (chmod tricks do not stop root)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run_cli(["generate", "--count", "1",
                        "--out", str(blocker / "sub")])
        assert code == 2
        assert "blocker" in capsys.readouterr().err

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLINDPNP_OUTPUT_DIR", str(tmp_path / "envout"))
        # parser defaults are bound at build time, so rebuild via main
        assert run_cli(["generate", "--count", "1", "--seed", "1",
                        "--n-points", "10"]) == 0
        assert (tmp_path / "envout" / "instance_0000001.txt").exists()


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "ds"
    run_cli(["generate", "--count", "3", "--seed", "40", "--n-points", "25",
             "--sigma", "0", "--out", str(out)])
    return out


class TestSolve:
    def test_clean_instances_solve_accurately(self, dataset, tmp_path):
        out = tmp_path / "sol"
        assert run_cli(["solve", str(dataset), "--out", str(out)]) == 0
        lines = (out / "solve.csv").read_text().splitlines()
        assert lines[0] == "# schema: blindpnp-solve-v1"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        header = lines[1].split(",")
        col = header.index("refined_rotation_deg")
        for row in rows:
            assert float(row[col]) <= 1e-3

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = run_cli(["solve", str(tmp_path / "nope.txt"),
                        "--out", str(tmp_path)])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_malformed_instance_becomes_error_row(self, dataset, tmp_path):
        bad = dataset / "instance_9999999.txt"
        bad.write_text("not an instance\n")
        out = tmp_path / "sol2"
        code = run_cli(["solve", str(dataset), "--out", str(out)])
        assert code == 2  # failures present
        lines = (out / "solve.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4  # 3 good + 1 error row
        error_rows = [r for r in rows if r[-1] != ""]
        assert len(error_rows) == 1

    def test_cost_file_dimension_mismatch(self, dataset, tmp_path):
        inst_path = dataset / "instance_0000040.txt"
        np.savetxt(str(inst_path) + ".cost", np.ones((5, 5)))
        out = tmp_path / "sol3"
        code = run_cli(["solve", str(inst_path), "--out", str(out),
                        "--cost", "file"])
        assert code == 2
        lines = (out / "solve.csv").read_text().splitlines()
        assert "shape" in lines[2]

    def test_theta_is_a_usage_error(self, dataset, tmp_path, capsys):
        # only the benchmark's alternation baseline reads an angular
        # threshold, so solve has no --theta to ignore
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["solve", str(dataset), "--out", str(tmp_path / "o"),
                     "--theta", "0.5"])
        assert exit_info.value.code == 1
        assert "--theta" in capsys.readouterr().err
        assert run_cli(["benchmark", "--dataset", str(dataset),
                        "--out", str(tmp_path / "b"), "--theta", "0.5"]) == 0

    def test_cost_file_gives_the_oracle_rows(self, dataset, tmp_path):
        for path in dataset.glob("instance_*.txt"):
            inst = load_instance(path)
            np.savetxt(str(path) + ".cost", oracle_cost(inst, 5.0))
        tables = {}
        for cost in ("oracle", "file"):
            out = tmp_path / cost
            assert run_cli(["solve", str(dataset), "--out", str(out),
                            "--cost", cost]) == 0
            lines = (out / "solve.csv").read_text().splitlines()
            drop = lines[1].split(",").index("runtime_seconds")
            tables[cost] = [[v for i, v in enumerate(line.split(","))
                             if i != drop] for line in lines[1:]]
        assert len(tables["file"]) == 4
        assert tables["file"] == tables["oracle"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["solve", "benchmark"])
    def test_jobs_below_one_is_a_usage_error(self, dataset, tmp_path, capsys,
                                             command, jobs):
        out = tmp_path / "o"
        where = ([str(dataset)] if command == "solve"
                 else ["--dataset", str(dataset)])
        assert run_cli([command, *where, "--out", str(out),
                        "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()  # rejected before any instance was solved

    def test_jobs_capped_at_instance_count(self, dataset, tmp_path,
                                           monkeypatch):
        # the pool forks every worker at its first task, so --jobs 64
        # asks for one worker per instance, and one instance runs serially
        workers = []

        class RecordingPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        one = sorted(dataset.glob("instance_*.txt"))[0]
        for where in (dataset, one):
            assert run_cli(["solve", str(where), "--out",
                            str(tmp_path / where.name), "--jobs", "64"]) == 0
        assert workers == [3]
        assert len((tmp_path / one.name / "solve.csv").read_text()
                   .splitlines()) == 3  # schema, header, one row

    def test_jobs_parallelism_matches_serial(self, dataset, tmp_path):
        # result columns must agree bit-for-bit; the wall-clock column is
        # a measurement and is excluded from the comparison
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_cli(["solve", str(dataset), "--out", str(serial)])
        run_cli(["solve", str(dataset), "--out", str(parallel),
                 "--jobs", "2"])

        def rows_without_runtime(path):
            lines = (path / "solve.csv").read_text().splitlines()
            header = lines[1].split(",")
            drop = header.index("runtime_seconds")
            return [tuple(v for i, v in enumerate(line.split(","))
                          if i != drop) for line in lines[2:]]

        assert rows_without_runtime(serial) == rows_without_runtime(parallel)


class TestPipelineFlags:
    def test_defaults_are_the_library_defaults(self, tmp_path):
        # a CLI default that drifts from its config class moves the poses
        data = tmp_path / "data"
        run_cli(["generate", "--count", "2", "--seed", "5", "--n-points", "40",
                 "--outlier-fraction", "0.2", "--out", str(data)])
        out = tmp_path / "sol"
        assert run_cli(["solve", str(data), "--out", str(out)]) == 0
        lines = (out / "solve.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert len(lines) == 4
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            inst = load_instance(data / f"{row['instance']}.txt")
            result = solve(oracle_cost(inst, 5.0), inst, PipelineConfig())
            for method, pose in (("ransac", result.ransac_pose),
                                 ("refined", result.refined_pose)):
                for metric, value in pose_errors(pose, inst).items():
                    assert row[f"{method}_{metric}"] == format(value, ".17g")

    @pytest.mark.parametrize("flags", [
        ["--refine-tolerance", "nan"], ["--refine-tolerance", "0"],
        ["--refine-iterations", "-1"], ["--ransac-iterations", "0"],
        ["--mu", "0"], ["--mu", "nan"], ["--sharpness", "nan"],
        ["--cost-noise", "-1"]])
    @pytest.mark.parametrize("command", ["solve", "benchmark"])
    def test_bad_setting_is_usage_error(self, dataset, tmp_path, capsys,
                                        command, flags):
        out = tmp_path / "o"
        where = ([str(dataset)] if command == "solve"
                 else ["--dataset", str(dataset)])
        assert run_cli([command, *where, "--out", str(out), *flags]) == 1
        assert "invalid pipeline setting" in capsys.readouterr().err
        assert not out.exists()  # rejected before any instance was solved


class TestBenchmark:
    def test_tables_and_recall_columns(self, dataset, tmp_path):
        out = tmp_path / "bench"
        assert run_cli(["benchmark", "--dataset", str(dataset),
                        "--out", str(out), "--thresholds", "5,10,15"]) == 0
        bench = (out / "benchmark.csv").read_text().splitlines()
        assert bench[0] == "# schema: blindpnp-benchmark-v1"
        methods = [line.split(",")[0] for line in bench[2:]]
        assert methods == ["refined", "ransac", "alternation"]
        rec = (out / "recall.csv").read_text().splitlines()
        assert rec[1].split(",") == ["method", "rot_recall_5deg",
                                     "rot_recall_10deg", "rot_recall_15deg"]
        assert (out / "timings.csv").exists()

    def test_rerun_byte_identical_tables(self, dataset, tmp_path):
        a = tmp_path / "b1"
        b = tmp_path / "b2"
        for out in (a, b):
            run_cli(["benchmark", "--dataset", str(dataset),
                     "--out", str(out)])
        assert (a / "benchmark.csv").read_bytes() \
            == (b / "benchmark.csv").read_bytes()
        assert (a / "recall.csv").read_bytes() \
            == (b / "recall.csv").read_bytes()

    @pytest.mark.parametrize("flags", [
        [], ["--sharpness", "1", "--cost-noise", "0.3", "--mu", "0.01"],
        ["--ransac-iterations", "1", "--refine-iterations", "1"]])
    def test_manifest_counts_match_solve_flags(self, dataset, tmp_path,
                                               flags):
        assert run_cli(["solve", str(dataset), "--out", str(tmp_path / "s")]
                       + flags) == 0
        assert run_cli(["benchmark", "--dataset", str(dataset),
                        "--out", str(tmp_path / "b")] + flags) == 0
        lines = (tmp_path / "s" / "solve.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        counts = json.loads(
            (tmp_path / "b" / "manifest.json").read_text())["flag_counts"]
        assert counts == {key: sum(row[header.index(key)] == "1"
                                   for row in rows)
                          for key in ("sinkhorn_converged",
                                      "refine_converged", "low_inlier")}

    def test_refine_flags_reach_alternation_baseline(self, tmp_path):
        # noisy pixels, so the baseline's refinements take several steps
        data = tmp_path / "noisy"
        run_cli(["generate", "--count", "2", "--seed", "40",
                 "--n-points", "25", "--out", str(data)])
        rows = {}
        for iterations in ("200", "1"):
            out = tmp_path / f"b{iterations}"
            assert run_cli(["benchmark", "--dataset", str(data),
                            "--out", str(out),
                            "--refine-iterations", iterations]) == 0
            lines = (out / "benchmark.csv").read_text().splitlines()
            rows[iterations] = {line.split(",")[0]: line for line in lines[2:]}
        assert rows["200"]["ransac"] == rows["1"]["ransac"]
        assert rows["200"]["alternation"] != rows["1"]["alternation"]

    @pytest.mark.parametrize("thresholds", ["5,x,10", "nan,5", "5,inf",
                                            "0,5", "-1", ""])
    def test_bad_thresholds_are_usage_errors(self, dataset, tmp_path, capsys,
                                             thresholds):
        out = tmp_path / "o"
        assert run_cli(["benchmark", "--dataset", str(dataset),
                        "--out", str(out), "--thresholds", thresholds]) == 1
        assert "--thresholds" in capsys.readouterr().err
        assert not out.exists()  # rejected before any instance was solved

    @pytest.mark.parametrize("theta", ["nan", "-1", "0", "4"])
    def test_bad_theta_is_a_usage_error(self, dataset, tmp_path, capsys,
                                        theta):
        out = tmp_path / "o"
        assert run_cli(["benchmark", "--dataset", str(dataset),
                        "--out", str(out), "--theta", theta]) == 1
        assert "--theta" in capsys.readouterr().err
        assert not out.exists()  # rejected before any instance was solved

    def test_failed_instance_fails_benchmark(self, dataset, tmp_path, capsys):
        (dataset / "instance_9999999.txt").write_text("not an instance\n")
        out = tmp_path / "o"
        assert run_cli(["benchmark", "--dataset", str(dataset),
                        "--out", str(out)]) == 2
        assert "instance_9999999" in capsys.readouterr().err
        assert not (out / "benchmark.csv").exists()

    def test_empty_dataset_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli(["benchmark", "--dataset", str(empty),
                        "--out", str(tmp_path / "o")]) == 1


class TestGradcheck:
    def test_fast_subset_passes(self, capsys):
        assert run_cli(["gradcheck", "--checks", "loss_gradients,pnp_gradient",
                        "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2

    def test_injected_bug_fails_matching_check(self, capsys):
        code = run_cli(["gradcheck", "--checks", "loss_gradients",
                        "--seeds", "2", "--inject-bug", "loss_gradients"])
        assert code == 2
        assert "[FAIL]" in capsys.readouterr().out

    @pytest.mark.parametrize("seeds", ["-2", "0"])
    def test_seeds_below_one_are_usage_errors(self, capsys, seeds):
        # zero cases would print [PASS] lines that checked nothing
        assert run_cli(["gradcheck", "--seeds", seeds,
                        "--checks", "pnp_vjp,loss_gradients"]) == 1
        captured = capsys.readouterr()
        assert "--seeds" in captured.err
        assert "[PASS]" not in captured.out

    def test_unknown_check_is_usage_error(self, capsys):
        assert run_cli(["gradcheck", "--checks", "warp-drive"]) == 1


class TestEntryPoint:
    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "blindpnp.cli", "--no-such-flag"],
            capture_output=True)
        assert proc.returncode == 1

    def test_imports_no_scipy(self):
        code = ("import sys, blindpnp, blindpnp.cli; "
                "print([k for k in sys.modules if k.startswith('scipy')])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "blindpnp.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"
