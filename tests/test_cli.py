import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from msqaoa import closed_form, finite_n, model, optimizer, verify
from msqaoa.cli import main


def read_grid(path):
    lines = path.read_text().splitlines()
    gammas = [float(v) for v in lines[0].split(",")[1:]]
    betas, rows = [], []
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        betas.append(vals[0])
        rows.append(vals[1:])
    return betas, gammas, rows


class TestOptimizeCommand:
    def test_sk(self, tmp_path, capsys):
        assert main(["optimize", "--sk", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "d,beta,gamma,value"
        d, beta, gamma, value = out[1].split(",")
        assert abs(float(beta) - math.pi / 8) < 1e-4
        assert abs(float(gamma) + 0.5) < 1e-4
        assert abs(float(value) + 0.303265) < 1e-5
        assert (tmp_path / "optimum.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_sigma_list_d3(self, tmp_path, capsys):
        assert (
            main(
                [
                    "optimize",
                    "--sigmas",
                    "0,0,1.732050808",
                    "--ground-state=-0.8132",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.splitlines()
        _, beta, gamma, value = out[1].split(",")
        assert abs(float(value) + 0.270638) < 1e-5
        factor_line = [ln for ln in out if ln.startswith("approximation_factor")][0]
        assert abs(float(factor_line.split(",")[1]) - 0.332806) < 1e-3

    def test_pure_d_table(self, tmp_path, capsys):
        assert main(["optimize", "--pure-d", "2..4", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "optimum.csv").read_text().splitlines()
        assert len(rows) == 4  # header + three degrees
        assert rows[1].startswith("2,")

    def test_pure_d_one_is_the_one_sigma_model(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--pure-d", "1", "--out", str(a)]) == 0
        assert main(["optimize", "--sigmas", "0.7071067811865476", "--out", str(b)]) == 0
        rows = (a / "optimum.csv").read_text()
        assert rows == (b / "optimum.csv").read_text()
        assert rows.splitlines()[1].startswith("1,")
        health = json.loads((a / "manifest.json").read_text())["health"]
        assert health["converged"] == {"1": True}

    def test_conflicting_spec_flags(self, tmp_path):
        assert main(["optimize", "--sk", "--sigmas", "0,1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("ground", ["nan", "-inf", "0.5"])
    def test_bad_ground_state_exit_code(self, tmp_path, ground):
        code = main(["optimize", "--sk", f"--ground-state={ground}", "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "optimum.csv").exists()
        assert not (tmp_path / "manifest.json").exists()


    def test_manifest_records_convergence_per_degree(self, tmp_path):
        assert main(["optimize", "--pure-d", "2..3", "--out", str(tmp_path)]) == 0
        health = json.loads((tmp_path / "manifest.json").read_text())["health"]
        assert health["converged"] == {"2": True, "3": True}
        iterations = health["refinement_iterations"]
        assert sorted(iterations) == ["2", "3"]
        assert all(type(v) is int and v > 0 for v in iterations.values())

    def test_manifest_records_convergence_for_one_spec(self, tmp_path):
        assert main(["optimize", "--sk", "--out", str(tmp_path)]) == 0
        health = json.loads((tmp_path / "manifest.json").read_text())["health"]
        assert health["converged"] is True
        assert type(health["refinement_iterations"]) is int
        assert health["refinement_iterations"] > 0

    def test_manifest_records_gradient_norm(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--pure-d", "2..3", "--out", str(a)]) == 0
        assert main(["optimize", "--sk", "--out", str(b)]) == 0
        per_degree = json.loads((a / "manifest.json").read_text())["health"]
        single = json.loads((b / "manifest.json").read_text())["health"]
        assert sorted(per_degree["gradient_norm"]) == ["2", "3"]
        for norm in [*per_degree["gradient_norm"].values(), single["gradient_norm"]]:
            assert type(norm) is float and 0 <= norm < 1e-7


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--sigmas", "1e200"],
        ["optimize", "--cs", "1e300"],
        ["landscape", "--sigmas", "1e200", "--beta=0:1:3", "--gamma=0:1:3"],
        ["optimize", "--sigmas", "1e-200"],
        ["optimize", "--sigmas", "1e-160"],  # rate 1e-320: g*g overflows on +-2e160
    ],
)
def test_overflowing_or_underflowing_damping_rate_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--pure-d", "0"],
        ["landscape", "--pure-d", "0"],
        ["sample", "--pure-d", "0", "--n", "4"],
        ["landscape", "--pure-d", "-1"],
        ["optimize", "--pure-d", "5..2"],
        ["optimize", "--pure-d", "5..2", "--ground-state=-0.7"],
        ["landscape", "--pure-d", "5..2"],
        ["landscape", "--pure-d", "21", "--beta=0:1:3", "--gamma=0:1:3"],
        # writes the d = 20 grids, then fails at d = 21 and removes them
        ["landscape", "--pure-d", "20..21", "--mode", "finite:8", "--mode", "infinite",
         "--beta=0:1:3", "--gamma=0:1:3"],
    ],
)
def test_pure_d_out_of_range_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


class TestLandscapeCommand:
    def test_single_zero_cell(self, tmp_path):
        code = main(
            [
                "landscape",
                "--sk",
                "--beta",
                "0.3:0.3:1",
                "--gamma",
                "0:0:1",
                "--mode",
                "infinite",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        _, _, rows = read_grid(tmp_path / "landscape_sk_infinite.csv")
        assert rows == [[0.0]]

    def test_modes_and_shapes(self, tmp_path):
        code = main(
            [
                "landscape",
                "--sigmas",
                "0.333,0.5,1.0",
                "--beta=-0.6:0.6:4",
                "--gamma=-1:1:3",
                "--mode",
                "infinite",
                "--mode",
                "instance:6:1",
                "--mode",
                "finite:8",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [
            "landscape_mix_finite_n8.csv",
            "landscape_mix_infinite.csv",
            "landscape_mix_instance_n6_seed1.csv",
        ]
        for name in names:
            betas, gammas, rows = read_grid(tmp_path / name)
            assert len(betas) == 4 and len(gammas) == 3
        # instance landscape converges toward the infinite-size surface,
        # so the two grids agree loosely
        _, _, inf_rows = read_grid(tmp_path / "landscape_mix_infinite.csv")
        _, _, fin_rows = read_grid(tmp_path / "landscape_mix_finite_n8.csv")
        for r_inf, r_fin in zip(inf_rows, fin_rows):
            for a, b in zip(r_inf, r_fin):
                assert abs(a - b) < 0.2

    def test_reproducible_bytes(self, tmp_path):
        args = [
            "landscape",
            "--pure-d",
            "2",
            "--beta=-0.5:0.5:3",
            "--gamma=-1:1:3",
            "--mode",
            "instance:6:42",
            "--mode",
            "infinite",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in (
            "landscape_pure2_infinite.csv",
            "landscape_pure2_instance_n6_seed42.csv",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_instance_rerun_is_byte_identical(self, tmp_path):
        args = ["landscape", "--pure-d", "3", "--mode", "instance:13:5"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        name = "landscape_pure3_instance_n13_seed5.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_digests(self, tmp_path):
        assert (
            main(
                [
                    "landscape",
                    "--sk",
                    "--beta",
                    "0:0.5:2",
                    "--gamma",
                    "0:1:2",
                    "--mode",
                    "infinite",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "landscape"
        assert manifest["rng_algorithm"] == "PCG64"
        assert manifest["outputs"]
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_bad_mode_exit_code(self, tmp_path):
        code = main(
            ["landscape", "--sk", "--mode", "bogus", "--out", str(tmp_path)]
        )
        assert code == 2
        # partial outputs are removed on failure
        assert list(tmp_path.glob("*.csv")) == []

    def test_partial_outputs_removed_on_late_failure(self, tmp_path):
        # the first mode succeeds and writes a CSV; the second fails; the
        # already-written file must be cleaned up
        code = main(
            [
                "landscape",
                "--sk",
                "--beta",
                "0:0.4:2",
                "--gamma",
                "0:1:2",
                "--mode",
                "infinite",
                "--mode",
                "bogus",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert list(tmp_path.glob("*.csv")) == []
        assert not (tmp_path / "manifest.json").exists()

    def test_pure_d_range_emits_one_csv_per_degree(self, tmp_path):
        code = main(
            [
                "landscape",
                "--pure-d",
                "2..5",
                "--beta=-0.5:0.5:3",
                "--gamma=-1:1:3",
                "--mode",
                "infinite",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [f"landscape_pure{d}_infinite.csv" for d in (2, 3, 4, 5)]

    def test_manifest_counts_clamped_variances_per_finite_grid(self, tmp_path):
        code = main(
            [
                "landscape",
                "--pure-d",
                "2..3",
                "--beta=-0.5:0.5:3",
                "--gamma=-1:1:3",
                "--mode",
                "finite:8",
                "--mode",
                "infinite",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        health = json.loads((tmp_path / "manifest.json").read_text())["health"]
        assert health["clamped_variances"] == {
            "landscape_pure2_finite_n8.csv": 0,
            "landscape_pure3_finite_n8.csv": 0,
        }

    def test_budget_exit_code(self, tmp_path):
        # finite:N has no size cap; n = 600 is past the 60-digit reference's 512
        code = main(
            [
                "landscape",
                "--sk",
                "--beta",
                "0.3:0.3:1",
                "--gamma",
                "0.5:0.5:1",
                "--mode",
                "finite:600",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        _, _, rows = read_grid(tmp_path / "landscape_sk_finite_n600.csv")
        ref = finite_n.sketch_moments(model.make_mixture_spec(2, [0.0, 1.0]),
                                      closed_form.Angles(0.3, 0.5), 600)
        assert rows == [[ref.first]]

    def test_huge_finite_n_exit_code(self, tmp_path, capsys):
        n = 10**30
        argv = ["landscape", "--pure-d", "20", "--mode", f"finite:{n}",
                "--beta=0:1:5", "--gamma=-1:1:5", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        betas, gammas, rows = read_grid(tmp_path / f"landscape_pure20_finite_n{n}.csv")
        limit = closed_form.energy_sigma_grid(optimizer.pure_d_spec(20), betas, gammas)
        assert max(abs(v - w) for r, s in zip(rows, limit) for v, w in zip(r, s)) <= 1e-14

    @pytest.mark.parametrize("mode", ["finite:abc", "instance:x:1"])
    def test_malformed_mode_numbers_exit_code(self, tmp_path, mode):
        code = main(["landscape", "--sk", "--mode", mode, "--out", str(tmp_path)])
        assert code == 2
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("grid", ["--beta=nan:1:3", "--beta=0:inf:3", "--gamma=-inf:1:3"])
    def test_non_finite_grid_exit_code(self, tmp_path, grid):
        code = main(["landscape", "--sk", grid, "--out", str(tmp_path)])
        assert code == 2
        assert list(tmp_path.glob("*.csv")) == []

    def test_huge_finite_gamma_writes_no_nan(self, tmp_path, capsys):
        # at gamma = 1e308 both 2 gamma and gamma^2 overflow; the energy and
        # the finite-n moments damp to 0 there
        argv = ["landscape", "--sk", "--mode", "infinite", "--mode", "finite:10",
                "--beta=0:0.5:2", "--gamma=0:1e308:3", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        for name in ("landscape_sk_infinite.csv", "landscape_sk_finite_n10.csv"):
            assert "nan" not in (tmp_path / name).read_text()
            _, gammas, rows = read_grid(tmp_path / name)
            assert gammas[-1] == 1e308 and [row[-1] for row in rows] == [0.0, 0.0]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["health"]["clamped_variances"] == {"landscape_sk_finite_n10.csv": 0}

    def test_k_product_overflow_prints_no_warning(self, tmp_path):
        # at 6e153 < gamma < 1.3e154 gamma^2 sigma_q^2 is finite but its
        # products with the K-table columns are not; a fresh process shows
        # what numpy would print on stderr
        src = Path(finite_n.__file__).resolve().parent.parent
        argv = ["landscape", "--sigmas", "0.3,0.5,1.0", "--mode", "finite:10",
                "--beta=0:0.5:2", "--gamma=1e154:1.2e154:2", "--out", str(tmp_path)]
        done = subprocess.run(
            [sys.executable, "-m", "msqaoa.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stderr) == (0, "")
        csv = (tmp_path / "landscape_mix_finite_n10.csv").read_text()
        assert csv == "beta,1e+154,1.2e+154\n0.0,0.0,0.0\n0.5,0.0,0.0\n"

    def test_numerical_self_check_exit_code(self, tmp_path, capsys, monkeypatch):
        # injected fault: the lambda^2 weight R short by 1 gives a negative
        # variance; the infinite grid written first must be removed with the rest
        real = finite_n._lambda_quadratic
        monkeypatch.setattr(finite_n, "_lambda_quadratic", lambda *args: real(*args) - 1.0)
        code = main(
            [
                "landscape",
                "--pure-d",
                "3",
                "--beta=0.3:0.3:1",
                "--gamma=-0.3:-0.3:1",
                "--mode",
                "infinite",
                "--mode",
                "finite:32",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 4
        assert "numerical self-check failed" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("flag", ["--threads=2", "--budget=1024"])
    def test_removed_flags_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["landscape", "--sk", flag, "--out", str(tmp_path)])
        assert exc.value.code == 2


    def test_statevector_cap_checked_before_sampling(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "sample_instance", lambda *args: calls.append(args))
        out = tmp_path / "out"
        code = main(
            [
                "landscape",
                "--pure-d",
                "6",
                "--mode",
                "instance:30:1",
                "--beta=0:1:3",
                "--gamma=0:1:3",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert calls == []
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_failed_write_removes_only_this_runs_files(self, tmp_path, capsys):
        # the finite grid's name is taken by a directory, so its write fails
        # after the infinite grid was written
        (tmp_path / "unrelated.txt").write_text("keep\n")
        (tmp_path / "landscape_sk_finite_n8.csv").mkdir()
        code = main(
            [
                "landscape",
                "--sk",
                "--beta=0:0.4:2",
                "--gamma=0:1:2",
                "--mode",
                "infinite",
                "--mode",
                "finite:8",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "landscape_sk_infinite.csv").exists()
        assert not (tmp_path / "manifest.json").exists()
        assert (tmp_path / "unrelated.txt").read_text() == "keep\n"
        assert (tmp_path / "landscape_sk_finite_n8.csv").is_dir()


class TestSampleAndFit:
    def test_round_trip_recovery(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sample",
                    "--sigmas",
                    "0.5,1.5",
                    "--n",
                    "12",
                    "--seed",
                    "2024",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        instance_file = next(tmp_path.glob("instance_*.txt"))
        assert main(["fit-spec", str(instance_file), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        fitted = [float(v) for v in out.splitlines()[0].split(":")[1].split(",")]
        for got, want, count in zip(fitted, (0.5, 1.5), (12, 66)):
            assert abs(got - want) < 3 * want / math.sqrt(2 * count)
        assert "scaling" in out

    def test_insufficient_samples_warning(self, tmp_path, capsys):
        main(["sample", "--sigmas", "1", "--n", "1", "--seed", "3", "--out", str(tmp_path)])
        capsys.readouterr()
        instance_file = next(tmp_path.glob("instance_*.txt"))
        assert main(["fit-spec", str(instance_file), "--out", str(tmp_path)]) == 0
        assert "InsufficientSamples" in capsys.readouterr().out

    def test_nonzero_mean_warning(self, tmp_path, capsys):
        lines = ["n=6 d=1 sigmas=1.0 seed=0"]
        for i in range(1, 7):
            lines.append(f"1 {i} {4.0 + 0.01 * i!r}")
        path = tmp_path / "shifted.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit-spec", str(path), "--out", str(tmp_path)]) == 0
        assert "NonZeroMean" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        assert main(["fit-spec", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00n=6"])
    def test_unreadable_file_exit_code(self, tmp_path, content):
        path = tmp_path / "instance.txt"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["fit-spec", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_coupling_cap_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sample", "--pure-d", "3", "--n", "1000000", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "INSTANCE_MAX_COUPLINGS" in err[0]
        assert not out.exists()

    def test_coupling_cap_from_file_header(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("n=1000000 d=3 sigmas=0.0,0.0,1.0 seed=0\n1 1 0.5\n")
        out = tmp_path / "out"
        assert main(["fit-spec", str(path), "--out", str(out)]) == 3
        assert "cap exceeded" in capsys.readouterr().err
        assert not out.exists()

    def test_beyond_63_spins(self, tmp_path, capsys):
        assert main(["sample", "--sk", "--n", "64", "--seed", "5", "--out", str(tmp_path)]) == 0
        instance_file = next(tmp_path.glob("instance_*.txt"))
        assert main(["fit-spec", str(instance_file), "--out", str(tmp_path / "fit")]) == 0
        assert "sigmas:" in capsys.readouterr().out


class TestVerifyCommand:
    def test_quick_passes(self, tmp_path, capsys):
        assert main(["verify", "--level", "quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] sk_optimum" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_corrupted_constant_fails(self, tmp_path, capsys, monkeypatch):
        # negative control: a corrupted energy routine must trip a named check
        true_fn = closed_form.energy_sigma_form

        def corrupted(spec, angles):
            return true_fn(spec, angles) + 1e-6

        monkeypatch.setattr(closed_form, "energy_sigma_form", corrupted)
        assert main(["verify", "--level", "quick", "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "[FAIL] form_equivalence" in out

    def test_manifest_round_trip_prints_nothing(self, capsys):
        res = verify.run_check("manifest_round_trip")
        assert res.passed, res.details
        assert capsys.readouterr() == ("", "")


_COMMANDS = {
    "landscape": ["landscape", "--sk", "--beta=0:0.4:2", "--gamma=0:1:2"],
    "optimize": ["optimize", "--sk"],
    "sample": ["sample", "--sk", "--n", "5"],
    "fit-spec": ["fit-spec"],  # the instance file is appended by the test
    "verify": ["verify", "--level", "quick"],
}


_COMPUTE = {
    "landscape": (closed_form, "energy_sigma_grid"),
    "optimize": (optimizer, "optimize_closed_form"),
    "verify": (verify, "run"),
}


@pytest.mark.parametrize("sub", ["", "sub"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_unwritable_out_exit_code(tmp_path, capsys, monkeypatch, command, sub):
    argv = list(_COMMANDS[command])
    if command == "fit-spec":
        assert main(["sample", "--sk", "--n", "5", "--out", str(tmp_path / "inst")]) == 0
        argv.append(str(next((tmp_path / "inst").glob("instance_*.txt"))))
    if command in _COMPUTE:
        # the unwritable --out is found before any work
        def must_not_run(*args, **kwargs):
            raise AssertionError("computed before checking --out")

        monkeypatch.setattr(*_COMPUTE[command], must_not_run)
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    capsys.readouterr()
    assert main(argv + ["--out", str(blocker / sub)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert blocker.read_text() == "not a directory\n"


def test_failed_run_removes_the_directories_it_made(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [
        "landscape", "--sk", "--beta=0:0.4:2", "--gamma=0:1:2",
        "--mode", "infinite", "--mode", "instance:30:1",
    ]
    assert main(argv + ["--out", "nest/a/b"]) == 3
    assert not (tmp_path / "nest").exists()
    # a directory that was there before, or is not empty, stays
    (tmp_path / "nest").mkdir()
    (tmp_path / "nest" / "keep.txt").write_text("keep\n")
    assert main(argv + ["--out", "nest/a/b"]) == 3
    assert [p.name for p in (tmp_path / "nest").iterdir()] == ["keep.txt"]
    assert len(capsys.readouterr().err.splitlines()) == 2
