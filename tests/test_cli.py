import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msqaoa import cli, closed_form, finite_n, model, optimizer, verify
from msqaoa.cli import main
from msqaoa.errors import ValidationError


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

    def test_cs_is_the_sigma_model_of_its_mixture_function(self, tmp_path, capsys):
        # sigma_q = c_q sqrt(q!): the --cs model and its optimum are those of
        # --sigmas with the converted values
        spec = model.MixtureFunction((0.5, 0.7, 0.3)).to_spec()
        args = cli._parse(["optimize", "--cs", "0.5,0.7,0.3"])
        assert cli._specs_from_args(args) == [("mix", spec)]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--cs", "0.5,0.7,0.3", "--out", str(a)]) == 0
        sigmas = ",".join(map(repr, spec.sigmas))
        assert main(["optimize", "--sigmas", sigmas, "--out", str(b)]) == 0
        assert (a / "optimum.csv").read_bytes() == (b / "optimum.csv").read_bytes()

    def test_conflicting_spec_flags(self, tmp_path):
        assert main(["optimize", "--sk", "--sigmas", "0,1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["optimize", "--sk", "--sigmas", ""],
        ["optimize", "--pure-d", "", "--cs", "0.5"],
        ["landscape", "--sk", "--cs="],
    ], ids=["empty-sigmas", "empty-pure-d", "empty-cs"])
    def test_an_empty_model_flag_counts_as_given(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: exactly one of --sk/--sigmas/--cs/--pure-d is required")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_ground_state_needs_one_model(self, tmp_path, capsys):
        argv = ["optimize", "--pure-d", "2..5", "--ground-state=-0.7"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

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
        ["landscape", "--pure-d", "25", "--beta=0:1:3", "--gamma=0:1:3"],
        # d = 25 is refused before the d = 24 grids are computed
        ["landscape", "--pure-d", "24..25", "--mode", "finite:8", "--mode", "infinite",
         "--beta=0:1:3", "--gamma=0:1:3"],
    ],
)
def test_pure_d_out_of_range_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--pure-d", "171"],
        ["optimize", "--cs", ",".join(["0.5"] * 171)],
        ["optimize", "--sigmas", ",".join(["0.5"] * 172)],
        ["landscape", "--pure-d", "25", "--mode", "finite:64"],
        ["sample", "--pure-d", "25", "--n", "25"],
        # the range is taken lazily, so d = 25 stops it
        ["optimize", "--pure-d", "1..1000000"],
    ],
    ids=["pure171", "cs171", "sigmas172", "finite-pure25", "sample-pure25", "long-range"],
)
def test_degree_beyond_the_model_range_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree bound must be >= 1 and <= 24, got d=")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["landscape", "--sk", "--beta=0:1:0"], "--beta needs count >= 1, got 0"),
        (["optimize", "--sigmas", "0.5,x"], "--sigmas expects a comma list of reals"),
        (["optimize", "--pure-d", "x"], "--pure-d expects D or LO..HI, got 'x'"),
        (["sample", "--pure-d", "2..3", "--n", "4"], "sample needs exactly one model"),
        (["optimize", "--sigmas", ""], "--sigmas expects a comma list of reals, got ''"),
        (["optimize", "--cs", ""], "--cs expects a comma list of reals, got ''"),
        (["optimize", "--pure-d", ""], "--pure-d expects D or LO..HI, got ''"),
    ],
    ids=["zero-count-grid", "non-real-sigma", "non-integer-degree", "sample-degree-range",
         "empty-sigmas", "empty-cs", "empty-pure-d"],
)
def test_malformed_flag_exit_code(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_closed_form_and_finite_n_take_the_top_degree(tmp_path, capsys):
    argv = ["landscape", "--pure-d", "24", "--mode", "infinite", "--mode", "finite:64",
            "--beta=0.1:0.3:2", "--gamma=-0.3:-0.1:2"]
    assert main(argv + ["--out", str(tmp_path / "l")]) == 0
    assert main(["optimize", "--pure-d", "21..24", "--out", str(tmp_path / "o")]) == 0
    health = json.loads((tmp_path / "o" / "manifest.json").read_text())["health"]
    assert health["converged"] == {str(d): True for d in range(21, 25)}


@pytest.mark.parametrize(
    "grid",
    [
        ["--beta=0:1:100000000000000000"],
        # past numpy's largest array
        ["--beta=0:1:9223372036854775808"],
        ["--beta=0:1:1", "--gamma=0:1:100000000000000000"],
        ["--beta=0:1:100000000000000000", "--gamma=0:1:100000000000000000"],
    ],
    ids=["beta", "beta-2^63", "gamma", "both"],
)
def test_oversized_grid_exit_code(tmp_path, capsys, grid):
    out = tmp_path / "out"
    assert main(["landscape", "--sk", *grid, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded: a ") and err.count("\n") == 1
    assert "4096 x 4096" in err
    assert not out.exists()


def test_grid_cap_counts_points(tmp_path, monkeypatch):
    # the product of the two counts is capped, not each count
    monkeypatch.setattr(cli, "_GRID_MAX_POINTS", 6)
    argv = ["landscape", "--sk", "--beta=0:1:2", "--out"]
    assert main(argv + [str(tmp_path / "a"), "--gamma=0:1:3"]) == 0
    assert main(argv + [str(tmp_path / "b"), "--gamma=0:1:4"]) == 3
    assert not (tmp_path / "b").exists()


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

    def test_default_mode_is_infinite(self, tmp_path):
        argv = ["landscape", "--sk", "--beta=0:1:2", "--gamma=0:1:2"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["modes"] == ["infinite"]
        assert [e["path"] for e in manifest["outputs"]] == ["landscape_sk_infinite.csv"]

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
        limit = closed_form.energy_sigma_grid(model.pure_d_spec(20), betas, gammas)
        assert max(abs(v - w) for r, s in zip(rows, limit) for v, w in zip(r, s)) <= 1e-14

    @pytest.mark.parametrize("mode", ["finite:abc", "instance:x:1"])
    def test_malformed_mode_numbers_exit_code(self, tmp_path, mode):
        code = main(["landscape", "--sk", "--mode", mode, "--out", str(tmp_path)])
        assert code == 2
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize(
        "grid",
        [
            "--beta=nan:1:3",
            "--beta=0:inf:3",
            "--gamma=-inf:1:3",
            # finite bounds whose span max - min overflows
            "--beta=-1e308:1e308:3",
            "--gamma=1.7e308:-1.7e308:1",
        ],
    )
    def test_non_finite_grid_exit_code(self, tmp_path, capsys, grid):
        code = main(["landscape", "--sk", grid, "--out", str(tmp_path)])
        assert code == 2
        assert list(tmp_path.glob("*.csv")) == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid.split('=')[0]} ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "modes, repeated",
        [
            (["infinite", "infinite"], "'infinite' repeats 'infinite'"),
            (["finite:8", "infinite", "finite:08"], "'finite:08' repeats 'finite:8'"),
            (["instance:5:1", "instance:05:1"], "'instance:05:1' repeats 'instance:5:1'"),
        ],
    )
    def test_repeated_mode_exit_code(self, tmp_path, capsys, modes, repeated):
        out = tmp_path / "out"
        argv = ["landscape", "--sk", "--beta=0:0.4:2", "--gamma=0:1:2", "--out", str(out)]
        for mode in modes:
            argv += ["--mode", mode]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: --mode {repeated}; each mode writes one file\n"
        assert not out.exists()

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
        # at 6e153 < gamma < 1.3e154 gamma^2 sigma_q^2 is finite but the
        # product gamma (gamma k(t)) is not; a fresh process shows
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

    def test_overflowing_cost_phase_exit_code(self, tmp_path, capsys):
        # (gamma/2) max|H| overflows at gamma = 1.7e308; it used to write a
        # column of NaN after three RuntimeWarnings and exit 0
        out = tmp_path / "out"
        argv = ["landscape", "--pure-d", "3", "--mode", "instance:8:1", "--beta=0:1:2",
                "--gamma=1e300:1.7e308:2", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma 1.7e+308 overflows the cost phase")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_numerical_self_check_exit_code(self, tmp_path, capsys, monkeypatch):
        # injected fault: the lambda^2 weight R short by 1 gives a negative
        # variance; the infinite grid written first must be removed with the rest
        real = finite_n._weights

        def short(*args):
            k, r = real(*args)
            return k, r - 1.0

        monkeypatch.setattr(finite_n, "_weights", short)
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

    @pytest.mark.parametrize(
        "value", ["inf", "nan", "1.7e308"], ids=["inf", "nan", "near-overflow"]
    )
    def test_bad_coupling_values_exit_code(self, tmp_path, capsys, value):
        path = tmp_path / "instance.txt"
        path.write_text(f"n=2 d=1 sigmas=1.0 seed=0\n1 1 {value}\n1 2 -1.5e308\n")
        out = tmp_path / "out"
        assert main(["fit-spec", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_tiny_couplings_fit_without_underflow(self, tmp_path, capsys):
        path = tmp_path / "instance.txt"
        path.write_text("n=2 d=1 sigmas=1.0 seed=0\n1 1 3e-200\n1 2 -4e-200\n")
        assert main(["fit-spec", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split(":")[1]) == pytest.approx(3.5355339e-200)
        assert "AllZero" not in out

    def test_all_zero_couplings_keep_the_header_sigmas(self, tmp_path, capsys):
        path = tmp_path / "instance.txt"
        path.write_text("n=2 d=1 sigmas=0.7 seed=0\n1 1 0.0\n1 2 0.0\n")
        assert main(["fit-spec", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "sigmas: 0.7"
        assert "warning: AllZero" in out

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

    def test_sample_writes_the_instance_text_in_blocks(self, tmp_path, monkeypatch):
        # 30 + 435 + 4060 coupling lines in blocks of at most 100
        monkeypatch.setattr(model, "_TEXT_BLOCK", 100)
        pieces = []
        write_lines = cli._Outputs.write_lines

        def recording(self, name, lines):
            if name.endswith(".txt"):
                lines = (pieces.append(piece) or piece for piece in lines)
            write_lines(self, name, lines)

        monkeypatch.setattr(cli._Outputs, "write_lines", recording)
        argv = ["sample", "--sigmas", "0.3,0.5,1.0", "--n", "30", "--seed", "7",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        spec = model.make_mixture_spec(3, [0.3, 0.5, 1.0])
        text = model.instance_to_text(model.sample_instance(spec, 30, 7))
        assert (tmp_path / "instance_mix_n30_seed7.txt").read_bytes() == text.encode()
        assert "".join(pieces) == text
        assert len(pieces) == 1 + 1 + 5 + 41
        assert max(piece.count("\n") for piece in pieces) == 100


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

    def test_unknown_level_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--level", "bogus", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: level must be 'quick' or 'full', got 'bogus'"]
        assert not out.exists()

    def test_unknown_level_or_check_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="level must be"):
            verify.run("bogus")
        with pytest.raises(ValidationError, match="unknown check 'bogus'"):
            verify.run_check("bogus")

    def test_each_level_runs_its_pinned_checks(self):
        names = {
            level: [name for name, _, levels in verify.CHECKS if level in levels]
            for level in verify.LEVELS
        }
        assert names == {
            "quick": ["sk_optimum", "form_equivalence", "oracle_match_n6"],
            "full": [
                "sk_optimum",
                "d3_optimum",
                "approximation_factor",
                "optimizer_scan",
                "form_equivalence",
                "oracle_equivalence",
                "combinatorial_identities",
                "infinite_n_convergence",
                "concentration",
                "monte_carlo_consistency",
                "statevector_consistency",
                "infinite_grid_consistency",
                "finite_grid_consistency",
                "infinite_limit",
                "concentration_rate",
                "manifest_round_trip",
            ],
        }

    def test_help_lists_every_level(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        help_text = capsys.readouterr().out
        assert all(level in help_text for level in verify.LEVELS)

    def test_manifest_round_trip_prints_nothing(self, capsys):
        res = verify.run_check("manifest_round_trip")
        assert res.passed, res.details
        assert res.details["in_place_rerun_ok"] is True
        assert capsys.readouterr() == ("", "")

    def test_manifest_round_trip_fails_a_rerun_that_keeps_the_old_tail(self, monkeypatch):
        # with no file taken for a regular one, a rewrite is never cut to length
        monkeypatch.setattr(cli.stat, "S_ISREG", lambda mode: False)
        res = verify.run_check("manifest_round_trip")
        assert not res.passed
        assert res.details == {
            "outputs": 2,
            "digests_ok": True,
            "byte_identical_rerun": True,
            "in_place_rerun_ok": False,
        }


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


def test_outputs_are_digested_from_memory(tmp_path, monkeypatch):
    # the manifest reads no file back, and the directory is made once
    made = []
    real_mkdir = Path.mkdir

    def counted_mkdir(self, *args, **kwargs):
        made.append(self)
        return real_mkdir(self, *args, **kwargs)

    def no_read_back(self, *args, **kwargs):
        raise AssertionError(f"read back {self}")

    monkeypatch.setattr(Path, "mkdir", counted_mkdir)
    monkeypatch.setattr(Path, "read_bytes", no_read_back)
    monkeypatch.setattr(Path, "read_text", no_read_back)
    out = tmp_path / "out"
    argv = [
        "landscape", "--pure-d", "2..3", "--beta=0:0.4:2", "--gamma=0:1:2",
        "--mode", "infinite", "--mode", "finite:8", "--out", str(out),
    ]
    assert main(argv) == 0
    assert made == [out]
    monkeypatch.undo()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["outputs"]) == 4
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


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


def _run_main(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``, argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


_PARSE_CASES = [
    [], ["--help"], ["--version"], ["landscape", "--help"], ["optimize", "--help"],
    ["optimize", "--bogus"], ["lanscape"], ["optimize", "--sk", "--ground-state", "x"],
    ["sample", "--sk"], ["fit-spec"], ["verify", "--level"],
    ["landscape", "--sk", "--beta", "1:2"], ["optimize", "--sk", "--sigmas", "1"],
    *([command, "-h"] for command in _COMMANDS),
    # left over by the command's parser, so parsed again by the full one
    ["landscape", "--sk", "--version"], ["landscape", "--sk", "extra"],
    ["landscape", "--", "--sk"], ["optimize", "--pure", "3", "--bogus"],
    # help and errors of the command's parser come before any leftover
    ["optimize", "--bogus", "--help"], ["sample", "--sk", "--n", "x"],
    # top-level options before a command name
    ["--version", "landscape"], ["-h", "optimize"],
    # not clean: argparse's own errors
    ["optimize", "--sk", "--ground-state"], ["optimize", "--sk=1"], ["fit-spec", "a", "b"],
    ["sample", "--sk", "--n=x"], ["verify", "--level=quick", "extra"], ["landscape", "-h", "--sk"],
    ["optimize", "--sk", "--ground-state", "--out"], ["sample", "--sk", "--n", "5", "--n"],
]


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_a_command_parses_as_with_every_command_built(tmp_path, capsys, monkeypatch, argv):
    # main prints the same help, usage errors and exit codes as it would with
    # the full parser's own parse_args
    monkeypatch.chdir(tmp_path)
    got = _run_main(argv, capsys)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    assert got == _run_main(argv, capsys)
    assert got[0] in (0, 2) and "Traceback" not in got[2]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["optimize", "--pure-d", "2..8"],
    ["optimize", "--sigmas", "0.3,0.5", "--ground-state", "-0.7"],
    ["landscape", "--sk", "--beta=0:1:3", "--mode", "finite:64", "--mode", "instance:10:3"],
    ["sample", "--sk", "--n", "6", "--seed", "3"],
    ["fit-spec", "f.txt"],
    ["verify", "--level", "quick"],
    ["optimize", "--pure", "3"],
], ids=" ".join)
def test_a_command_parses_to_the_full_parsers_namespace(argv):
    full = vars(cli._build_parser().parse_args(argv))
    assert vars(cli._parse(argv)) == full
    assert full["command"] == argv[0] and full["func"].__name__.startswith("cmd_")


@pytest.mark.parametrize("argv, error", [
    (["lanscape"], "argument command: invalid choice: 'lanscape'"),
    (["optimize", "--sk", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_errors_list_every_command(capsys, argv, error):
    code, out, err = _run_main(argv, capsys)
    assert (code, out) == (2, "")
    usage, message = err.splitlines()
    assert usage == "usage: msqaoa [-h] [--version] {landscape,optimize,verify,fit-spec,sample} ..."
    assert message.startswith(f"msqaoa: error: {error}")


def test_a_clean_command_builds_no_parser(tmp_path, capsys, monkeypatch):
    made, added = [], []
    init, add_parser = argparse.ArgumentParser.__init__, argparse._SubParsersAction.add_parser

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.prog)

    def spy_add_parser(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy_add_parser)
    assert main(["optimize", "--sk", "--out", str(tmp_path / "a")]) == 0
    assert (made, added) == ([], [])
    # main() reads the command line from sys.argv
    monkeypatch.setattr(sys, "argv", ["msqaoa", "optimize", "--sk", "--out", str(tmp_path / "b")])
    assert main() == 0
    assert (made, added) == ([], [])
    # any other argv builds the full parser, with every command's subparser
    commands = ["landscape", "optimize", "verify", "fit-spec", "sample"]
    full = (["msqaoa", *(f"msqaoa {name}" for name in commands)], commands)
    code, _, err = _run_main(["optimize", "--sk", "extra"], capsys)
    assert (code, err.splitlines()[-1]) == (2, "msqaoa: error: unrecognized arguments: extra")
    assert (made, added) == full
    made.clear()
    added.clear()
    assert _run_main(["-h"], capsys)[0] == 0
    assert (made, added) == full
    made.clear()
    added.clear()
    # argparse takes a negative value in the space form, as the reader takes --flag=value
    capsys.readouterr()
    assert main(["optimize", "--sk", "--ground-state", "-0.7", "--out", str(tmp_path / "c")]) == 0
    assert (made, added) == full
    printed = capsys.readouterr().out
    assert main(["optimize", "--sk", "--ground-state=-0.7", "--out", str(tmp_path / "d")]) == 0
    assert printed == capsys.readouterr().out and "approximation_factor," in printed
    spaced, equals = (tmp_path / name / "optimum.csv" for name in "cd")
    assert spaced.read_bytes() == equals.read_bytes()


# The flags as add_argument calls, kept as they were before the flag table:
# the reference full parser that help, errors and namespaces are checked against.
def _add_spec_flags(sub) -> None:
    sub.add_argument("--sigmas", help="comma list of per-degree standard deviations")
    sub.add_argument("--cs", help="comma list of mixture coefficients c_q")
    sub.add_argument("--pure-d", help="pure d-spin model(s): D or LO..HI")
    sub.add_argument("--sk", action="store_true", help="standard two-body model (sigma_2 = 1)")


def _landscape_flags(sub) -> None:
    _add_spec_flags(sub)
    sub.add_argument("--beta", default=f"{-math.pi/4}:{math.pi/4}:65",
                     help="beta grid min:max:count")
    sub.add_argument("--gamma", default="-1.5:1.5:65", help="gamma grid min:max:count")
    sub.add_argument("--mode", action="append", default=None,
                     help="infinite | finite:N | instance:N:SEED (repeatable; default infinite)")


def _optimize_flags(sub) -> None:
    _add_spec_flags(sub)
    sub.add_argument("--ground-state", type=float, default=None,
                     help="reference ground-state energy per spin (negative)")


def _verify_flags(sub) -> None:
    sub.add_argument("--level", default="quick", help="quick or full (default quick)")


def _fit_spec_flags(sub) -> None:
    sub.add_argument("instance_file")


def _sample_flags(sub) -> None:
    _add_spec_flags(sub)
    sub.add_argument("--n", type=int, required=True, help="number of spins")
    sub.add_argument("--seed", type=int, default=0, help="reproducibility seed")


def _reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msqaoa", description="Depth-1 QAOA energy per spin on mixed-spin SK models"
    )
    parser.add_argument("--version", action="version", version=cli.__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_flags, handler in (
        ("landscape", "emit (beta, gamma) energy grids as CSV", _landscape_flags,
         cli.cmd_landscape),
        ("optimize", "find optimal angles for a model", _optimize_flags, cli.cmd_optimize),
        ("verify", "run the verification suite", _verify_flags, cli.cmd_verify),
        ("fit-spec", "estimate per-degree sigmas from an instance file", _fit_spec_flags,
         cli.cmd_fit_spec),
        ("sample", "sample a problem instance to a text file", _sample_flags, cli.cmd_sample),
    ):
        sub = subs.add_parser(name, help=help_text)
        add_flags(sub)
        sub.add_argument("--out", default="msqaoa_out", help="output directory")
        sub.set_defaults(command=name, func=handler)
    return parser


_REFERENCE_CASES = _PARSE_CASES + [
    [name, "--help"] for name in _COMMANDS if [name, "--help"] not in _PARSE_CASES
]


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", _REFERENCE_CASES,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_as_the_reference_parser(tmp_path, capsys, monkeypatch, argv, columns):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", columns)
    got = _run_main(argv, capsys)
    monkeypatch.setattr(cli, "_parse", lambda argv: _reference_parser().parse_args(argv))
    assert got == _run_main(argv, capsys)
    assert not any(tmp_path.iterdir())


def _parse_quietly(parse, argv):
    """``parse(argv)``, or the (exit code, stdout, stderr) it exits with."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


# values for any flag: valid for some, empty, negative, flag-like or unconvertible
_VALUES = ["3", "2..4", "0.5,1", "-0.7", "-1", "", "x", "quick", "finite:8", "0:1:3", "a=b",
           "--sk", "f.txt"]
_OTHER_TOKENS = ["--", "-h", "--help", "--version", "extra", "--bogus", "--bogus=1", "-", ""]


@st.composite
def _argvs(draw):
    """A command line made from one command's own flags, and now and then
    something else: prefixes, stray tokens, a top-level flag first."""
    name, _, flags, _ = draw(st.sampled_from(cli._COMMANDS))
    options = {flag: kwargs for flag, kwargs in flags if flag.startswith("-")}
    argv = [draw(st.sampled_from([name] * 15 + ["-h", "--version", "lanscape"]))]
    for _ in range(draw(st.integers(0, 6))):
        form = draw(st.sampled_from(["space"] * 4 + ["equals"] * 4 + ["bare", "prefix", "other"]))
        # "3" is a valid value of every flag
        flag = draw(st.sampled_from(list(options)))
        value = draw(st.sampled_from(["3"] * 8 + _VALUES))
        if form == "space" and options[flag].get("action") == "store_true":
            form = "bare"
        if form == "prefix" and len(flag) > 3:
            flag = flag[: draw(st.integers(3, len(flag) - 1))]
        if form == "other":
            argv.append(draw(st.sampled_from(_OTHER_TOKENS)))
        elif form == "equals":
            argv.append(f"{flag}={value}")
        elif form == "bare":
            argv.append(flag)
        else:
            argv += [flag, value]
    return argv


@given(_argvs())
@settings(max_examples=600, deadline=None)
def test_a_command_line_parses_as_with_the_reference_parser(argv):
    # main parses with cli._parse first, so it exits wherever that exits
    want = _parse_quietly(_reference_parser().parse_args, argv)
    got = _parse_quietly(cli._parse, argv)
    if isinstance(want, argparse.Namespace):
        assert isinstance(got, argparse.Namespace) and vars(got) == vars(want)
    else:
        assert got == want


def _benchmark_argvs() -> list:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        [*op["argv"], "--out", "out"]
        for workload in workloads.GENERATORS
        for seed in (1, 2, 3)
        for op in workloads.generate(workload, seed)
        if op["kind"] == "cli"
    ]


def test_every_benchmark_command_is_read_without_argparse(monkeypatch):
    argvs = _benchmark_argvs()
    want = [vars(_reference_parser().parse_args(argv)) for argv in argvs]

    def no_parser(self, *args, **kwargs):
        raise AssertionError("built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
    assert [vars(cli._parse(argv)) for argv in argvs] == want
    assert {argv[0] for argv in argvs} == {"landscape", "optimize"}


def test_grid_csv_is_written_a_row_at_a_time(tmp_path):
    betas, gammas = np.array([0.0, 0.5, 1.0]), np.array([-1.0, 1.0])
    values = np.array([[0.0, 0.25], [0.125, -0.5], [1e-300, 2.0]])
    lines = cli._grid_csv(betas, gammas, values.__getitem__)
    assert next(lines) == "beta,-1.0,1.0\n"
    rest = list(lines)
    assert rest == ["0.0,0.0,0.25\n", "0.5,0.125,-0.5\n", "1.0,1e-300,2.0\n"]
    with cli._Outputs(str(tmp_path)) as outputs:
        outputs.write_lines("a.csv", cli._grid_csv(betas, gammas, values.__getitem__))
        outputs.write_text("b.csv", "beta,-1.0,1.0\n" + "".join(rest))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert a.read_bytes() == b.read_bytes()
    digest = hashlib.sha256(a.read_bytes()).hexdigest()
    assert outputs.digests == [digest, digest]


def _manifest_digests_match(out: Path) -> bool:
    manifest = json.loads((out / "manifest.json").read_text())
    return all(
        hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest() == entry["sha256"]
        for entry in manifest["outputs"]
    )


@pytest.mark.parametrize("first, rerun", [
    (["landscape", "--sk"], ["landscape", "--sk", "--beta=0:1:3", "--gamma=-1:1:3"]),
    (["optimize", "--pure-d", "2..8"], ["optimize", "--pure-d", "2"]),
], ids=["landscape", "optimize"])
def test_a_shorter_rerun_leaves_exactly_the_new_bytes(tmp_path, capsys, first, rerun):
    # every file of the rerun is shorter than the one it writes over in place,
    # so each must be cut to length after its last byte
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(first + ["--out", str(out)]) == 0
    sizes = {path.name: path.stat().st_size for path in out.iterdir()}
    assert main(rerun + ["--out", str(out)]) == 0
    assert main(rerun + ["--out", str(fresh)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
    for path in fresh.iterdir():
        got, want = (out / path.name).read_bytes(), path.read_bytes()
        assert len(want) < sizes[path.name]
        if path.name == "manifest.json":  # the timestamp is the one byte difference allowed
            assert got.count(b'"timestamp": ') == 1
            stamp = [json.loads(data)["timestamp"].encode() for data in (got, want)]
            got = got.replace(*stamp)
        assert got == want
    assert _manifest_digests_match(out)


def test_outputs_are_rewritten_in_place(tmp_path, monkeypatch):
    # no output is opened with O_TRUNC: an existing file keeps its inode and
    # permission bits, and a hard link or symlink to it sees the new bytes
    out = tmp_path / "out"
    out.mkdir()
    old = out / "a.csv"
    old.write_text("old bytes, longer than the new ones\n")
    old.chmod(0o600)
    inode = old.stat().st_ino
    os.link(old, tmp_path / "hard.csv")
    target = tmp_path / "target.csv"
    target.write_text("the old target, also longer\n")
    (out / "b.csv").symlink_to(target)
    opened = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((Path(path).name, flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    with cli._Outputs(str(out)) as outputs:
        outputs.write_text("a.csv", "new\n")
        outputs.write_text("b.csv", "linked\n")
        outputs.write_text("c.csv", "fresh\n")
        outputs.manifest("test", {})
    monkeypatch.undo()
    assert [name for name, _ in opened] == ["a.csv", "b.csv", "c.csv", "manifest.json"]
    want = os.O_WRONLY | os.O_CREAT | getattr(os, "O_CLOEXEC", 0)
    assert all(not flags & os.O_TRUNC and flags & want == want for _, flags in opened)
    assert old.read_text() == "new\n"
    assert old.stat().st_ino == inode
    assert old.stat().st_mode & 0o777 == 0o600
    assert (tmp_path / "hard.csv").read_text() == "new\n"
    assert (out / "b.csv").is_symlink() and target.read_text() == "linked\n"
    assert (out / "c.csv").read_text() == "fresh\n"
    assert _manifest_digests_match(out)


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
def test_an_output_symlinked_to_dev_null_is_written_through(tmp_path, capsys):
    # /dev/null cannot be cut to length; it is written without the cut
    out = tmp_path / "out"
    out.mkdir()
    (out / "optimum.csv").symlink_to(os.devnull)
    assert main(["optimize", "--sk", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "optimum.csv").is_symlink()
    assert os.readlink(out / "optimum.csv") == os.devnull
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_an_empty_out_is_refused(tmp_path, capsys, monkeypatch, command):
    # Path("") is the working directory; an empty --out must not write there
    argv = list(_COMMANDS[command])
    if command == "fit-spec":
        assert main(["sample", "--sk", "--n", "5", "--out", str(tmp_path / "inst")]) == 0
        argv.append(str(next((tmp_path / "inst").glob("instance_*.txt"))))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    capsys.readouterr()
    for out in (["--out", ""], ["--out="]):
        assert main(argv + out) == 2
        assert capsys.readouterr().err.splitlines() == ["error: --out needs a directory, got ''"]
    assert list(cwd.iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=12), max_size=12), st.integers(1, 9))
def test_chunks_join_to_the_encoded_lines(lines, size):
    chunks = list(cli._chunks(lines, size))
    assert b"".join(chunks) == "".join(lines).encode()
    texts = [chunk.decode() for chunk in chunks]
    assert all(len(text) == size for text in texts[:-1])
    assert all(0 < len(text) <= size for text in texts)


def test_a_landscape_larger_than_one_chunk(tmp_path, capsys, monkeypatch):
    # CSVs of 2.3 and 2.1 MB take three and two chunks; rewritten in place
    # over a longer file and over a shorter one, each must hold exactly a
    # fresh run's bytes
    big = ["landscape", "--sk", "--beta=0:1:1200", "--gamma=-1:1:100"]
    smaller = ["landscape", "--sk", "--beta=0:1:1000", "--gamma=-1:1:100"]
    name = "landscape_sk_infinite.csv"
    writes = []
    real_write = os.write

    def counted(fd, data):
        writes.append(len(data))
        return real_write(fd, data)

    out = tmp_path / "out"
    for step, argv in enumerate([big, smaller, big]):
        monkeypatch.setattr(os, "write", counted)
        writes.clear()
        old_size = (out / name).stat().st_size if out.exists() else 0
        assert main(argv + ["--out", str(out)]) == 0
        monkeypatch.undo()
        fresh = tmp_path / f"fresh{step}"
        assert main(argv + ["--out", str(fresh)]) == 0
        got, want = (out / name).read_bytes(), (fresh / name).read_bytes()
        assert len(want) > cli._CHUNK and len(want) != old_size
        assert len(got) == len(want) and got == want
        assert max(writes) <= cli._CHUNK and len(writes) >= 3  # the CSV's and the manifest
        assert _manifest_digests_match(out)
    capsys.readouterr()


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300])
    | st.text()
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_LEAVES,
    lambda children: (
        st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCUMENTS)
def test_json_text_is_json_dumps(doc):
    # the formatter behind every JSON file, against json.dumps itself; the
    # suite also checks every document it formats (tests/conftest.py)
    real = getattr(cli._json_text, "__wrapped__", cli._json_text)
    assert real(doc) == json.dumps(doc, indent=2)


def test_json_text_refuses_what_json_dumps_refuses():
    real = getattr(cli._json_text, "__wrapped__", cli._json_text)
    for doc in ({"a": np.float32(1.0)}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            real(doc)


def repr_grid_csv(betas, gammas, values):
    """The reference for every grid CSV: one repr per value, joined per row,
    as ``_grid_csv`` wrote every grid before its vectorized kernel."""
    yield "beta," + ",".join(map(repr, gammas.tolist())) + "\n"
    for b, row in zip(betas.tolist(), values):
        yield f"{b!r}," + ",".join(map(repr, row.tolist())) + "\n"


def repr_rows(values) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(values).tolist())


def repr_kernel():
    """``cli._repr_rows`` itself, not the suite's checking wrapper
    (tests/conftest.py)."""
    return getattr(cli._repr_rows, "__wrapped__", cli._repr_rows)


def test_repr_kernel_matches_repr_over_every_binade():
    # 2^20 values, both signs, mantissas uniform on [1, 2) and binary
    # exponents uniform from -1074 (subnormals, 5e-324) to 1023 (1.8e308)
    rng = np.random.default_rng(20240)
    count = 1 << 20
    values = np.ldexp(1 + rng.random(count), rng.integers(-1074, 1024, count))
    values *= rng.choice([-1.0, 1.0], count)
    assert values.min() < -1e307 and values.max() > 1e307
    assert np.abs(values).min() == 5e-324
    for block in np.split(values.reshape(-1, 64), 16):
        assert repr_kernel()(block) == repr_rows(block)


def test_repr_kernel_matches_repr_on_grid_like_values():
    # the classes closed-form grids hold: energies of a few to 17 digits,
    # tiny exponent-form values near the axes, zeros and integers
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.uniform(-1, 1, 20000), rng.uniform(-1, 1, 20000) * 1e-17,
        [round(v, int(d)) for v, d in zip(rng.uniform(-1, 1, 5000), rng.integers(1, 16, 5000))],
        rng.integers(-10**6, 10**6, 5000).astype(float), np.zeros(100), -np.zeros(100),
    ])
    rng.shuffle(values)
    block = values.reshape(-1, 40)
    assert repr_kernel()(block) == repr_rows(block)


REPR_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308,
    float(np.nextafter(2.2250738585072014e-308, 0)), float(np.nextafter(2.2250738585072014e-308, 1)),
    1e-4, float(np.nextafter(1e-4, 0)), float(np.nextafter(1e-4, 1)), 9.999999999999999e-05,
    1e16, float(np.nextafter(1e16, 0)), float(np.nextafter(1e16, 1e17)), 9999999999999998.0,
    0.1, 0.2, 0.3, 0.1 + 0.2, 1 / 3, 2 / 3, -1 / 3, 1.5, 2.5, 123456.789,
    2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**53 + 4, 2.0**54 + 8, -(2.0**54 + 8), 1e22, 1e23,
    1.7976931348623157e308, -1.7976931348623157e308, 1e308, 1e-307, 1e-308,
    *(2.0**k for k in range(-1074, 1024, 37)), *(-(10.0**k) for k in range(-300, 301, 50)),
    math.inf, -math.inf, math.nan,
]


def test_repr_kernel_matches_repr_on_the_edges():
    row = np.array([REPR_EDGES])
    assert repr_kernel()(row) == repr_rows(row)
    column = row.T
    assert repr_kernel()(column) == repr_rows(column)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 6))
def test_repr_kernel_matches_repr_on_any_floats(values, cols):
    values = np.array(values)
    values = values[: len(values) - len(values) % cols or None].reshape(-1, cols) \
        if len(values) >= cols else values.reshape(1, -1)
    assert repr_kernel()(values) == repr_rows(values)


def test_without_its_margin_the_repr_kernel_misreads_an_even_end(monkeypatch):
    # 2^54 + 8 = 18014398509481992 has an even mantissa and its lower
    # half-ulp end is 18014398509481990, exactly: reading that 16-digit
    # decimal rounds half to even, to 2^54 + 8, so repr writes 16 digits.
    # 1e23 is the same case below a power of ten.  With no margin the kernel
    # takes the end as outside and writes 17; the margin sends both to repr.
    values = np.array([[18014398509481992.0, 1e23]])
    assert repr_kernel()(values) == "1.801439850948199e+16,1e+23\n" == repr_rows(values)
    monkeypatch.setattr(cli, "_REPR_MARGIN", 0.0)
    assert repr_kernel()(values) == "1.8014398509481992e+16,9.999999999999999e+22\n"


def test_repr_kernel_tables_are_exact():
    # for every frexp exponent x: th is the smallest double >= 10^(e0 + 1),
    # and 2^j and 5^j (j = 16 - e, e = e0 + bump) are what the kernel scales by
    from fractions import Fraction

    tables = cli._repr_tables()
    for x in range(-1021, 1025):
        low = Fraction(2) ** (x - 1)  # the binade is [2^(x-1), 2^x)
        e0 = len(str(math.floor(low))) - 1 if low >= 1 else -len(str(math.floor(1 / low)))
        e0 -= Fraction(10) ** e0 > low
        assert Fraction(10) ** e0 <= low < Fraction(10) ** (e0 + 1)
        k = 2 * (x + 1021)
        th = tables["th"][k]
        assert Fraction(float(np.nextafter(th, 0))) < Fraction(10) ** (e0 + 1) <= Fraction(th)
        for bump in (0, 1):
            j = 16 - (e0 + bump)
            p2, ph, pl, b1, b2, _ = tables["scale"][k + bump]
            five = Fraction(5) ** j
            assert p2 == 2.0**j and b1 + b2 == ph
            assert abs(Fraction(ph) + Fraction(pl) - five) <= five / 2**105


def test_repr_kernel_tables_are_built_on_first_use():
    code = (
        "import msqaoa.cli as cli, tempfile\n"
        "assert cli._repr_tables.cache_info().currsize == 0\n"
        "cli.main(['optimize', '--sk', '--out', tempfile.mkdtemp()])\n"
        "cli.main(['landscape', '--sk', '--beta=0:1:15', '--gamma=-1:1:15', '--out', tempfile.mkdtemp()])\n"
        "assert cli._repr_tables.cache_info().currsize == 0\n"
        "cli.main(['landscape', '--sk', '--beta=0:1:16', '--gamma=-1:1:16', '--out', tempfile.mkdtemp()])\n"
        "assert cli._repr_tables.cache_info().currsize == 1\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)


@pytest.mark.parametrize("mode", ["infinite", "finite:64", "instance:8:3"])
def test_landscapes_through_the_kernel_write_the_reference_bytes(tmp_path, monkeypatch, mode):
    # every grid through the kernel, in blocks of four rows, each formatted
    # in chunks of 16 values; the infinite grid is evaluated a block at a time
    from msqaoa import simulator

    monkeypatch.setattr(cli, "_REPR_MIN_VALUES", 0)
    monkeypatch.setattr(cli, "_GRID_BLOCK", 40)
    monkeypatch.setattr(cli, "_REPR_CHUNK", 16)
    blocks, evaluations = [], []
    kernel, evaluate = cli._repr_rows, closed_form.energy_sigma_grid
    monkeypatch.setattr(cli, "_repr_rows", lambda values: blocks.append(values.shape) or kernel(values))
    monkeypatch.setattr(closed_form, "energy_sigma_grid",
                        lambda *args: evaluations.append(len(args[1])) or evaluate(*args))
    spec = model.make_mixture_spec(3, [0.3, 0.5, 1.0])
    argv = ["landscape", "--sigmas", "0.3,0.5,1.0", "--mode", mode,
            "--beta=-1:1:13", "--gamma=-1.5:1.5:9", "--out", str(tmp_path)]
    assert main(argv) == 0
    betas, gammas = np.linspace(-1, 1, 13), np.linspace(-1.5, 1.5, 9)
    if mode == "infinite":
        values, name = evaluate(spec, betas, gammas), "landscape_mix_infinite.csv"
        assert evaluations == [4, 4, 4, 1]
    elif mode == "finite:64":
        values = finite_n.sketch_moment_grid(spec, betas, gammas, 64).first
        name = "landscape_mix_finite_n64.csv"
    else:
        inst = model.sample_instance(spec, 8, 3)
        values = simulator.landscape_instance(inst, betas, gammas)
        name = "landscape_mix_instance_n8_seed3.csv"
    assert blocks == [(4, 10), (4, 10), (4, 10), (1, 10)]
    want = "".join(repr_grid_csv(betas, gammas, values)).encode()
    assert (tmp_path / name).read_bytes() == want


@pytest.mark.parametrize("argv", [
    ["--sk"],
    ["--pure-d", "3", "--beta=-0.8:0.8:36", "--gamma=-1.5:1.5:60"],
    # every text class: zeros, exponent form, |E| >= 1, short decimals
    ["--sigmas", "4,0.5,2", "--beta=-1.6:1.6:129", "--gamma=-1:1:129"],
], ids=["sk-default", "pure3", "every-class"])
def test_infinite_landscapes_write_the_reference_bytes(tmp_path, argv):
    assert main(["landscape", *argv, "--out", str(tmp_path)]) == 0
    [path] = tmp_path.glob("*.csv")
    args = cli._parse(["landscape", *argv])
    [(_, spec)] = cli._specs_from_args(args)
    betas = np.linspace(*cli._parse_grid(args.beta, "beta"))
    gammas = np.linspace(*cli._parse_grid(args.gamma, "gamma"))
    values = closed_form.energy_sigma_grid(spec, betas, gammas)
    assert values.size >= cli._REPR_MIN_VALUES
    assert path.read_bytes() == "".join(repr_grid_csv(betas, gammas, values)).encode()
