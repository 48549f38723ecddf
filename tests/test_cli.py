"""CLI subcommands, argument parsing and exit codes."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import wsurf.cli as cli
from wsurf.catalog import (DEFAULT_PARAMS, EQUATION_IDS, get_equation,
                           parse_user_ode)
from wsurf.cli import (_join_negative_literals, _near_singular,
                       _verification_points, parse_complex, parse_grid,
                       run_pipeline)
from wsurf.immersion import RESIDUAL_COLUMNS
from wsurf.weierstrass import make_data

USER_ODE = """id = mylag
params = alpha=1
p = z
q = 1 - z
r = alpha
singularities = 0
"""


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("-1+0i") == -1 + 0j
        assert parse_complex("2") == 2 + 0j
        assert parse_complex("-0.5i") == -0.5j
        for text in ("one", "nan", "nan+1i", "1e999", "1-nani", "inf"):
            with pytest.raises(ValueError):
                parse_complex(text)

    def test_parse_grid(self):
        kind, ranges, res = parse_grid("polar:0.1,3,0,6.28,50,60")
        assert kind == "polar"
        assert ranges == ((0.1, 3.0), (0.0, 6.28))
        assert res == (50, 60)
        with pytest.raises(Exception):
            parse_grid("spherical:0,1,0,1,5,5")
        with pytest.raises(Exception):
            parse_grid("polar:0,1,0,1,5")

    def test_join_negative_literals(self):
        argv = ["verify", "--lambda", "-1+0i", "--c1", "1+0i"]
        assert _join_negative_literals(argv) == \
            ["verify", "--lambda=-1+0i", "--c1", "1+0i"]
        # genuine flags are left untouched
        argv = ["surface", "--out", "-x"]
        assert _join_negative_literals(argv) == argv


class TestList:
    def test_lists_all_equations(self, capsys):
        assert run_pipeline(["list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 10
        assert any(line.startswith("laguerre:") for line in out)


class TestSurface:
    def test_small_laguerre_obj(self, tmp_path, capsys):
        out = tmp_path / "s.obj"
        code = run_pipeline([
            "surface", "--eq", "laguerre",
            "--grid", "polar:0.1,3,0,6.283185307179586,10,10",
            "--out", str(out)])
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "100 vertices" in printed
        text = out.read_text()
        assert "nan" not in text

    def test_format_from_extension(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_pipeline([
            "surface", "--eq", "laguerre",
            "--grid", "polar:0.5,2,0,3.0,4,4", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("re,im,F1,F2,F3,u,absQ,H_residual")

    def test_empty_mesh_exit_code(self, tmp_path):
        code = run_pipeline([
            "surface", "--eq", "laguerre",
            "--grid", "cartesian:-0.01,0.01,-0.01,0.01,2,2",
            "--out", str(tmp_path / "x.obj")])
        assert code == 1

    def test_user_ode_file(self, tmp_path):
        ode_file = tmp_path / "eq.txt"
        ode_file.write_text(USER_ODE)
        out = tmp_path / "u.obj"
        code = run_pipeline([
            "surface", "--ode-file", str(ode_file),
            "--grid", "polar:0.5,1.5,0.3,2.8,4,4", "--xi0", "1+0i",
            "--out", str(out)])
        assert code == 0
        assert out.exists()


class TestVerify:
    def test_chebyshev_reference_invocation(self):
        code = run_pipeline([
            "verify", "--eq", "chebyshev1", "--param", "n=1",
            "--lambda", "-1+0i", "--c1", "1+0i", "--c2", "0+0i"])
        assert code == 0

    def test_prints_residual_lines(self, capsys):
        run_pipeline(["verify", "--eq", "laguerre"])
        out = capsys.readouterr().out
        for name in ("weierstrass", "linear_problem", "wavefunction_dbar",
                     "conformality", "metric", "mean_curvature",
                     "hopf_holomorphy", "liouville"):
            assert re.search(rf"^{name}: max residual .* ok$", out,
                             re.MULTILINE), name

    def test_ode_file_name_with_equals_sign(self, tmp_path):
        # an "=" in the path used to make the path itself parse as the ODE
        ode_file = tmp_path / "alpha=2.ode"
        ode_file.write_text(README_ODE)
        assert run_pipeline(["verify", "--ode-file", str(ode_file)]) == 0

    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_catalog_outcome(self, eq, capsys):
        # every catalog id passes every residual line
        code = run_pipeline(["verify", "--eq", eq])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and len(lines) == 9
        assert all(line.endswith(" ok") for line in lines), lines

    def test_parsed_state_does_not_leak(self, monkeypatch, capsys):
        # the parser is built once per process: the --param of one call
        # must not reach the next, which runs hermite at its default n
        seen = []
        real = cli.get_equation
        monkeypatch.setattr(cli, "get_equation", lambda eq, params: (
            seen.append(params) or real(eq, params)))
        n = DEFAULT_PARAMS["hermite"]["n"]
        runs = [["--param", "n=2"], [], ["--param", f"n={n}"]]
        outs = []
        for extra in runs:
            assert run_pipeline(["verify", "--eq", "hermite", *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert seen == [{"n": 2.0}, {}, {"n": n}]
        assert outs[1] == outs[2] != outs[0]

    def test_nan_linear_problem_residual_fails(self, monkeypatch, capsys):
        real = cli.lp_residual

        def with_nan(data, wf, z):
            res, dbar = real(data, wf, z)
            res[len(res) // 2] = np.nan
            return res, dbar

        monkeypatch.setattr(cli, "lp_residual", with_nan)
        assert run_pipeline(["verify", "--eq", "laguerre"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^linear_problem: max residual nan .* FAIL$", out,
                         re.MULTILINE)
        assert re.search(r"^wavefunction_dbar: .* ok$", out, re.MULTILINE)

    def test_nan_geometry_residual_fails(self, monkeypatch, capsys):
        real = cli.geometry_report

        def with_nan(data, xi, **kwargs):
            rep = real(data, xi, **kwargs)
            curvature = rep.mean_curvature.copy()
            curvature[-1] = np.nan
            return dataclasses.replace(rep, mean_curvature=curvature)

        monkeypatch.setattr(cli, "geometry_report", with_nan)
        assert run_pipeline(["verify", "--eq", "laguerre"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^mean_curvature: max residual nan .* FAIL$", out,
                         re.MULTILINE)
        assert re.search(r"^conformality: .* ok$", out, re.MULTILINE)


# the user equation of the README's "User-defined equations" section
README_ODE = """id = my-equation
params = alpha=2
p = z - 0.5
q = 1.5 - z
r = alpha
singularities = 0.5
"""


def reference_verification_points(ode):
    """The points `wsurf verify` checked with its own inline ray test,
    which holds only for horizontal rays."""
    xi0 = complex(ode.default_domain.base_point)
    if _near_singular(ode, xi0):
        xi0 = xi0 + 0.5j
    offsets = (0j, 0.2 + 0.15j, -0.15 + 0.3j, 0.1 - 0.2j, 0.3 + 0.4j,
               -0.25 - 0.1j)
    points = []
    for off in offsets:
        z = xi0 + off
        if _near_singular(ode, z, margin=0.1):
            continue
        if ode.valid_region is not None and not ode.valid_region(z):
            continue
        if any(abs((z - a).imag) < 1e-9 and ((z - a) * np.conj(d)).real > 0
               for a, d in ode.cut_rays):
            continue
        points.append(z)
    return points


@pytest.mark.parametrize("ode", list(EQUATION_IDS) + ["readme"])
def test_verification_points_unchanged(ode):
    ode = parse_user_ode(README_ODE) if ode == "readme" else get_equation(ode)
    points = _verification_points(make_data(ode))
    assert points
    assert points == reference_verification_points(ode)


class TestSample:
    def test_laguerre_sample(self, capsys):
        code = run_pipeline(["sample", "--eq", "laguerre", "--xi", "2+1i"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.count("\n") == 0
        fields = dict(item.split("=", 1) for item in out.split())
        assert fields["z"] == "2+1i"
        # Q = 1/z = 0.4 - 0.2i for the laguerre pair
        assert fields["Q"] == "0.4-0.2i"
        for key in ("F1", "F2", "F3", "u", "conformality", "liouville"):
            assert key in fields

    def test_prints_every_residual_column(self, capsys):
        # the Hopf residual |F_zz . N - Q| among them
        assert run_pipeline(["sample", "--eq", "laguerre", "--xi", "2+1i"]) == 0
        fields = dict(item.split("=", 1)
                      for item in capsys.readouterr().out.split())
        assert set(RESIDUAL_COLUMNS) <= set(fields)
        assert float(fields["hopfResidual"]) <= 1e-10


class TestSampleAnchor:
    def test_user_ode_built_at_xi0(self, tmp_path, capsys):
        # the default base point 0 is the user ODE's singular point
        ode_file = tmp_path / "s.ode"
        ode_file.write_text("p = z\nq = 1 - z\nr = 1\nsingularities = 0\n")
        assert run_pipeline(["sample", "--ode-file", str(ode_file),
                             "--xi0", "1+1i", "--xi", "2+1i"]) == 0
        fields = dict(item.split("=", 1)
                      for item in capsys.readouterr().out.split())
        assert fields["z"] == "2+1i"


def _cli(args, cwd, timeout=60):
    """wsurf in a child process, so that a hang fails instead of stalling
    the suite."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "wsurf.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_start_does_not_import_scipy_integrate(tmp_path):
    # linearproblem.solve_ivp (the benchmark tracer's name) is imported on
    # first access, so a CLI start loads neither scipy.integrate nor
    # scipy.optimize; the name still resolves to scipy's function
    script = ("import sys\n"
              "import wsurf.cli\n"
              "print('scipy.integrate' in sys.modules)\n"
              "import scipy.integrate\n"
              "import wsurf.linearproblem as lp\n"
              "print(lp.solve_ivp is scipy.integrate.solve_ivp)\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


class TestNonFinite:
    def test_rhs_not_finite_at_transport_start(self, tmp_path):
        # r = z/z is nan at the base point 0, where the transport starts
        ode_file = tmp_path / "nan.ode"
        ode_file.write_text("p = 1\nq = 0\nr = z/z\n")
        done = _cli(["verify", "--ode-file", str(ode_file)], tmp_path)
        assert done.returncode == 1
        assert "not finite at z=0j" in done.stderr

    def test_nan_param_is_a_usage_error(self, tmp_path):
        done = _cli(["verify", "--eq", "hermite", "--param", "n=nan"],
                    tmp_path)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["--c1", "nan"], ["--c2", "1e999"], ["--lambda", "nan+1i"],
        ["--xi0", "nan"], ["--xi", "nan"], ["--param", "alpha=inf"],
        ["--param", "alpha=x"], ["--param", "alpha"]])
    def test_bad_numbers_exit_2(self, argv):
        assert run_pipeline(["sample", "--eq", "laguerre", "--xi", "2+1i",
                             *argv]) == 2


class TestErrorHandling:
    def test_missing_equation(self):
        assert run_pipeline(["verify"]) == 2

    def test_unknown_subcommand(self):
        assert run_pipeline(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert run_pipeline(["--help"]) == 0

    def test_bad_grid(self, tmp_path):
        code = run_pipeline(["surface", "--eq", "laguerre",
                             "--grid", "bogus", "--out",
                             str(tmp_path / "x.obj")])
        assert code == 2

    def test_bad_tolerance_env(self, monkeypatch):
        monkeypatch.setenv("WSURF_TOL", "not-a-number")
        assert run_pipeline(["list"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-8"])
    def test_tolerance_env_must_be_finite_and_positive(self, monkeypatch,
                                                       capsys, value):
        monkeypatch.setenv("WSURF_TOL", value)
        assert run_pipeline(["list"]) == 2
        assert "WSURF_TOL" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "id = laguerre\np = z\nq = 1 - z\nr = 2\n",
        "id = bessel\np = z^2\nq = z\nr = z^2\n",
        "p = z +\nq = 1\nr = 1\n",
        "p =\nq = 1\nr = 1\n",
        "p = z\nq = 1 - z\nr = 1\nsingularities = nan\n",
        "p = z\nq = 1 - z\nr = 1\nsingularities = 0, 1e999\n",
    ], ids=["catalog-id", "catalog-id-missing-param", "dangling-operator",
            "empty-coefficient", "nan-singularity", "inf-singularity"])
    def test_hostile_ode_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ode"
        path.write_text(text)
        assert run_pipeline(["verify", "--ode-file", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_tolerance_env_honored(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WSURF_TOL", "1e-8")
        out = tmp_path / "s.obj"
        code = run_pipeline([
            "surface", "--eq", "laguerre",
            "--grid", "polar:0.5,2,0,3.0,4,4", "--out", str(out)])
        assert code == 0
