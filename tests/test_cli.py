"""CLI subcommands, argument parsing and exit codes."""

import re

import numpy as np
import pytest

from wsurf.catalog import EQUATION_IDS, get_equation, load_user_ode
from wsurf.cli import (_join_negative_literals, _near_singular,
                       _verification_points, parse_complex, parse_grid,
                       run_pipeline)
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
        with pytest.raises(Exception):
            parse_complex("one")

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


# the user equation of the README's "User-defined equations" section
README_ODE = """id = my-equation
params = alpha=2
p = z - 0.5
q = 1.5 - z
r = alpha
singularities = 0.5
"""


def reference_verification_points(ode, data):
    """The points `wsurf verify` checked with its own inline ray test,
    which holds only for horizontal rays."""
    xi0 = complex(ode.default_domain.base_point)
    if _near_singular(data, xi0):
        xi0 = xi0 + 0.5j
    offsets = (0j, 0.2 + 0.15j, -0.15 + 0.3j, 0.1 - 0.2j, 0.3 + 0.4j,
               -0.25 - 0.1j)
    points = []
    for off in offsets:
        z = xi0 + off
        if _near_singular(data, z, margin=0.1):
            continue
        if ode.valid_region is not None and not ode.valid_region(z):
            continue
        if any(abs((z - a).imag) < 1e-9 and ((z - a) * np.conj(d)).real > 0
               for a, d in data.cut_rays):
            continue
        points.append(z)
    return points


@pytest.mark.parametrize("ode", list(EQUATION_IDS) + ["readme"])
def test_verification_points_unchanged(ode):
    ode = load_user_ode(README_ODE) if ode == "readme" else get_equation(ode)
    data = make_data(ode)
    points = _verification_points(ode, data)
    assert points
    assert points == reference_verification_points(ode, data)


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

    def test_tolerance_env_honored(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WSURF_TOL", "1e-8")
        out = tmp_path / "s.obj"
        code = run_pipeline([
            "surface", "--eq", "laguerre",
            "--grid", "polar:0.5,2,0,3.0,4,4", "--out", str(out)])
        assert code == 0
