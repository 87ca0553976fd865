import ast
import functools
import io
import json
import os
import stat
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlift import cli, constants, lifting, verify
from bvlift.cli import main
from bvlift.constants import avg_eucl_jump_closed, avg_lifted_dist_closed
from bvlift.fields import (EnergyReport, GridField, _face_data,
                           avg_directional_energy, embedded_tv,
                           mollified_energy, mollified_energy_extrapolated,
                           read_field, write_field)
from bvlift.geometry import lift_sign, random_unit_vectors
from bvlift.verify import make_half_vortex
from test_fields import write_raw_field


def run(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as e:  # argparse rejections also mean bad input
        return e.code


def assert_one_error_line(capfd, path=None):
    # fd-level capture also sees output printed below Python
    _, err = capfd.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert path is None or str(path) in err, err


def must_not_run(*args, **kwargs):
    raise AssertionError("computed before the output path was checked")


@pytest.fixture
def hv_path(tmp_path):
    p = tmp_path / "hv.fld"
    write_field(make_half_vortex(64), p)
    return p


@pytest.fixture
def seq_path(tmp_path):
    """A masked line field on seven cells of an interval."""
    angles = np.deg2rad([0, 60, 120, 95, 10, 170, 181])
    vals = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    p = tmp_path / "seq.fld"
    write_field(GridField((7,), 1 / 7, (0.0,), "proj", vals,
                          [1, 1, 0, 1, 1, 1, 0]), p)
    return p


def test_cli_imports_no_numpy_and_no_private_name():
    # the CLI is a thin shell: fields and liftings come from public calls
    tree = ast.parse(Path(cli.__file__).read_text())
    modules = set()  # local names bound to bvlift modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "numpy", alias.name
                if alias.name.startswith("bvlift"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "numpy", node.module
            if node.level == 0 and not node.module.startswith("bvlift"):
                continue
            for alias in node.names:
                assert not alias.name.startswith("_"), alias.name
                if node.module is None or node.module == "bvlift":
                    modules.add(alias.asname or alias.name)
    assert {"consts", "verify"} <= modules
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            assert not node.attr.startswith("_"), \
                f"{node.value.id}.{node.attr}"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_outputs_take_the_mode_the_umask_gives(tmp_path, capsys, monkeypatch,
                                               umask):
    # outputs are renamed temp files: they get the mode of open(path, "w")
    monkeypatch.setattr(verify, "run_diffuse_invariance_suite",
                        lambda *args: [])
    old = os.umask(umask)
    try:
        assert run("make-field", "--kind", "jump", "--grid", "16",
                   "-o", tmp_path / "f.fld") == 0
        assert run("lift", tmp_path / "f.fld", "--trials", "2",
                   "-o", tmp_path / "n.fld") == 0
        assert run("verify", "--suite", "diffuse",
                   "--report", tmp_path / "r.json") == 0
    finally:
        os.umask(old)
    for name in ("f.fld", "n.fld", "n.json", "r.json"):
        mode = stat.S_IMODE(os.stat(tmp_path / name).st_mode)
        assert mode == 0o666 & ~umask, (name, oct(mode))


def test_config_option_is_gone(hv_path, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 5}))
    assert run("--config", cfg, "energy", hv_path) == 2


@pytest.mark.parametrize("argv", [
    ["energy", "x.fld", "--estimator", "bogus"],
    ["make-field", "--kind", "smooth", "--grid", "abc", "-o", "a.fld"],
    ["lift", "x.fld", "--bogus"],
    []], ids=["choice", "type", "unknown", "bare"])
def test_argparse_rejection_is_one_error_line(tmp_path, capfd, monkeypatch,
                                              argv):
    # no usage block: exit 2 and one line, like every other bad input
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 64.0 TiB for an array"), MemoryError()],
    ids=["numpy", "bare"])
def test_memory_error_exit_2(tmp_path, capfd, monkeypatch, error):
    # exit 1 means a failed verify check: an input too large is exit 2
    def too_large(*args, **kwargs):
        raise error

    monkeypatch.setattr(verify, "make_field", too_large)
    out = tmp_path / "f.fld"
    assert run("make-field", "--kind", "halfvortex", "--grid", "32",
               "--N", "10", "-o", out) == 2
    assert_one_error_line(capfd, str(error) or "MemoryError")
    assert not out.exists()


def test_non_finite_output_exit_2(hv_path, capfd, monkeypatch):
    # no Infinity or NaN reaches stdout, which must stay JSON
    monkeypatch.setattr(cli, "embedded_tv", lambda f, **kw: EnergyReport(
        float("inf"), "geodesic", "embedded_tv"))
    assert run("energy", hv_path) == 2
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["energy", "-h"]])
def test_help_exit_0(capsys, argv):
    assert run(*argv) == 0
    assert capsys.readouterr().out.startswith("usage: bvlift")


def test_one_parser_per_process_and_no_flag_leaks(hv_path, capsys,
                                                  monkeypatch):
    # main builds its parser on the first call and keeps it; each call
    # reads only the flags it is given: a --seed, --metric or
    # --directions left over would make embedded exit 2, or move the
    # default directional energy
    built = []

    def build():
        built.append(1)
        return cli.build_parser()

    monkeypatch.setattr(cli, "_parser", functools.cache(build))
    assert run("energy", hv_path, "--estimator", "directional", "--seed", "3",
               "--directions", "8", "--metric", "euclidean_tensor") == 0
    capsys.readouterr()
    assert run("energy", hv_path, "--estimator", "embedded") == 0
    assert json.loads(capsys.readouterr().out) == embedded_tv(
        read_field(hv_path)).to_dict()
    assert run("energy", hv_path, "--estimator", "directional") == 0
    assert json.loads(capsys.readouterr().out) == avg_directional_energy(
        read_field(hv_path)).to_dict()
    assert built == [1]


@pytest.mark.parametrize("argv", [
    ["lift", "hv.fld", "--seed", "-4"],
    ["energy", "hv.fld", "--estimator", "directional", "--seed", "-1"],
    ["constants", "--ca", "2", "3", "--seed", "-1"],
    ["verify", "--suite", "repr", "--seed", "-1"]],
    ids=["lift", "energy", "constants", "verify"])
def test_negative_seed_exit_2_before_any_work(tmp_path, capfd, monkeypatch,
                                              argv):
    # numpy's own message would name no flag
    monkeypatch.setattr(cli, "read_field", must_not_run)
    monkeypatch.setattr(constants, "ca_const", must_not_run)
    monkeypatch.setattr(verify, "run_repr_formula_suite", must_not_run)
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert_one_error_line(capfd, "--seed")
    assert list(tmp_path.iterdir()) == []


class TestMakeField:
    def test_halfvortex(self, tmp_path, capsys):
        out = tmp_path / "f.fld"
        assert run("make-field", "--kind", "halfvortex", "--grid", "64",
                   "-o", out) == 0
        f = read_field(out)
        assert f.dims == (64, 64) and f.kind == "proj"

    def test_all_kinds(self, tmp_path):
        for kind in ("halfvortex-lift", "constant", "jump", "smooth"):
            out = tmp_path / f"{kind}.fld"
            assert run("make-field", "--kind", kind, "--grid", "48",
                       "-o", out) == 0
            read_field(out)

    @pytest.mark.parametrize("flags", [
        ["--kind", "jump", "--d", "1"], ["--kind", "smooth", "--d", "1"],
        ["--kind", "smooth", "--grid", "0"], ["--kind", "halfvortex",
                                              "--grid", "16"],
        # these kinds make 2D fields only: another --N is not ignored
        ["--kind", "constant", "--N", "3"], ["--kind", "jump", "--N", "1"],
        ["--kind", "smooth", "--N", "3"]])
    def test_bad_size_exit_2(self, tmp_path, capfd, flags):
        assert run("make-field", *flags, "-o", tmp_path / "f.fld") == 2
        out, err = capfd.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "f.fld").exists()

    def test_output_in_missing_directory_exit_2(self, tmp_path, capfd,
                                                monkeypatch):
        monkeypatch.setattr(verify, "make_field", must_not_run)
        out = tmp_path / "nope" / "f.fld"
        assert run("make-field", "--kind", "constant", "--grid", "8",
                   "-o", out) == 2
        assert_one_error_line(capfd, out)

    @pytest.mark.parametrize("kind, grid, extra", [
        *((kind, 48, {}) for kind in verify.FIELD_KINDS),
        ("constant", 40, {"d": 3}), ("smooth", 48, {"d": 3, "slope": 0.7}),
        ("halfvortex", 64, {"d": 3, "N": 3})])
    def test_output_is_the_library_field(self, tmp_path, capsys, kind, grid,
                                         extra):
        out = tmp_path / "f.fld"
        flags = [x for key, val in extra.items() for x in (f"--{key}", val)]
        assert run("make-field", "--kind", kind, "--grid", grid, *flags,
                   "-o", out) == 0
        got, want = read_field(out), verify.make_field(kind, grid, **extra)
        assert (got.dims, got.spacing, got.origin, got.kind) == \
            (want.dims, want.spacing, want.origin, want.kind)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.inside(), want.inside())
        if extra.get("N") == 3:
            assert got.dims == (64, 64, 32)


class TestEnergy:
    def test_embedded_json(self, hv_path, capsys):
        assert run("energy", hv_path, "--estimator", "embedded",
                   "--metric", "euclidean_tensor") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["estimator"] == "embedded_tv"
        assert rep["total"] == pytest.approx(np.pi, rel=0.1)  # coarse grid

    def test_directional(self, hv_path, capsys):
        assert run("energy", hv_path, "--estimator", "directional",
                   "--metric", "geodesic", "--directions", "16",
                   "--seed", "3") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["total"] == pytest.approx(2.0, rel=0.1)

    def test_mollified(self, hv_path, capsys):
        assert run("energy", hv_path, "--estimator", "mollified",
                   "--metric", "geodesic", "--eps-over-h", "4,8,16") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["params"]["extrapolated"] is True

    def test_constant_is_zero_everywhere(self, tmp_path, capsys):
        p = tmp_path / "c.fld"
        run("make-field", "--kind", "constant", "--grid", "32", "-o", p)
        capsys.readouterr()
        for est, metric in (("embedded", "euclidean_tensor"),
                            ("directional", "geodesic"),
                            ("mollified", "geodesic")):
            assert run("energy", p, "--estimator", est,
                       "--metric", metric) == 0
            assert json.loads(capsys.readouterr().out)["total"] == 0.0

    def test_one_dimensional_directional_energy(self, tmp_path, capsys):
        # on an interval the direction average has weight K_1 = 1
        m = 64
        x = (np.arange(m) + 0.5) / m
        g = np.where(x < 0.5, 0.0, np.pi / 3)
        vals = np.stack([np.cos(g), np.sin(g)], axis=-1)
        p = tmp_path / "seq1d.fld"
        write_field(GridField((m,), 1.0 / m, (0.0,), "proj", vals), p)
        assert run("energy", p, "--estimator", "directional",
                   "--metric", "geodesic") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["total"] == pytest.approx(np.pi / 3, abs=1e-12)

    def test_missing_file_exit_2(self, tmp_path):
        assert run("energy", tmp_path / "nope.fld") == 2

    def test_malformed_file_exit_2(self, tmp_path, capfd):
        # bodies of the right length, so each names its own fault
        p = tmp_path / "bad.fld"
        p.write_text("garbage\n")
        assert run("energy", p) == 2
        assert_one_error_line(capfd, "malformed field header")
        write_raw_field(p, '{"d":2,"dims":[2],"kind":"proj","mask":"none",'
                        '"origin":[0],"spacing":0.5,"version":2}',
                        [1.0, 0.0, np.nan, np.nan])
        assert run("energy", p) == 2
        assert_one_error_line(capfd, "field values must be finite")
        write_raw_field(p, '{"d":2,"dims":[2],"kind":"proj","mask":"inline",'
                        '"origin":[0],"spacing":0.5,"version":2}',
                        [1.0, 0.0, 1.0, 0.0], [1, 2])
        assert run("energy", p) == 2
        assert_one_error_line(capfd, "field mask")
        write_raw_field(p, '{"d":2,"dims":[2],"kind":"vector","mask":"none",'
                        '"origin":[0],"spacing":0.5,"version":2}',
                        [1.0, 0.0, 0.0, 1.0])
        assert run("energy", p) == 2
        assert_one_error_line(capfd, "unknown field kind")

    HEADER = ('{"d":2,"dims":[2,2],"kind":"proj","mask":"inline",'
              '"origin":[0,0],"spacing":0.5,"version":2}')
    BODY = np.array([1.0, 0.0, 0.6, 0.8, 0.0, 1.0, 0.8, -0.6], "<f8").tobytes()

    @pytest.mark.parametrize("body, message", [
        (BODY + bytes([1, 0, 1]), "field body has 67 bytes, "
         "expected 68: 4 cells of 2 float64 values and a mask byte"),
        (BODY + bytes([1, 0, 1, 1, 0]), "field body has 69 bytes"),
        (np.array(np.nan, "<f8").tobytes() + BODY[8:] + bytes([1] * 4),
         "field values must be finite"),
        (BODY[:24] + np.array(np.inf, "<f8").tobytes() + BODY[32:]
         + bytes([1] * 4), "field values must be finite"),
        (BODY + bytes([1, 2, 1, 1]), "field mask bytes must be 0 or 1, "
         "got 2"),
        (BODY + bytes([255, 1, 1, 1]), "got 255"),
        (BODY + bytes(4), "empty mask"),
        (b"", "field body has 0 bytes")],
        ids=["short", "long", "nan", "inf", "mask-2", "mask-255",
             "all-zero-mask", "no-body"])
    def test_malformed_body_exit_2(self, tmp_path, capfd, body, message):
        p = tmp_path / "bad.fld"
        p.write_bytes(self.HEADER.encode() + b"\n" + body)
        assert run("energy", p) == 2
        assert_one_error_line(capfd, message)

    def test_version_1_text_file_exit_2(self, tmp_path, capfd):
        # text files of version 1 are no longer read
        p = tmp_path / "old.fld"
        p.write_text('{"d":2,"dims":[2],"kind":"proj","mask":"none",'
                     '"origin":[0],"spacing":0.5,"version":1}\n1,0\n0,1\n')
        assert run("energy", p) == 2
        assert_one_error_line(capfd, "field version must be 2")

    @pytest.mark.parametrize("argv", [
        ["energy", "--estimator", "embedded"],
        ["energy", "--estimator", "mollified"],
        ["energy", "--estimator", "directional"],
        ["lift", "--mode", "rotation"]],
        ids=["embedded", "mollified", "directional", "lift"])
    def test_empty_mask_exit_2(self, tmp_path, capfd, argv):
        # read_field rejects the file: no GridField has an empty mask
        p = tmp_path / "empty.fld"
        write_raw_field(p, '{"d":2,"dims":[8,8],"kind":"proj",'
                        '"mask":"inline","origin":[0,0],"spacing":0.125,'
                        '"version":2}', [1.0, 0.0] * 64, [0] * 64)
        assert run(argv[0], p, *argv[1:]) == 2
        assert_one_error_line(capfd, "empty mask")

    @pytest.mark.parametrize("estimator", ["directional", "embedded",
                                           "mollified"])
    @pytest.mark.parametrize("header", ['"origin":[0,0],"spacing":NaN',
                                        '"origin":[0,Infinity],"spacing":1'])
    def test_non_finite_geometry_exit_2(self, tmp_path, capfd, estimator,
                                        header):
        p = tmp_path / "nan.fld"
        write_raw_field(p, '{"d":2,"dims":[4,4],"kind":"proj","mask":"none",'
                        + header + ',"version":2}', [1.0, 0.0] * 16)
        assert run("energy", p, "--estimator", estimator) == 2
        assert_one_error_line(capfd, "spacing must be finite and positive, "
                              "and origin finite")

    @pytest.mark.parametrize("estimator", ["directional", "embedded",
                                           "mollified"])
    @pytest.mark.parametrize("spacing", ["1e308", "1e200", "1e100", "1e-100",
                                         "1e-200", "1e-300"])
    def test_spacing_out_of_range_exit_2(self, tmp_path, capfd, estimator,
                                         spacing):
        # spacing^4 overflows or is no normal float: no estimator may read it
        p = tmp_path / "far.fld"
        write_raw_field(p, '{"d":2,"dims":[4,4],"kind":"proj","mask":"none",'
                        f'"origin":[0,0],"spacing":{spacing},"version":2}}',
                        [1.0, 0.0] * 16)
        assert run("energy", p, "--estimator", estimator) == 2
        assert_one_error_line(capfd, "is not a normal float in 2D")

    def test_overflowing_body_value_exit_2(self, tmp_path, capfd):
        p = tmp_path / "big.fld"
        write_raw_field(p, '{"d":2,"dims":[4,4],"kind":"proj","mask":"none",'
                        '"origin":[0,0],"spacing":0.25,"version":2}',
                        [1e200, 0.0] + [1.0, 0.0] * 15)
        assert run("energy", p) == 2
        assert_one_error_line(capfd, "norm 1")

    @pytest.mark.parametrize("estimator, kernels", [
        ("mollified", [mollified_energy_extrapolated,
                       lambda f, m: mollified_energy(f, 8 * f.spacing, m)]),
        ("directional", [lambda f, m: avg_directional_energy(f, metric=m)]),
        ("embedded", [embedded_tv, _face_data])],
        ids=["mollified", "directional", "embedded"])
    def test_sphere_metric_on_a_line_field_exit_2(self, hv_path, capfd,
                                                  estimator, kernels):
        # euclidean_sphere is the metric of liftings: without signs every
        # kernel rejects it on a line field, rather than measure a chord
        u = read_field(hv_path)
        for kernel in kernels:
            with pytest.raises(ValueError, match="euclidean_sphere"):
                kernel(u, "euclidean_sphere")
        assert run("energy", hv_path, "--estimator", estimator,
                   "--metric", "euclidean_sphere") == 2
        assert_one_error_line(capfd)

    def test_under_resolved_eps_exit_4(self, hv_path, capfd):
        assert run("energy", hv_path, "--estimator", "mollified",
                   "--eps-over-h", "1,2,3") == 4
        assert_one_error_line(capfd)

    @pytest.mark.parametrize("threshold", ["nan", "-1", "0", "inf"])
    def test_bad_jump_threshold_exit_2(self, hv_path, capfd, threshold):
        assert run("energy", hv_path, "--estimator", "embedded",
                   f"--jump-threshold={threshold}") == 2
        assert_one_error_line(capfd)

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_thread_variable_exit_2(self, hv_path, capfd, monkeypatch,
                                        value):
        # both estimators read it through the pair kernel
        monkeypatch.setenv("BVLIFT_THREADS", value)
        for estimator in ("mollified", "directional"):
            assert run("energy", hv_path, "--estimator", estimator) == 2
            assert_one_error_line(capfd, "BVLIFT_THREADS")

    @pytest.mark.parametrize("flags", [
        ["--eps-over-h", "inf,8"], ["--eps-over-h", "nan,8,16"],
        ["--eps-over-h", "8"], ["--eps-over-h", "8,8"],
        ["--no-extrapolation", "--eps-over-h", "inf"],
        ["--eps-over-h", "2,1e300"],
        ["--no-extrapolation", "--eps-over-h", "2e6"]])
    def test_bad_eps_multipliers_exit_2(self, hv_path, capfd, flags):
        # fd-level capture also sees LAPACK's own error printing
        assert run("energy", hv_path, "--estimator", "mollified", *flags) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("estimator, flags", [
        ("embedded", ["--seed", "5", "--directions", "8"]),
        ("embedded", ["--directions", "8"]),
        ("embedded", ["--eps-over-h", "2,4"]),
        ("embedded", ["--no-extrapolation"]),
        ("directional", ["--eps-over-h", "2,4"]),
        ("directional", ["--no-extrapolation"]),
        ("directional", ["--jump-threshold", "0.5"]),
        ("mollified", ["--seed", "5"]),
        ("mollified", ["--directions", "8"]),
        ("mollified", ["--jump-threshold", "0.5"])])
    def test_flag_the_estimator_does_not_read_exit_2(self, hv_path, capfd,
                                                     monkeypatch, estimator,
                                                     flags):
        monkeypatch.setattr(cli, "read_field", must_not_run)
        assert run("energy", hv_path, "--estimator", estimator, *flags) == 2
        _, err = capfd.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for flag in (f for f in flags if f.startswith("--")):
            assert flag in err, err

    def test_defaults_are_the_library_ones(self, hv_path, capsys):
        f = read_field(hv_path)
        for flags, rep in (
                (["--estimator", "mollified"], mollified_energy_extrapolated(f)),
                (["--estimator", "mollified", "--no-extrapolation"],
                 mollified_energy(f, 8 * f.spacing)),
                (["--estimator", "directional"], avg_directional_energy(f)),
                (["--estimator", "embedded"], embedded_tv(f))):
            assert run("energy", hv_path, *flags) == 0
            assert capsys.readouterr().out == json.dumps(
                rep.to_dict(), indent=2, sort_keys=True) + "\n", flags

    def test_non_finite_eps_message_lists_plain_floats(self, hv_path, capfd):
        # the radii eps = multiplier * h, h = 2/64, without numpy reprs
        assert run("energy", hv_path, "--estimator", "mollified",
                   "--eps-over-h", "nan,2") == 2
        assert capfd.readouterr().err == (
            "error: mollifier eps must be finite, got [nan, 0.0625]\n")


class TestLift:
    def test_rotation_mode(self, hv_path, tmp_path, capsys):
        out = tmp_path / "n.fld"
        assert run("lift", hv_path, "--mode", "rotation", "--trials", "8",
                   "--seed", "0", "-o", out) == 0
        n = read_field(out)
        assert n.kind == "unit"
        side = json.loads((tmp_path / "n.json").read_text())
        assert side["projection_check"] == 0.0
        assert len(side["direction"]) == 2 and "rotation" not in side

    @pytest.mark.parametrize("d, N, trials, seed", [(2, 2, 8, 3),
                                                   (3, 3, 5, 1)])
    def test_sidecar_direction_rebuilds_the_lifting(self, tmp_path, capsys,
                                                    d, N, trials, seed):
        # the direction is one of the draws, and its lifting of the input
        # is the written field bit for bit
        p = tmp_path / "u.fld"
        write_field(make_half_vortex(32, d=d, N=N), p)
        out = tmp_path / "n.fld"
        assert run("lift", p, "--trials", trials, "--seed", seed,
                   "-o", out) == 0
        r = np.array(json.loads((tmp_path / "n.json").read_text())[
            "direction"])
        assert any(np.array_equal(r, draw)
                   for draw in random_unit_vectors(d, trials, seed))
        u = read_field(p).values
        assert np.array_equal(read_field(out).values,
                              lift_sign(r, u)[..., None] * u)

    def test_greedy1d_sequence(self, tmp_path, capsys):
        # a rotating line field turns by pi; the energy skips masked cells
        for degrees, mask, total in (([0, 60, 120, 180], None, np.pi),
                                     ([0, 90, 0, 0], [1, 0, 1, 1], 0.0)):
            angles = np.deg2rad(degrees)
            vals = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
            seq = GridField((4,), 0.25, (0.0,), "proj", vals, mask)
            p = tmp_path / "seq.fld"
            write_field(seq, p)
            out = tmp_path / "seq_lift.fld"
            assert run("lift", p, "--mode", "greedy1d", "-o", out) == 0
            side = json.loads((tmp_path / "seq_lift.json").read_text())
            assert side["energy"]["total"] == pytest.approx(total, abs=1e-12)
            assert side["energy"]["params"]["projective_tv"] == pytest.approx(
                total, abs=1e-12)

    def test_greedy1d_rejects_2d(self, hv_path):
        assert run("lift", hv_path, "--mode", "greedy1d") == 2

    def test_greedy1d_rejects_a_unit_field(self, tmp_path, capfd):
        angles = np.deg2rad([0, 170, 340, 150])
        vals = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        p = tmp_path / "unit.fld"
        write_field(GridField((4,), 0.25, (0.0,), "unit", vals), p)
        capfd.readouterr()
        assert run("lift", p, "--mode", "greedy1d") == 2
        assert_one_error_line(capfd)
        assert not (tmp_path / "unit.lifted.fld").exists()

    def test_greedy1d_sidecar_is_the_library_result(self, seq_path, tmp_path,
                                                    capsys):
        out = tmp_path / "n.fld"
        assert run("lift", seq_path, "--mode", "greedy1d", "-o", out) == 0
        res = lifting.lift_greedy_1d(read_field(seq_path))
        assert np.array_equal(read_field(out).values, res.field.values)
        side = json.loads((tmp_path / "n.json").read_text())
        assert side == {"mode": "greedy1d", "energy": res.energy.to_dict(),
                        "direction": None, "projection_check": 0.0}

    def test_boundary_mode(self, hv_path, tmp_path):
        from bvlift.verify import make_half_vortex_lifting
        b = tmp_path / "trace.fld"
        write_field(make_half_vortex_lifting(64), b)
        out = tmp_path / "nb.fld"
        assert run("lift", hv_path, "--mode", "boundary", "--boundary", b,
                   "--trials", "4", "-o", out) == 0
        side = json.loads((tmp_path / "nb.json").read_text())
        assert side["projection_check"] == 0.0

    def test_boundary_mismatch_exit_3(self, hv_path, tmp_path, capfd):
        u = make_half_vortex(64)
        rot = np.stack([-u.values[..., 1], u.values[..., 0]], axis=-1)
        bad = u.with_values(rot, kind="unit")  # everywhere orthogonal to u
        b = tmp_path / "bad.fld"
        write_field(bad, b)
        assert run("lift", hv_path, "--mode", "boundary",
                   "--boundary", b) == 3
        assert_one_error_line(capfd)

    def test_boundary_requires_file(self, hv_path):
        assert run("lift", hv_path, "--mode", "boundary") == 2

    @pytest.mark.parametrize("mode", ["rotation", "greedy1d"])
    def test_boundary_file_in_another_mode_exit_2(self, hv_path, tmp_path,
                                                  capfd, monkeypatch, mode):
        monkeypatch.setattr(cli, "read_field", must_not_run)
        out = tmp_path / "n.fld"
        assert run("lift", hv_path, "--mode", mode, "--boundary", hv_path,
                   "-o", out) == 2
        assert_one_error_line(capfd, "--boundary")
        assert not out.exists()

    @pytest.mark.parametrize("mode, flag, value", [
        ("boundary", "--metric", "euclidean_tensor"),
        ("boundary", "--metric", "geodesic"),
        ("greedy1d", "--metric", "euclidean_tensor"),
        ("greedy1d", "--trials", "5"),
        ("greedy1d", "--seed", "9")])
    def test_flag_the_mode_does_not_read_exit_2(self, seq_path, hv_path,
                                                tmp_path, capfd, monkeypatch,
                                                mode, flag, value):
        # the boundary lifting's energy is always euclidean_sphere, the
        # greedy lifting's always geodesic and drawn from no seed
        monkeypatch.setattr(cli, "read_field", must_not_run)
        out = tmp_path / "n.fld"
        extra = ["--boundary", hv_path] if mode == "boundary" else []
        src = hv_path if mode == "boundary" else seq_path
        assert run("lift", src, "--mode", mode, *extra, flag, value,
                   "-o", out) == 2
        assert_one_error_line(capfd, flag)
        assert not out.exists()

    def test_defaults_are_the_library_ones(self, hv_path, tmp_path, capsys):
        out = tmp_path / "n.fld"
        assert run("lift", hv_path, "-o", out) == 0
        res = lifting.lift_rotation_search(read_field(hv_path))
        side = json.loads((tmp_path / "n.json").read_text())
        assert side["energy"] == res.energy.to_dict()
        assert side["direction"] == res.direction.tolist()

    @pytest.mark.parametrize("key", ["d", "spacing"])
    def test_boundary_on_another_grid_exit_2(self, hv_path, tmp_path, capfd,
                                             key):
        from bvlift.verify import make_half_vortex_lifting
        n0 = make_half_vortex_lifting(64, d=3 if key == "d" else 2)
        if key == "spacing":
            n0 = GridField(n0.dims, 0.5, n0.origin, "unit", n0.values)
        b = tmp_path / "trace.fld"
        write_field(n0, b)
        out = tmp_path / "nb.fld"
        assert run("lift", hv_path, "--mode", "boundary", "--boundary", b,
                   "--trials", "2", "-o", out) == 2
        assert_one_error_line(capfd, f"boundary data {key} ")
        assert not out.exists()

    def test_output_that_is_its_own_sidecar_exit_2(self, hv_path, tmp_path,
                                                   capfd, monkeypatch):
        # the sidecar of out.json is out.json: it would replace the lifting
        monkeypatch.setattr(cli, "read_field", must_not_run)
        out = tmp_path / "out.json"
        assert run("lift", hv_path, "-o", out) == 2
        assert_one_error_line(capfd, out)
        assert not out.exists()

    def test_sidecar_that_is_the_input_exit_2(self, hv_path, tmp_path, capfd,
                                              monkeypatch):
        # the sidecar of in.fld is in.json, the input
        monkeypatch.setattr(cli, "read_field", must_not_run)
        src = tmp_path / "in.json"
        src.write_bytes(hv_path.read_bytes())
        assert run("lift", src, "--trials", "2",
                   "-o", tmp_path / "in.fld") == 2
        assert_one_error_line(capfd, src)
        assert src.read_bytes() == hv_path.read_bytes()

    def test_sidecar_that_is_the_boundary_file_exit_2(self, hv_path,
                                                      tmp_path, capfd,
                                                      monkeypatch):
        from bvlift.verify import make_half_vortex_lifting
        monkeypatch.setattr(cli, "read_field", must_not_run)
        b = tmp_path / "b.json"
        write_field(make_half_vortex_lifting(64), b)
        before = b.read_bytes()
        assert run("lift", hv_path, "--mode", "boundary", "--boundary", b,
                   "-o", tmp_path / "b.fld") == 2
        assert_one_error_line(capfd, b)
        assert b.read_bytes() == before

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_greedy1d_bad_thread_variable_exit_2(self, seq_path, tmp_path,
                                                 capfd, monkeypatch, value):
        # its energy is a directional one, on the pair kernel
        monkeypatch.setenv("BVLIFT_THREADS", value)
        out = tmp_path / "n.fld"
        assert run("lift", seq_path, "--mode", "greedy1d", "-o", out) == 2
        assert_one_error_line(capfd, "BVLIFT_THREADS")
        assert not out.exists()

    def test_output_in_missing_directory_exit_2(self, hv_path, tmp_path,
                                                capfd, monkeypatch):
        # cmd_lift holds its own binding of the search
        for module in (lifting, cli):
            monkeypatch.setattr(module, "lift_rotation_search", must_not_run)
        for out in (tmp_path / "nope" / "n.fld", "/nonexistent/out.fld"):
            assert run("lift", hv_path, "-o", out) == 2
            assert_one_error_line(capfd, out)


class TestConstants:
    def test_table(self, capsys):
        assert run("constants", "--k", "2", "--m", "3", "--c1d",
                   "--cj", "tensor") == 0
        table = json.loads(capsys.readouterr().out)
        assert table["K_2"]["value"] == pytest.approx(2 / np.pi, abs=1e-12)
        assert table["M_3"]["value"] == pytest.approx(4.0, abs=1e-9)
        assert table["C_1d_tensor"]["value"] == pytest.approx(np.sqrt(2),
                                                              abs=1e-12)
        assert table["C_j_tensor"]["value"] == pytest.approx(1 + 2 / np.pi,
                                                             abs=1e-12)

    def test_ca(self, capsys):
        assert run("constants", "--ca", "2", "5") == 0
        table = json.loads(capsys.readouterr().out)
        assert table == {"C_a_2_5": {
            "value": pytest.approx(1 + 1 / np.sqrt(2), abs=1e-15),
            "method": "closed_form", "error_estimate": 0.0,
            "samples_or_nodes": 0}}

    @pytest.mark.parametrize("flags, message", [
        (["--ca", "2", "3", "--seed", "5"], "constants reads --seed only"),
        (["--k", "3", "--samples", "100"], "constants reads --samples only"),
        (["--c1d", "--d", "4", "--seed", "0"],
         "constants reads --d, --seed only"),
        (["--seed", "5"], "constants reads --seed only"),
        (["--ca", "2", "3", "--seed", "-1"], "--seed must be >= 0")])
    def test_average_flag_without_an_average_exit_2(self, capfd, monkeypatch,
                                                    flags, message):
        for name in ("k_const", "ca_const", "c1d_const"):
            monkeypatch.setattr(constants, name, must_not_run)
        assert run("constants", *flags) == 2
        assert_one_error_line(capfd, message)

    def test_monte_carlo_entries_carry_error(self, capsys):
        assert run("constants", "--psi", str(np.pi / 2), "--avg-dist", "1.0",
                   "--avg-jump", "1.0", "--samples", "50000",
                   "--seed", "1") == 0
        table = json.loads(capsys.readouterr().out)
        closed = {"psi_1.570796": 0.25,
                  "avg_lifted_dist_1.000000": avg_lifted_dist_closed(1.0),
                  "avg_eucl_jump_1.000000": avg_eucl_jump_closed(1.0)}
        assert set(table) == set(closed)
        for name, entry in table.items():
            assert entry["method"] == "monte_carlo"
            assert entry["error_estimate"] > 0
            assert abs(entry["value"] - closed[name]) \
                <= 4 * entry["error_estimate"]

    def test_averages_bind_to_their_flags_by_name(self, capsys, monkeypatch):
        argv = ["constants", "--psi", "1.0", "--avg-dist", "0.7",
                "--avg-jump", "2.0", "--samples", "50000"]
        assert run(*argv) == 0
        table = capsys.readouterr().out
        monkeypatch.setattr(constants, "AVERAGES",
                            dict(reversed(constants.AVERAGES.items())))
        assert run(*argv) == 0
        assert capsys.readouterr().out == table

    def test_no_request_exit_2(self):
        assert run("constants") == 2
        assert run("constants", "--psi", "1.0", "--samples", "0") == 2
        assert run("constants", "--avg-dist", "4.0") == 2
        assert run("constants", "--psi", "1.0", "--d", "1") == 2
        assert run("constants", "--avg-dist", "1.0", "--d", "1") == 2
        assert run("constants", "--avg-jump", "1.0", "--d", "0") == 2
        assert run("constants", "--cj", "foo") == 2


class TestVerifyCommand:
    def test_diffuse_suite_and_determinism(self, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert run("verify", "--suite", "diffuse", "--seed", "7",
                   "--report", r1) == 0
        assert run("verify", "--suite", "diffuse", "--seed", "7",
                   "--report", r2) == 0
        assert r1.read_bytes() == r2.read_bytes()
        data = json.loads(r1.read_text())
        assert all(d["passed"] for d in data)

    @pytest.mark.parametrize("flags", [
        ["--grid", "160", "--samples", "10"], ["--trials", "0"],
        ["--grid", "64"]])
    def test_bad_settings_exit_2_before_any_suite(self, tmp_path, capfd,
                                                  monkeypatch, flags):
        def ran(*args, **kwargs):
            raise AssertionError("a suite ran before the settings were checked")

        monkeypatch.setattr(verify, "run_half_vortex_suite", ran)
        out = tmp_path / "r.json"
        assert run("verify", "--suite", "all", *flags, "--report", out) == 2
        assert_one_error_line(capfd)
        assert not out.exists()

    def test_grid_below_the_tensor_energy_minimum_exit_2(self, tmp_path,
                                                         capfd, monkeypatch):
        # grid 159 misses the 3% of halfvortex_tensor_energy (exit 1)
        monkeypatch.setattr(verify, "make_half_vortex", must_not_run)
        out = tmp_path / "r.json"
        assert run("verify", "--suite", "halfvortex", "--grid", "159",
                   "--report", out) == 2
        assert_one_error_line(capfd)
        assert not out.exists()

    def test_report_in_missing_directory_exit_2(self, tmp_path, capfd,
                                                monkeypatch):
        monkeypatch.setattr(verify, "run_diffuse_invariance_suite",
                            must_not_run)
        out = tmp_path / "nope" / "r.json"
        assert run("verify", "--suite", "diffuse", "--report", out) == 2
        assert_one_error_line(capfd, out)

    def test_csv_dir_is_rejected(self, tmp_path, capfd, monkeypatch):
        # report.json carries every number; there are no CSV traces
        monkeypatch.setattr(verify, "run_diffuse_invariance_suite",
                            must_not_run)
        csvdir, out = tmp_path / "traces", tmp_path / "r.json"
        assert run("verify", "--suite", "diffuse", "--report", out,
                   "--csv-dir", csvdir) == 2
        assert_one_error_line(capfd, "--csv-dir")
        assert not csvdir.exists() and not out.exists()

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_thread_variable_exit_2(self, tmp_path, capfd, monkeypatch,
                                        value):
        # every suite that reads it checks it before its first computation:
        # the identity suite draws through the first, the half-vortex
        # suite starts from its field, the repr suite from its fields
        for name in ("_mc_over_sphere", "make_half_vortex", "_repr_fields"):
            monkeypatch.setattr(verify, name, must_not_run)
        monkeypatch.setenv("BVLIFT_THREADS", value)
        out = tmp_path / "r.json"
        for suite in ("identities", "halfvortex", "repr", "all"):
            assert run("verify", "--suite", suite, "--samples", "100000",
                       "--report", out) == 2, suite
            assert_one_error_line(capfd, "BVLIFT_THREADS")
            assert not out.exists()

    def test_unknown_suite_exit_2(self, tmp_path):
        assert run("verify", "--suite", "bogus",
                   "--report", tmp_path / "r.json") == 2


# ---------------------------------------------------------------------------
# mutated field files: every command that reads one exits 0 with JSON or 2
# with one error line

def _file_bytes(f):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.fld"
        write_field(f, path)
        return path.read_bytes()


_PLANE = verify.make_field("smooth", 6)
_ANGLES = np.deg2rad([0, 60, 120, 95, 10, 170, 181])
_LINE = GridField((7,), 1 / 7, (0.0,), "proj",
                  np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=-1),
                  [1, 1, 0, 1, 1, 1, 0])


@functools.cache
def _readers():
    """(argv after the input, the field file the mutations start from);
    boundary mode reads the mutated file as the boundary data of _PLANE."""
    plane, line = _file_bytes(_PLANE), _file_bytes(_LINE)
    rotation = ["lift", "--mode", "rotation", "--trials", "4"]
    return [(["energy", "--estimator", est], blob)
            for est in cli.READS["energy"] for blob in (plane, line)] + [
        (rotation, plane), (rotation, line),
        (["lift", "--mode", "greedy1d"], line),
        (["lift", "--mode", "boundary"],
         _file_bytes(_PLANE.with_values(_PLANE.values, kind="unit")))]


# spacings past the range of a 2D field, and an int past every float
_EXTREMES = [1e308, 1e200, 1e100, 1e-100, 1e-200, 1e-300, 10 ** 400]
_NUMBERS = st.sampled_from(_EXTREMES) | st.floats() | st.integers()


@st.composite
def _mutated(draw, blob):
    header, _, body = blob.partition(b"\n")
    how = draw(st.sampled_from(["spacing", "header", "byte", "truncate",
                                "value"]))
    if how in ("spacing", "header"):
        fields = json.loads(header)
        key = "spacing" if how == "spacing" else draw(
            st.sampled_from(sorted(fields)))
        fields[key] = draw(_NUMBERS | st.none() | st.booleans()
                           | st.text(max_size=3)
                           | st.lists(st.integers(-1, 8) | _NUMBERS,
                                      max_size=3))
        return json.dumps(fields, sort_keys=True,
                          separators=(",", ":")).encode() + b"\n" + body
    if how == "byte":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1:]
    if how == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    cells = json.loads(header)
    i = 8 * draw(st.integers(0, np.prod(cells["dims"]) * cells["d"] - 1))
    x = draw(st.sampled_from([1e200, -1e200]) | st.floats())
    return header + b"\n" + body[:i] + struct.pack("<d", x) + body[i + 8:]


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_field_files_exit_0_with_json_or_2_with_one_line(data):
    # a RuntimeWarning is an error under Tier-1 and fails the run too
    argv, blob = data.draw(st.sampled_from(_readers()))
    blob = data.draw(_mutated(blob))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.fld").write_bytes(blob)
        if "boundary" in argv:
            write_field(_PLANE, tmp / "plane.fld")
            argv = ["lift", tmp / "plane.fld", *argv[1:],
                    "--boundary", tmp / "in.fld"]
        else:
            argv = [argv[0], tmp / "in.fld", *argv[1:]]
        if argv[0] == "lift":
            argv += ["-o", tmp / "out.fld"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(*argv)
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == ""
            text = (out if argv[0] == "energy"
                    else (tmp / "out.json").read_text())
            json.loads(text, parse_constant=_no_constant)
        else:
            # 3: boundary data that a changed low byte keeps a unit field
            # but no longer a lifting of the field
            assert code == 2 or (code == 3 and "--boundary" in argv), code
            assert err.startswith("error: ") and err.count("\n") == 1, err
