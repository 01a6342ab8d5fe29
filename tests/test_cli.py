import csv
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wirtinger
from wirtinger import PeriodicWeight, spectral
from wirtinger.cli import (WeightParseError, _json, main, parse_angle,
                           parse_weight)
from wirtinger.sharpness import (PowerWeightPair, bound_power,
                                 extremal_weight_pq)
from wirtinger.spectral import SolverError

TWO_PI = 2 * math.pi


def test_parse_angle():
    assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("1.25") == 1.25
    with pytest.raises(WeightParseError):
        parse_angle("halfpi")


def test_parse_weight_const():
    w = parse_weight("const:2.5")
    assert w.eval(1.0) == 2.5


def test_parse_weight_bar_a():
    w = parse_weight("bar-a:4")
    ref = extremal_weight_pq(4.0, 1.0, 1.0)
    probes = np.linspace(0.01, TWO_PI, 37)
    assert np.allclose(w.eval(probes), ref.eval(probes))


def test_parse_weight_pwc_pi_literals():
    w = parse_weight("pwc:0=1,0.5pi=4,1pi=1,1.5pi=4")
    ref = extremal_weight_pq(4.0, 1.0, 1.0)
    assert np.allclose(w.breakpoints, ref.breakpoints)
    assert np.allclose(w.values, ref.values)


def test_parse_weight_bar_gamma_and_modifiers():
    w = parse_weight("bar-gamma:4,1,0")
    ref = extremal_weight_pq(4.0, 1.0, 0.0)
    assert np.allclose(w.breakpoints, ref.breakpoints)
    inv = parse_weight("inv:bar-a:4")
    assert inv.eval(math.pi / 2) == 0.25
    half = parse_weight("pow:0.5:bar-a:4")
    assert half.eval(math.pi / 2) == 2.0


@pytest.mark.parametrize("spec", [
    "nosuch:1", "badspec", "pwc:0=1,oops", "pwc:0=1,2=-3",
    "bar-gamma:4,1", "pow:x:const:1", "const:abc",
])
def test_parse_weight_errors(spec):
    with pytest.raises(WeightParseError):
        parse_weight(spec)


def test_solve_n_list_command(capsys):
    rc = main(["solve", "--a", "bar-a:4", "--b", "const:1",
               "--n-list", "128,256,512"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["estimated_order"] == pytest.approx(2.0, abs=0.3)
    ns, constants = zip(*res["convergence_table"])
    assert list(ns) == [128, 256, 512]
    assert constants[0] < constants[1] < constants[2]
    assert res["lambda1"] == 1.0 / res["constant"]


# bar-gamma:4,1,0's bound is the one the pinned `verify` prints; 1e31 is
# the last decade of M whose weight's breakpoints floats still resolve
@pytest.mark.parametrize("gamma,M,bound", [
    ("bar-gamma:4,1,0", 4.0, 2.8948746075226688),
    ("bar-gamma:1e31,1,0", 1e31, 6997643603500538.0)])
def test_bound_gamma_command(gamma, M, bound, capsys):
    assert main(["bound", "--gamma", gamma, "--p", "1", "--q", "0"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    pair = PowerWeightPair.create(parse_weight(gamma), 1.0, 0.0)
    assert res == {"bound": bound, "formula": "power", "M": M, "p": 1,
                   "q": 0}
    assert res["bound"] == bound_power(pair)


# every refusal that prints one line, as (argv, exit code, that line); a
# bare argv is (argv, 2, None), whose line need only start with
# "invalid argument: "
REFUSALS = [row if isinstance(row, tuple) else (row, 2, None) for row in [
    ["verify", "--gamma", "bar-gamma:4,1,0", "--p", "-2", "--q", "1"],
    ["bound", "--gamma", "bar-gamma:4,1,0", "--p", "-2", "--q", "1"],
    ["solve", "--a", "const:1", "--b", "const:1", "--n", "4"],
    ["solve", "--a", "const:1", "--b", "const:1", "--n-list", "64,32,128"],
    ["extremal", "--family", "pq", "--M", "0.5"],
    ["bound", "--gamma", "bar-gamma:4,1,0", "--p", "1"],
    ["bound", "--gamma", "bar-gamma:4,1,0", "--q", "0"],
    ["bound", "--a", "bar-a:4"],
    ["bound"],
    ["extremal", "--family", "pq", "--samples", "0"],
    ["extremal", "--family", "ps", "--samples", "-5"],
    ["extremal", "--family", "ps", "--L", "0.5"],
    ["bound", "--a", "const:nan", "--b", "const:1"],
    ["bound", "--a", "const:inf", "--b", "const:1"],
    ["bound", "--a", "sine:inf", "--b", "const:1"],
    ["bound", "--a", "sine:1e308", "--b", "const:1"],
    ["bound", "--a", "bar-a:inf", "--b", "const:1"],
    ["extremal", "--family", "ps", "--L", "nan"],
    ["extremal", "--family", "pq", "--M", "nan"],
    ["solve", "--a", "const:1", "--b", "const:1", "--n-list", ","],
    ["sweep", "--M-list", ",", "--p-list", "1", "--q-list", "0"],
    ["sweep", "--M-list", "4", "--p-list", ",", "--q-list", "0"],
    ["sweep", "--M-list", "4", "--p-list", "1", "--q-list", ","],
    ["sweep", "--L-list", ","],
    ["sweep", "--M-list", "nan", "--p-list", "1", "--q-list", "0"],
    ["sweep", "--M-list", "inf", "--p-list", "1", "--q-list", "0"],
    ["sweep", "--M-list", "4", "--p-list", "nan", "--q-list", "0"],
    ["sweep", "--M-list", "4", "--p-list", "1", "--q-list", "inf"],
    # a bound (num / den)^2 past the float range, or a ratio, product or
    # power of finite weights that is not finite
    ["bound", "--a", "pwc:0=1,3=1e300", "--b", "const:1"],
    ["bound", "--gamma", "pwc:0=1,3=1e200", "--p", "2", "--q", "0"],
    ["bound", "--gamma", "pwc:0=1,3=1e200", "--p", "4", "--q", "4"],
    ["verify", "--gamma", "pwc:0=1,3=1e200", "--p", "2", "--q", "0",
     "--n", "64"],
    ["bound", "--a", "const:1e300", "--b", "const:1e-12"],
    ["bound", "--gamma", "pwc:0=1,3=1e200", "--p", "4", "--q", "0"],
    ["bound", "--a", "pow:2:sine:1e200", "--b", "const:1"],
    # a power modifier without its weight, a sine family below M = 1
    ["bound", "--a", "pow:2", "--b", "const:1"],
    ["bound", "--a", "sine:0.5", "--b", "const:1"],
    # Richardson levels without one refinement ratio, refused before a solve
    ["solve", "--a", "bar-gamma:4,1,0", "--b", "const:1", "--n-list",
     "512,1024,3000"],
    ["verify", "--gamma", "bar-gamma:4,1,0", "--p", "1", "--q", "0",
     "--n", "2050"],
    # a sweep with part of the (M, p, q) grid, or with no list at all
    ["sweep", "--M-list", "2,4", "--n", "64"],
    ["sweep", "--M-list", "2,4", "--n", "64", "--format", "csv"],
    ["sweep", "--L-list", "2", "--p-list", "1", "--q-list", "0"],
    ["sweep", "--n", "64"],
    # a weight whose integral over a period overflows: in the substitution
    # identities, and as the mean in a power bound
    ["transform-check", "--a", "const:1e308", "--b", "const:1"],
    ["bound", "--gamma", "pwc:0=1,3=1e308", "--p", "2", "--q", "0"],
    # an extremal family too steep for floats: 1 + M^(-(p-q)/2) rounds to 1
    ["bound", "--gamma", "bar-gamma:1e32,1,0", "--p", "1", "--q", "0"],
    ["bound", "--gamma", "bar-gamma:1e16,2,0", "--p", "1", "--q", "0"],
    ["bound", "--gamma", "bar-gamma:1e64,0.5,0", "--p", "1", "--q", "0"],
    # ... or whose slope ratio M^(-(p-q)/2) is 0 or overflows
    ["bound", "--gamma", "bar-gamma:inf,1,0", "--p", "1", "--q", "0"],
    ["bound", "--gamma", "bar-gamma:1e300,0,4", "--p", "1", "--q", "0"],
    # a non-finite --p or --q, which a constant gamma, or the ps family,
    # would not notice
    ["verify", "--gamma", "const:3", "--p", "inf", "--q", "0", "--n", "32"],
    ["bound", "--gamma", "const:2", "--p", "nan", "--q", "0"],
    ["extremal", "--family", "ps", "--q=-inf"],
    (["bound", "--a", "nosuch:1", "--b", "const:1"], 2,
     "invalid argument: unknown weight family 'nosuch'"),
    # verify's coarsest mesh is n/4: n = 30 must not blame a 7-node mesh
    (["verify", "--gamma", "bar-gamma:4,1,0", "--p", "1", "--q", "0",
      "--n", "30"], 2,
     "invalid argument: verification requires n >= 32 (its coarsest mesh "
     "is n/4)"),
    # normalization by powers of 4 leaves the contrast of a weight: a
    # high-contrast b leaves ess inf b tiny, whatever scale a has, and on
    # the scaled weights ess sup b / min(1, ess inf a) is about a's contrast
    *((["solve", "--a", a, "--b", b, "--n", "64"], 3,
       f"solver error: ess sup {num} / min(1, ess inf {den}) = {ratio} "
       "exceeds 1e+154 with each ess sup scaled into [1, 4); the "
       "eigensolve would overflow")
      for a, b, num, den, ratio in [
          ("const:1", "pwc:0=1,3=1e200", "a", "b", "7.65e+199"),
          ("const:1e-12", "pwc:0=1e100,3=1e300", "a", "b", "7.36e+199"),
          ("pwc:0=1,3=1e200", "const:1", "b", "a", "7.65e+199"),
          ("pwc:0=1e-12,3=1e200", "const:1e200", "b", "a", "1e+212")]),
    (["solve", "--a", "const:1e300", "--b", "const:1e-12", "--n", "64"], 3,
     "solver error: the constant, 10^312.0, is outside the float range"),
    (["solve", "--a", "const:1e-12", "--b", "const:1e300", "--n", "64"], 3,
     "solver error: the constant, 10^-312.0, is outside the float range"),
    # refused before the eigensolve: the eigenfunction is normalized to it
    (["solve", "--a", "const:1.7e308", "--b", "const:1", "--n", "64"], 3,
     "solver error: the integral of a over a period overflows a float"),
]]


# the ids are the row numbers, so an appended row renames no other
@pytest.mark.parametrize("argv,code,line", REFUSALS,
                         ids=[f"argv{i}" for i in range(len(REFUSALS))])
def test_out_of_domain_argument_exit_code(argv, code, line, tmp_path,
                                          monkeypatch, capfd):
    _assert_refused(argv, code, line, tmp_path, monkeypatch, capfd)


def _assert_refused(argv, code, line, tmp_path, monkeypatch, capfd):
    # a case that wrongly succeeds may write a file; it lands in tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    # LAPACK writes its diagnostics through the file descriptors, which
    # capsys does not see
    captured = capfd.readouterr()
    assert captured.out == ""
    [printed] = captured.err.splitlines()
    if line is None:
        assert printed.startswith("invalid argument: ")
    else:
        assert printed == line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["extremal", "--family", "ps", "--L", "nan"],
    ["extremal", "--family", "pq", "--M", "nan"],
    ["extremal", "--family", "pq", "--M", "4", "--p", "nan"],
])
def test_non_finite_extremal_writes_no_file(argv, tmp_path, monkeypatch,
                                            capfd):
    _assert_refused(argv, 2, None, tmp_path, monkeypatch, capfd)


# a ratio, product or power of weights that is not finite, or a period
# integral that overflows, named in its own words
@pytest.mark.parametrize("argv,message", [
    (["bound", "--a", "const:1e300", "--b", "const:1e-12"],
     "combined weight overflows a float"),
    (["bound", "--a", "const:1e300", "--b", "const:1e300"],
     "combined weight overflows a float"),
    (["bound", "--a", "pow:2:const:1e200", "--b", "const:1"],
     "powered weight overflows a float"),
    (["bound", "--a", "const:1e-12", "--b", "const:1e300"],
     "combined weight falls below 1e-12"),
    (["transform-check", "--a", "const:1e308", "--b", "const:1"],
     "the integral of a over a period overflows a float"),
    (["transform-check", "--a", "const:1e300", "--b", "const:1e308"],
     "the integral of b over a period overflows a float"),
])
def test_derived_weight_error_names_the_computation(argv, message, tmp_path,
                                                    monkeypatch, capfd):
    _assert_refused(argv, 2, f"invalid argument: {message}", tmp_path,
                    monkeypatch, capfd)


@pytest.mark.parametrize("argv", [
    ["bound", "--a", "const:1", "--b", "const:1"],
    ["extremal", "--family", "ps", "--samples", "8"],
], ids=["bound", "extremal"])
def test_unwritable_out_exit_code(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", str(tmp_path / "missing" / "x.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # bound's handler ran, so its wall-time line comes first
    [line] = [line for line in captured.err.splitlines()
              if not line.startswith("wall-time:")]
    assert line.startswith("cannot write output:")
    assert list(tmp_path.iterdir()) == []


def test_json_rejects_an_unknown_type():
    with pytest.raises(TypeError, match="cannot serialize"):
        _json(object())


def test_sweep_row_whose_bound_overflows_is_an_error_cell(capsys):
    rc = main(["sweep", "--gamma-family", "sine", "--M-list", "1e150,4",
               "--p-list", "2", "--q-list", "0", "--n", "64"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert [row["M"] for row in rows] == [1e150, 4.0]
    assert "overflows a float" in rows[0]["error"]
    assert "error" not in rows[1] and rows[1]["bound"] > rows[1]["computed"]


# the integral of a overflows, or the product ab's, of which bound_general
# takes only the range; filterwarnings = error fails a numpy warning
@pytest.mark.parametrize("a,b,bound", [("const:1e308", "const:1", 1e308),
                                       ("const:1e154", "const:1e154", 1.0)])
def test_bound_needs_no_integral_that_overflows(a, b, bound, capsys):
    assert main(["bound", "--a", a, "--b", b]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["bound"] == pytest.approx(bound, rel=1e-15)


# K's diagonal 2 b / h would overflow a float in the caller's scale from
# about b = 8.83e306 at n = 64; fem_constant assembles K at unit scale
@pytest.mark.parametrize("a,b,n,rel", [
    *(pytest.param(a, b, "64", 1e-13, id=f"{a}-{b}") for a, b in [
        ("const:1e200", "const:1"), ("const:1", "const:1e200"),
        ("const:1e100", "const:1e200"), ("const:1e-12", "const:1e141"),
        ("const:1", "const:8.82e306")]),
    *(pytest.param("const:1", "const:1e307", n, rel,
                   id=f"const:1-const:1e307-n{n}")
      for n, rel in [("64", 1e-13), ("96", 1e-13), ("4096", 1e-11)])])
def test_large_weights_solve_at_unit_scale(a, b, n, rel, capsys):
    # C(const s, const t) = (s / t) C(1, 1) on the same mesh, to a
    # roundoff that grows with n; the discrete C(1, 1) is pinned at n = 64
    # and solved live on the other meshes.  `solve` prints the exact
    # constant s / t
    ratio = float(a.split(":")[1]) / float(b.split(":")[1])
    assert main(["solve", "--a", a, "--b", b, "--n", n]) == 0
    constant = json.loads(capsys.readouterr().out)["results"]["constant"]
    assert constant == pytest.approx(ratio, rel=1e-15)
    constant = spectral.fem_constant(parse_weight(a), parse_weight(b),
                                     int(n)).constant
    if n == "64":
        unit = 0.9991971967547243
    else:
        unit = spectral.fem_constant(parse_weight("const:1"),
                                     parse_weight("const:1"), int(n)).constant
    assert constant == pytest.approx(unit * ratio, rel=rel)


# a contrast in b below SCALE_LIMIT whose lambda_1 the cancellation in K
# destroys: fem_constant refuses it with both numbers, and does not blame
# assembly
@pytest.mark.parametrize("n,K", [("8", "1e17"), ("64", "1e150")])
def test_b_contrast_lost_to_cancellation_is_a_solver_error(n, K):
    with pytest.raises(SolverError) as refusal:
        spectral.fem_constant(parse_weight("const:1"),
                              parse_weight(f"pwc:0=1,3={K}"), int(n))
    head, _, tail = str(refusal.value).partition(
        " at unit scale is nonpositive: ")
    assert head.startswith("lambda_1 = ")
    assert float(head.rpartition(" ")[2]) <= 0.0
    assert tail == ("cancellation in the stiffness matrix lost it (b's "
                    f"contrast ess sup b / ess inf b = {float(K):g})")


def test_sweep_row_whose_solve_fails_is_an_error_cell(capsys):
    argv = ["sweep", "--gamma-family", "sine", "--p-list", "1",
            "--q-list", "0", "--n", "64"]
    assert main(argv + ["--M-list", "1e160,4"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert main(argv + ["--M-list", "4"]) == 0
    alone = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert [row["M"] for row in rows] == [1e160, 4.0]
    assert rows[0]["error"].startswith("ess sup b / min(1, ess inf a) = ")
    assert rows[1:] == alone


def test_sweep_L_row_whose_solve_fails_is_an_error_cell(capsys):
    assert main(["sweep", "--L-list", "1e160,4", "--n", "64"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert main(["sweep", "--L-list", "4", "--n", "64"]) == 0
    alone = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert list(rows[0]) == ["L", "error"] and rows[0]["L"] == 1e160
    assert "exceeds 1e+154" in rows[0]["error"]
    assert rows[1:] == alone


def test_sweep_L_below_1_is_an_error_cell(capsys):
    assert main(["sweep", "--L-list", "0.5,4", "--n", "64"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert rows[0] == {"L": 0.5, "error": "extremal family requires M >= 1"}
    assert list(rows[1]) == ["L", "bound", "computed", "relative_gap",
                             "sharp"]


def test_sweep_csv_header_covers_L_error_and_M_rows(capsys):
    assert main(["sweep", "--L-list", "1e160", "--M-list", "4",
                 "--p-list", "1", "--q-list", "0", "--n", "64",
                 "--format", "csv"]) == 0
    header, error_row, m_row = capsys.readouterr().out.splitlines()
    assert header == "L,error,M,p,q,bound,computed,relative_gap,sharp"
    assert error_row.startswith('1e+160,"""ess sup')
    assert error_row.endswith('",null,null,null,null,null,null,null')
    assert m_row.startswith("null,null,4,1,0,")


def test_solver_error_exit_code(monkeypatch, capsys):
    from wirtinger import spectral

    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(spectral, "best_constant", boom)
    rc = main(["solve", "--a", "const:1", "--b", "const:1", "--n", "64"])
    assert rc == 3


def test_arpack_failure_exit_code(monkeypatch, capsys):
    import scipy.sparse.linalg as spla

    def unconverged(*args, **kwargs):
        raise spla.ArpackNoConvergence("synthetic no convergence", [], [])

    # best_constant looks eigsh up in scipy.sparse.linalg at call time; a
    # sampled weight takes the finite-element path
    monkeypatch.setattr(spla, "eigsh", unconverged)
    rc = main(["solve", "--a", "sine:4", "--b", "const:1", "--n", "64"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "solver error: generalized eigensolve failed")


def test_eigenpair_residual_failure_exit_code(perturbed_eigsh, capsys):
    rc = main(["solve", "--a", "sine:4", "--b", "const:1", "--n", "64"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: eigenpair residual")


@pytest.mark.parametrize("argv,allocator", [
    (["solve", "--a", "const:1", "--b", "const:1", "--n", "99999999999"],
     "linspace"),
    (["extremal", "--family", "pq", "--samples", "99999999999"], "arange"),
], ids=["solve", "extremal"])
def test_out_of_memory_exit_code(argv, allocator, tmp_path, monkeypatch,
                                 capsys):
    # numpy raises its _ArrayMemoryError, a MemoryError, for arrays this
    # long; the stand-in raises it before anything is allocated
    real = getattr(np, allocator)

    def refuse(*args, **kwargs):
        if any(isinstance(x, int) and x > 10 ** 9 for x in args):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, allocator, refuse)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "out of memory: Unable to allocate 745. GiB for an array"]
    assert list(tmp_path.iterdir()) == []


def test_sweep_row_below_32_names_its_own_limit(capsys):
    rc = main(["sweep", "--M-list", "4", "--p-list", "1", "--q-list", "0",
               "--n", "30"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert rows == [{"M": 4.0, "p": 1.0, "q": 0.0, "error":
                     "verification requires n >= 32 (its coarsest mesh "
                     "is n/4)"}]


def test_sweep_row_not_a_multiple_of_4_names_its_own_limit(capsys):
    # n = 2050 would extrapolate from 512, 1025, 2050, two ratios apart
    rc = main(["sweep", "--M-list", "4", "--p-list", "1", "--q-list", "0",
               "--n", "2050"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert rows == [{"M": 4.0, "p": 1.0, "q": 0.0, "error":
                     "verification requires n to be a multiple of 4 (its "
                     "meshes n/4, n/2, n must share one ratio)"}]


def test_extremal_csv_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["extremal", "--family", "ps", "--L", "4",
               "--samples", "2048", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    csv_path = tmp_path / "report.json.fn.csv"
    assert report["results"]["csv"] == str(csv_path)
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    theta, weight = rows[:, 0], rows[:, 1]
    rebuilt = PeriodicWeight.piecewise(theta, weight)
    assert rebuilt.antiderivative(TWO_PI) == pytest.approx(5 * math.pi,
                                                         rel=1e-6)


def test_sweep_rows_in_input_order(capsys):
    rc = main(["sweep", "--M-list", "4", "--p-list", "1", "--q-list", "1,0",
               "--n", "128"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert [(r["p"], r["q"]) for r in rows] == [(1.0, 1.0), (1.0, 0.0)]
    assert all(r["sharp"] for r in rows)


def test_transform_check_command(capsys):
    rc = main(["transform-check", "--a", "bar-gamma:4,1,0", "--b", "const:1",
               "--seed", "1"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert list(res) == ["c", "substitution_residuals", "cov_roundtrip_error"]
    assert res["c"] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert max(res["substitution_residuals"]) <= 1e-13
    assert res["cov_roundtrip_error"] <= 1e-10


# sha256 of every file each command writes; the extremal reports embed
# their relative CSV path, so the bytes do not depend on the directory.
# bound's report is pinned verbatim by test_benchmark_reference_bytes
GOLDEN = [
    (["extremal", "--family", "ps", "--L", "1"], {
        "out.json": "2d85117c827d7a999452d1432fd0cc6fa639420933a778c9c7f88b986987bb4a",
        "out.json.fn.csv": "309381bac3b4bd94ca456a11e9031a3d2c26d0806984a1df5e944e31ca2a82dc"}),
    (["extremal", "--family", "ps", "--L", "4"], {
        "out.json": "605900fb8836c13826bfa4072fb200488492dde04e055709333245a81c408edc",
        "out.json.fn.csv": "f4d8b33b7454b535be7980532a721cbb989bfdafbf53362f7a023309a2f21ff8"}),
    (["extremal", "--family", "pq", "--M", "4", "--p", "1", "--q", "0"], {
        "out.json": "e60575dbda8cd1ad2c634ec36c064c5cf79ffd7cd2fd85b47d9ee48af725eccc",
        "out.json.fn.csv": "b397b67909e4a830cb355c2b8630156d98ad03896be1628c6c476db1431913d6"}),
    (["transform-check", "--a", "bar-gamma:4,1,0", "--b", "const:1"], {
        "out.json": "692e78056944e357e78bd1f76be25019f646d6c6c51496fa8d873f82cef6889c"}),
    (["transform-check", "--a", "pwc:0=1,1=3,2.5=2,4=5", "--b", "bar-a:2"], {
        "out.json": "b2144161e902181c011cf981275b45f38c3af47387c90de4d583e6ebb18f860a"}),
    (["transform-check", "--a", "sine:4", "--b", "const:1"], {
        "out.json": "9286ca95d1e6e62fa7d399cb3c83576d62335d4f9325c1203091b13fe2c7f79f"}),
    (["transform-check", "--a", "sine:4", "--b", "pwc:0=1,1=3,2.5=2,4=5"], {
        "out.json": "b09f17facc59b2347148d613c642a08b0590cfbcc98887d02bd51a0ab2da754b"}),
]


@pytest.mark.parametrize("argv,digests", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_golden_bytes(argv, digests, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out.json"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert written == digests


def _csv_rows(capsys, argv):
    assert main(argv + ["--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert all(len(row) == len(rows[0]) for row in rows)
    return rows


def test_csv_sweep_header_covers_every_row(capsys):
    # the first row is an error row; the second must keep its numbers
    rows = _csv_rows(capsys, ["sweep", "--M-list", "0.5,4", "--p-list", "1",
                              "--q-list", "0", "--n", "128"])
    assert rows[0] == ["M", "p", "q", "error", "bound", "computed",
                       "relative_gap", "sharp"]
    errored, verified = (dict(zip(rows[0], row)) for row in rows[1:])
    assert json.loads(errored["error"]) == "extremal family requires M >= 1"
    assert errored["sharp"] == "null" and verified["error"] == "null"
    assert verified["sharp"] == "true"
    assert float(verified["computed"]) == pytest.approx(2.895, abs=2e-3)


@pytest.mark.parametrize("argv", [
    ["sweep", "--gamma-family", "sine", "--M-list", "1e160,0.5,4",
     "--p-list", "1", "--q-list", "0", "--n", "64"],
    ["verify", "--gamma", "bar-gamma:4,1,0", "--p", "1", "--q", "0",
     "--n", "128"],
], ids=["sweep", "verify"])
def test_csv_cells_are_json_text(argv, capsys):
    # the sweep's error cells hold a comma (row 1) and none (row 2); each
    # decodes to the same string as in the JSON report
    rows = _csv_rows(capsys, argv)
    cells = ([row[1:] for row in rows[1:]] if rows[0] == ["key", "value"]
             else rows[1:])
    decoded = [[json.loads(cell) for cell in row] for row in cells]
    assert main(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    if "rows" in results:
        assert decoded == [[row.get(k) for k in rows[0]]
                           for row in results["rows"]]
    else:
        assert decoded == [[v] for v in results.values()]


def test_csv_nested_cell_is_quoted(capsys):
    rows = _csv_rows(capsys, ["verify", "--gamma", "bar-gamma:4,1,0",
                              "--p", "1", "--q", "0", "--n", "128"])
    cells = dict(rows[1:])
    assert json.loads(cells["characterization"]) == {
        "is_sharp": True, "phase": 0, "residual": 0}
    assert cells["sharp"] == "true"


# the commands of the benchmark's CLI byte reference, keyed as in its file
REFERENCE_COMMANDS = {
    "bound": ["bound", "--a", "bar-a:4", "--b", "inv:bar-a:4"],
    "extremal": ["extremal", "--family", "pq", "--M", "4", "--p", "1",
                 "--q", "0", "--samples", "4096", "--out", "ext.json"],
    "solve": ["solve", "--a", "sine:4", "--b", "const:1", "--n", "2048"],
    "verify": ["verify", "--gamma", "bar-gamma:4,1,0", "--p", "1",
               "--q", "0"],
}
REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "reference" / "cli.json").read_text())


def _file_digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(REFERENCE_COMMANDS))
def test_benchmark_reference_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(REFERENCE_COMMANDS[name]) == 0
    assert capsys.readouterr().out == REFERENCE[name]["stdout"]
    assert _file_digests(tmp_path) == REFERENCE[name]["files"]


# imports wirtinger and wirtinger.cli, runs each argv of sys.argv[1]
# through cli.main in one interpreter, and prints [imported, runs, loaded]:
# the scipy, numpy.ma and numpy.polynomial modules loaded by the imports,
# [rc, stdout, stderr] per argv, then those modules loaded by the end
_COLD_RUNS = """
import contextlib, io, json, sys
def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.split(".")[:2]
                  in (["numpy", "ma"], ["numpy", "polynomial"]))
import wirtinger
from wirtinger import cli
imported = heavy()
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    runs.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps([imported, runs, heavy()]))
"""


def _cold_python(*argv, cwd, **env):
    """Stdout of a fresh interpreter, run with argv and the extra env, that
    imports this checkout's package."""
    src = str(Path(wirtinger.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def two_thread_run(tmp_path_factory):
    """Every reference command in one cold CLI process on threaded
    OpenBLAS: the run [rc, stdout, stderr] per name, and the digests of
    the files the commands wrote into their shared directory."""
    cwd = tmp_path_factory.mktemp("two-threads")
    _, runs, _ = json.loads(_cold_python(
        "-c", _COLD_RUNS, json.dumps(list(REFERENCE_COMMANDS.values())),
        cwd=cwd, OPENBLAS_NUM_THREADS="2"))
    files = _file_digests(cwd)
    assert set(files) == {file for name in REFERENCE_COMMANDS
                          for file in REFERENCE[name]["files"]}
    return dict(zip(REFERENCE_COMMANDS, runs)), files


@pytest.mark.parametrize("name", sorted(REFERENCE_COMMANDS))
def test_benchmark_reference_bytes_at_two_blas_threads(name, two_thread_run):
    # the tests pin one BLAS thread, as the benchmark does; a cold CLI on
    # threaded OpenBLAS writes the same bytes (on one CPU OpenBLAS caps
    # itself at one thread)
    runs, files = two_thread_run
    rc, out, err = runs[name]
    assert rc == 0, err
    assert out == REFERENCE[name]["stdout"]
    expected = REFERENCE[name]["files"]
    assert {file: files[file] for file in expected} == expected


# the closed forms, the extremal profiles, the transform and the solve of
# a piecewise-constant pair need numpy's core only, and a solve refused
# before the eigensolve needs no scipy
_REFUSED = {"pwc:0=1,3=1e200": "ess sup b / min(1, ess inf a) = ",
            "const:1.7e308": "the integral of a over a period overflows"}
_CLOSED_FORM_ARGVS = [
    ["bound", "--a", "bar-a:4", "--b", "inv:bar-a:4"],
    ["extremal", "--family", "pq", "--M", "4", "--p", "1", "--q", "0",
     "--samples", "64", "--out", "e.json"],
    ["transform-check", "--a", "sine:4", "--b", "pwc:0=1,1=3,2.5=2,4=5"],
    ["transform-check", "--a", "bar-gamma:4,1,0", "--b", "const:1",
     "--seed", "1"],
    # a piecewise-constant pair is solved by transfer matrices
    ["solve", "--a", "bar-a:4", "--b", "inv:bar-a:4", "--n", "2048"],
    *(["solve", "--a", a, "--b", "const:1", "--n", "64"] for a in _REFUSED)]


@pytest.fixture(scope="module")
def closed_form_run(tmp_path_factory):
    """_COLD_RUNS over _CLOSED_FORM_ARGVS in one fresh interpreter:
    [imported, runs, loaded], and the directory the commands wrote to."""
    cwd = tmp_path_factory.mktemp("closed-form-cold")
    return json.loads(_cold_python("-c", _COLD_RUNS,
                                   json.dumps(_CLOSED_FORM_ARGVS),
                                   cwd=cwd)), cwd


def test_import_loads_no_scipy(closed_form_run):
    (imported, _, _), _ = closed_form_run
    assert imported == []


def test_closed_form_commands_run_without_scipy(closed_form_run, tmp_path,
                                               monkeypatch, capsys):
    (_, runs, loaded), cold_dir = closed_form_run
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    monkeypatch.chdir(tmp_path)
    for argv, (rc, out, err) in zip(_CLOSED_FORM_ARGVS, runs, strict=True):
        refused = argv[0] == "solve" and argv[2] in _REFUSED
        expected = 3 if refused else 0
        assert rc == expected, (argv, err)
        assert main(argv) == expected
        assert out == capsys.readouterr().out
        if refused:
            [line] = err.splitlines()
            assert line.startswith("solver error: " + _REFUSED[argv[2]])
    written = _file_digests(cold_dir)
    assert list(written) == ["e.json", "e.json.fn.csv"]
    assert written == _file_digests(tmp_path)


def test_closed_form_commands_load_no_scipy_numpy_ma_or_polynomial(
        closed_form_run):
    # the Gauss rule is written out and unique sorts without np.unique, so
    # a cold bound, extremal or transform-check loads neither numpy.ma
    # nor numpy.polynomial (~20 ms of import), nor scipy. Listing what
    # loaded also catches an import that a try would swallow
    (_, _, loaded), _ = closed_form_run
    assert loaded == []


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    # every `wirtinger ...` line of README's sh blocks, trailing comment
    # dropped, exits 0
    blocks = re.findall(r"```sh\n(.*?)```", README, flags=re.S)
    commands = [shlex.split(line, comments=True)
                for block in blocks for line in block.splitlines()
                if line.startswith("wirtinger ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
