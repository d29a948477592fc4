"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quintic_mirror
from quintic_mirror import localization, recursion, verify
from quintic_mirror.cli import main
from quintic_mirror.hbar import Poly, RatFunc
from quintic_mirror.series import TruncSeries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_order_four(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--order", "4")
    assert code == 0
    last = out.strip().splitlines()[-1].split()
    assert last == ["4", "15517926796875/64", "242467530000"]


def test_invariants_order_one(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--order", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 2
    assert rows[1].split() == ["1", "2875", "2875"]


def test_invariants_order_zero_empty(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--order", "0")
    assert code == 0
    assert out.strip().splitlines() == ["d", "N_d", "n_d"] or "N_d" in out


def test_invariants_rejects_other_hypersurfaces(capsys):
    code, _, err = run_cli(capsys, "invariants", "--m", "3", "--l", "4")
    assert code == 2
    assert "quintic" in err


def test_invariants_json_schema(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--order", "2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 4 and doc["l"] == 5
    assert doc["rows"][0] == {"d": 1, "N": "2875", "n": "2875"}
    assert doc["rows"][1]["N"] == "4876875/8"
    assert "." not in doc["rows"][1]["N"]


def test_invariants_csv(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--order", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,N_d,n_d"
    assert lines[1] == "1,2875,2875"
    assert lines[2] == "2,4876875/8,609250"


def test_verify_picard_fuchs_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "picard-fuchs", "--order", "5")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_case_i_precondition(capsys):
    code, _, err = run_cli(capsys, "verify", "case-i", "--m", "4", "--l", "5")
    assert code == 2
    assert "l < m" in err


def test_verify_case_i_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "case-i", "--m", "4", "--l",
                           "2", "--order", "3")
    assert code == 0


def test_verify_descendents(capsys):
    code, out, _ = run_cli(capsys, "verify", "descendents")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_unknown_check_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "no-such-check"])


def test_oracle_degree_one(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--degree", "1", "--trials", "2")
    assert code == 0
    assert "2875" in out


def test_oracle_degree_two(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--degree", "2", "--trials", "2")
    assert code == 0
    assert "4876875/8" in out


def test_oracle_degree_three(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--degree", "3")
    assert code == 0
    assert "PASS" in out
    assert "N_3 = 8564575000/27" in out


@pytest.mark.parametrize("degree", ["0", "4"])
def test_oracle_degree_out_of_range_rejected(capsys, degree):
    code, out, err = run_cli(capsys, "oracle", "--degree", degree)
    assert code == 2
    assert out == ""
    assert "degrees 1 to 3" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_oracle_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run_cli(capsys, "oracle", "--degree", "1",
                             "--trials", trials)
    assert code == 2
    assert out == ""
    assert f"trials must be at least 1, got {trials}" in err


@pytest.mark.parametrize("option", [("--seed", "9"), ("--lambda", "1,2"),
                                    ("--hbar-depth", "3")])
def test_invariants_rejects_options_it_does_not_read(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--order", "2", *option])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# Each value is one a check reading the option accepts, so a rejection can
# only come from the option being unread.
VERIFY_OPTIONS = {"m": ("--m", "4"), "l": ("--l", "5"),
                  "order": ("--order", "1"), "seed": ("--seed", "0"),
                  "lam": ("--lambda", "0,1,10,100,1000"),
                  "hbar_depth": ("--hbar-depth", "30")}


def test_verify_checks_read_only_cli_options():
    for check in verify.CHECKS.values():
        assert set(inspect.signature(check).parameters) <= {
            "m", "l", "order", "seed", "lam"}


@pytest.mark.parametrize("option", sorted(VERIFY_OPTIONS))
@pytest.mark.parametrize("name", sorted(verify.CHECKS))
def test_verify_rejects_options_the_check_does_not_read(capsys, monkeypatch,
                                                        name, option):
    # A stand-in with the check's signature: only option handling runs.
    calls = []
    check = verify.CHECKS[name]
    monkeypatch.setitem(verify.CHECKS, name, functools.wraps(check)(
        lambda **kwargs: calls.append(kwargs) or []))
    flag, value = VERIFY_OPTIONS[option]
    try:
        code = main(["verify", name, flag, value])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if option in inspect.signature(check).parameters:
        assert code == 0
        assert len(calls) == 1 and option in calls[0]
    else:
        assert code == 2
        assert out == "" and not calls
        assert flag in err.split()


def test_oracle_rejects_options_it_does_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--degree", "2", "--m", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_oracle_reports_the_tuples_it_computed(capsys, monkeypatch):
    # A tuple counts once its graph sum is computed; a degenerate tuple
    # raises and is resampled.
    sums = []
    real = localization.bott_sum

    def counted(*args, **kwargs):
        value = real(*args, **kwargs)
        sums.append(args)
        return value

    monkeypatch.setattr(localization, "bott_sum", counted)
    code, out, _ = run_cli(capsys, "oracle", "--degree", "1", "--trials", "2")
    assert code == 0
    assert len(sums) == 2
    assert "across 2 weight tuples" in out


def _planted(*args, **kwargs):
    raise ZeroDivisionError("planted")


def test_planted_error_in_graph_sum_is_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(localization, "graph_contribution", _planted)
    code, out, err = run_cli(capsys, "oracle", "--degree", "1")
    assert code == 3
    assert out == ""
    assert "internal error: ZeroDivisionError: planted" in err
    assert "degenerate" not in err


@pytest.mark.parametrize("weights", [
    ("--lambda", "0,1,10,100,1000"),
    ("--seed", "0"),             # sampled weights go through sample_until
])
def test_planted_error_in_recursion_coefficient_is_internal_error(
        capsys, monkeypatch, weights):
    monkeypatch.setattr(recursion, "_coefficient", _planted)
    code, out, err = run_cli(capsys, "verify", "recursion-cy", "--order", "2",
                             *weights)
    assert code == 3
    assert out == ""
    assert "internal error: ZeroDivisionError: planted" in err
    assert "degenerate" not in err


@pytest.mark.parametrize("m", [-2, 0])
@pytest.mark.parametrize("check, l_minus_m", [
    ("phi-poly", 1), ("transformations", 1), ("class-p", 1),
    ("recursion-cy", 1), ("recursion-i", -1), ("recursion-ii", 0)])
def test_ambient_dimension_below_one_is_usage_error(capsys, monkeypatch, m,
                                                    check, l_minus_m):
    # The domain check comes before any sampling, so a regression fails
    # here instead of hanging in sample_lambda.
    def never(*args, **kwargs):
        pytest.fail("weights sampled for an out-of-domain m")

    monkeypatch.setattr(verify, "sample_lambda", never)
    code, out, err = run_cli(capsys, "verify", check, "--m", str(m),
                             "--l", str(m + l_minus_m))
    assert code == 2
    assert out == ""
    assert f"need m >= 1 for a hypersurface in P^m, got m={m}" in err


def test_law_mismatch_is_reported_where_it_is(capsys, monkeypatch):
    real = verify.phi_law_b

    def off_by_one(phi, g):
        out = real(phi, g)
        out.c[0][1][2] = out.c[0][1][2] + 1
        return out

    monkeypatch.setattr(verify, "phi_law_b", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "transformations", "--order", "3")
    assert code == 1
    status = {line.split()[1].rstrip(":"): line for line in out.splitlines()}
    assert status["phi-law-b"].startswith("FAIL")
    assert status["phi-law-b"].endswith("[first mismatch at z^1 q^2]")
    assert all(status[name].startswith("PASS")
               for name in ("phi-law-a", "phi-law-c", "composite-inverse"))


def test_class_p_violation_is_a_failed_check(capsys, monkeypatch):
    real = verify.zstar_family

    def corrupted(cfg, weights):
        fam = real(cfg, weights)
        bad = fam.coeff(2, 1) * RatFunc(Poly([1]), Poly([3, 1]))
        fam.entries[2] = TruncSeries(
            [fam.coeff(2, 0), bad] + list(fam.entry(2).coeffs[2:]), fam.order)
        return fam

    monkeypatch.setattr(verify, "zstar_family", corrupted)
    code, out, err = run_cli(capsys, "verify", "class-p", "--order", "2")
    assert code == 1
    assert err == ""
    assert out.startswith("FAIL  class-p-bounds:")
    assert "N_(i=2, d=1) is not an hbar-polynomial" in out


# What the check printed when every degree was interpolated; a wrong node
# value must still be reported through the interpolant, word for word.
WRONG_NODE_DETAIL = (
    "E_1 coefficient of P^1 is not polynomial: RatFunc(Poly("
    "-5055156250000/851067*h^1 + 30868935156250/2553201*h^2 + "
    "26762224609375/2553201*h^3 + 847120468750/40527*h^4 + "
    "7505158951225/729486*h^5 + -368103343750/94563*h^6 + "
    "-246865326200/94563*h^7 + 1488031250/10507*h^8 + "
    "2298184225/21014*h^9 + -11700000/10507*h^10 + -12784200/10507*h^11) / "
    "Poly(-110397049/11664*h^0 + 473639/216*h^2 + -4267/48*h^4 + 1*h^6))")


def test_class_p_wrong_node_value_is_interpolated(capsys, monkeypatch):
    # Doubling Y_2[1] keeps N_(2,1) a polynomial within its bound, but the
    # node values of E_1 miss the closed form: E_1 alone is interpolated.
    real = verify.zstar_family
    interpolate = recursion._newton_interpolation
    node_counts = []

    def corrupted(cfg, weights):
        fam = real(cfg, weights)
        fam.entries[2] = TruncSeries(
            [fam.coeff(2, 0), fam.coeff(2, 1) * 2]
            + list(fam.entry(2).coeffs[2:]), fam.order)
        return fam

    def counted(nodes, values):
        node_counts.append(len(nodes))
        return interpolate(nodes, values)

    monkeypatch.setattr(verify, "zstar_family", corrupted)
    monkeypatch.setattr(recursion, "_newton_interpolation", counted)
    code, out, err = run_cli(capsys, "verify", "class-p", "--order", "2")
    assert code == 1
    assert err == ""
    assert out == (
        "FAIL  class-p-bounds: N_id are hbar-polynomials of degree <= "
        "(m+1)d; E_d has P-degree <= (m+1)d + m with polynomial "
        f"coefficients  [{WRONG_NODE_DETAIL}]\n")
    assert node_counts == [10]


def test_class_p_names_the_first_differing_degree(capsys, monkeypatch):
    real = verify.closed_form_E
    monkeypatch.setattr(verify, "closed_form_E", lambda m, d: (
        real(m, d) + [Poly([1])] if d >= 2 else real(m, d)))
    code, out, _ = run_cli(capsys, "verify", "class-p", "--order", "3")
    assert code == 1
    status = {line.split()[1].rstrip(":"): line for line in out.splitlines()}
    assert status["class-p-bounds"].startswith("PASS")
    assert status["class-p-closed-form"].startswith("FAIL")
    assert status["class-p-closed-form"].endswith(
        "[E_2 differs from the closed form]")


def test_verify_transformations_default_order_finishes(capsys):
    code, out, _ = run_cli(capsys, "verify", "transformations")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_explicit_lambda_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "recursion-cy", "--order", "2",
                           "--lambda", "0,1,10,100,1000")
    assert code == 0


def test_explicit_degenerate_lambda_is_usage_error(capsys):
    # (lam_2 - lam_3)/2 collides with a pole of the second correlator.
    code, _, err = run_cli(capsys, "verify", "recursion-cy", "--order", "2",
                           "--lambda", "1/3,-2,5/2,8,-1/4")
    assert code == 2
    assert "degenerate" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "invariants", "--order", "1",
                           "--format", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


@pytest.mark.parametrize("argv, message", [
    (("recursion-cy", "--lambda", "1,2,3"), "need 5 weights, got 3"),
    (("recursion-i", "--m", "5", "--l", "3", "--lambda", "1,2,3"),
     "need 6 weights, got 3"),
    (("recursion-ii", "--m", "4", "--l", "4", "--lambda", "1,2,3,4,5,6"),
     "need 5 weights, got 6"),
])
def test_lambda_of_wrong_length_is_usage_error(capsys, argv, message):
    code, _, err = run_cli(capsys, "verify", *argv, "--order", "2")
    assert code == 2
    assert message in err


def test_byte_identical_reruns():
    cmd = [sys.executable, "-m", "quintic_mirror.cli", "verify",
           "recursion-cy", "--order", "2", "--seed", "3", "--format", "json"]
    # The child imports the package this test imported.
    env = {**os.environ,
           "PYTHONPATH": str(Path(quintic_mirror.__file__).parents[1])}
    first = subprocess.run(cmd, capture_output=True, check=False, env=env)
    second = subprocess.run(cmd, capture_output=True, check=False, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_141_without_internal_error(unbuffered):
    # A reader that closes at once (``| head -n 0``) is not a program bug:
    # no traceback, no "internal error", and the code a shell reports for
    # SIGPIPE.  Buffered or not, the broken write surfaces inside main.
    cmd = [sys.executable, "-m", "quintic_mirror.cli", "invariants",
           "--order", "30"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(quintic_mirror.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE,
                              check=False, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [
    ("invariants", "--order", "2"),
    ("verify", "descendents"),
])
@pytest.mark.parametrize("where", ["in a missing directory", "a directory"])
def test_unwritable_out_path_is_usage_error(capsys, tmp_path, argv, where):
    path = {"in a missing directory": tmp_path / "missing" / "x.txt",
            "a directory": tmp_path}[where]
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out                      # the report still reaches stdout
    assert err.count("\n") == 1 and str(path) in err
    assert "internal error" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
