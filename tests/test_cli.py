"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import functools
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quintic_mirror
from quintic_mirror import hypergeom, localization, recursion, verify
from quintic_mirror.cli import main
from quintic_mirror.errors import DegenerateLambda, StructureError
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


@pytest.mark.parametrize("name", sorted(verify.CHECKS))
def test_bare_verify_finishes(capsys, name):
    # Each check's own defaults lie inside its domain.
    code, out, err = run_cli(capsys, "verify", name)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_off_by_one_hyperplane_fails_descendents(capsys, monkeypatch):
    # An off-by-one in the hyperplane identity: the P^m solution built as
    # a hyperplane in P^(m+2) is the solution of P^(m+1).  Its q^d
    # coefficient is 1/(d!)^(m+2), which still reads 1 at d = 1, and
    # (d/dt)^(m+1) - q no longer annihilates it.
    def off_by_one(m, order):
        return hypergeom.hypersurface_series(
            hypergeom.HypergeomConfig._make((m + 2, 1, order)))

    monkeypatch.setattr(verify, "fundamental_solution", off_by_one)
    code, out, err = run_cli(capsys, "verify", "descendents")
    assert code == 1
    assert err == ""
    status = {line.split()[1].rstrip(":"): line for line in out.splitlines()}
    assert len(status) == 11
    failed = {name for name, line in status.items()
              if line.startswith("FAIL")}
    assert failed == {f"descendent-m{mm}-d{d}" for mm in (2, 3, 4)
                      for d in (2, 3)} | {"quantum-ode-m2", "quantum-ode-m3"}
    for mm in (2, 3, 4):
        assert status[f"descendent-m{mm}-d1"].endswith("[value 1]")
        assert status[f"descendent-m{mm}-d2"].endswith(
            f"[value 1/{2 ** (mm + 2)}]")
    for mm in (2, 3):
        # (d/dt)^(m+1) takes q^2/2^(m+2) to q^2/2, and q times q is q^2.
        assert status[f"quantum-ode-m{mm}"].endswith(
            "[first nonzero residual at H^0 t^0 q^2: -1/2]")


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


def test_oracle_degree_four(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--degree", "4")
    assert code == 0
    assert "PASS" in out
    assert "N_4 = 15517926796875/64" in out


@pytest.mark.parametrize("degree", ["0", "5"])
def test_oracle_degree_out_of_range_rejected(capsys, degree):
    code, out, err = run_cli(capsys, "oracle", "--degree", degree)
    assert code == 2
    assert out == ""
    assert "degrees 1 to 4" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_oracle_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run_cli(capsys, "oracle", "--degree", "1",
                             "--trials", trials)
    assert code == 2
    assert out == ""
    assert f"trials must be at least 1, got {trials}" in err


@pytest.mark.parametrize("option", [("--seed", "9"), ("--lambda", "1,2"),
                                    ("--hbar-depth", "3"), ("--m", "3"),
                                    ("--l", "4")])
def test_invariants_rejects_options_it_does_not_read(capsys, option):
    # invariants computes the quintic in P^4 only, so it reads no --m or --l.
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


def test_structure_error_is_internal_error(capsys, monkeypatch):
    # Every denominator the pipeline builds splits into linear forms, so no
    # input reaches a StructureError: one that occurs is a program bug.
    def planted(self):
        raise StructureError("planted")

    monkeypatch.setattr(RatFunc, "heads_at_infinity", planted)
    code, out, err = run_cli(capsys, "verify", "transformations", "--order",
                             "1", "--lambda", "0,1,10,100,1000")
    assert code == 3
    assert out == ""
    assert "internal error: StructureError: planted" in err


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
        out.c[1][2] = out.c[1][2] + 1
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
            [fam.coeff(2, 0), bad] + list(fam.entries[2].coeffs[2:]),
            fam.order)
        return fam

    monkeypatch.setattr(verify, "zstar_family", corrupted)
    code, out, err = run_cli(capsys, "verify", "class-p", "--order", "2")
    assert code == 1
    assert err == ""
    assert out.startswith("FAIL  class-p-bounds:")
    assert "N_(i=2, d=1) is not an hbar-polynomial" in out


# What the check printed when every degree was interpolated; a wrong
# numerator must still be reported through the interpolant, word for word.
WRONG_NODE_DETAIL = (
    "E_1 coefficient of P^1 is not polynomial: RatFunc(Poly("
    "-5055156250000/851067*h^1 + 30868935156250/2553201*h^2 + "
    "26762224609375/2553201*h^3 + 847120468750/40527*h^4 + "
    "7505158951225/729486*h^5 + -368103343750/94563*h^6 + "
    "-246865326200/94563*h^7 + 1488031250/10507*h^8 + "
    "2298184225/21014*h^9 + -11700000/10507*h^10 + -12784200/10507*h^11) / "
    "Poly(-110397049/11664*h^0 + 473639/216*h^2 + -4267/48*h^4 + 1*h^6))")


def test_class_p_wrong_node_value_is_interpolated(capsys, monkeypatch):
    # Doubling Y_2[1] keeps N_(2,1) a polynomial within its bound, but off
    # its closed form: E_1 is interpolated first and fails the bounds.
    real = verify.zstar_family
    interpolate = recursion._newton_interpolation
    node_counts = []

    def corrupted(cfg, weights):
        fam = real(cfg, weights)
        fam.entries[2] = TruncSeries(
            [fam.coeff(2, 0), fam.coeff(2, 1) * 2]
            + list(fam.entries[2].coeffs[2:]), fam.order)
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


def test_class_p_interpolates_from_the_first_miss(capsys, monkeypatch):
    # q -> -q keeps every E_d polynomial within its bounds: E_1 differs
    # from the closed form, and E_2, interpolated too, still equals it.
    real = verify.zstar_family
    interpolate = recursion._newton_interpolation
    node_counts = []

    def flipped(cfg, weights):
        fam = real(cfg, weights)
        fam.entries = [TruncSeries([c * (-1) ** d for d, c in
                                    enumerate(e.coeffs)], fam.order)
                       for e in fam.entries]
        return fam

    def counted(nodes, values):
        node_counts.append(len(nodes))
        return interpolate(nodes, values)

    monkeypatch.setattr(verify, "zstar_family", flipped)
    monkeypatch.setattr(recursion, "_newton_interpolation", counted)
    code, out, _ = run_cli(capsys, "verify", "class-p", "--order", "4")
    assert code == 1
    status = {line.split()[1].rstrip(":"): line for line in out.splitlines()}
    assert status["class-p-bounds"].startswith("PASS")
    assert status["class-p-closed-form"].startswith("FAIL")
    assert status["class-p-closed-form"].endswith(
        "[E_1 differs from the closed form]")
    assert node_counts == [10, 15, 20, 25]


def test_class_p_names_the_first_differing_degree(capsys, monkeypatch):
    # Transformation (a) by f = 1 + q^2 keeps class P, and its numerators
    # leave their closed forms from degree 2 on: E_2 is interpolated,
    # differs from the closed form, and is the degree the verdict names.
    real = verify.zstar_family

    def transformed(cfg, weights):
        fam = real(cfg, weights)
        f = TruncSeries([Fraction(1), 0, Fraction(1)] + [0] * (fam.order - 2),
                        fam.order)
        return recursion.transform_family(fam, "a", f)

    monkeypatch.setattr(verify, "zstar_family", transformed)
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


@pytest.mark.parametrize("name", sorted(
    name for name, check in verify.CHECKS.items()
    if "lam" in inspect.signature(check).parameters))
def test_repeated_weight_is_one_usage_error_in_every_check(capsys, name):
    # The recursion checks meet the repeat in recursion_coeffs, the others
    # in zstar_family; both report it alike.  At the check's default m the
    # tuple is 1,1,2,...,m.
    m = inspect.signature(verify.CHECKS[name]).parameters["m"].default
    lam = ",".join(["1"] + [str(k) for k in range(1, m + 1)])
    code, out, err = run_cli(capsys, "verify", name, "--lambda", lam)
    assert (code, out) == (2, "")
    assert err == ("degenerate weight configuration: "
                   "weights must be pairwise distinct\n")


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


def test_negative_first_weight_reads_as_a_tuple(capsys):
    # argparse takes "-1/2,1,..." for an option string; the spaced form
    # must run as the "=" form does.
    spaced = run_cli(capsys, "verify", "transformations", "--order", "2",
                     "--lambda", "-1/2,1,3,4,9")
    joined = run_cli(capsys, "verify", "transformations", "--order", "2",
                     "--lambda=-1/2,1,3,4,9")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1].startswith("PASS")


def test_lambda_without_a_value_is_still_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "transformations", "--lambda", "--order", "3"])
    assert exc.value.code == 2
    assert "argument --lambda: expected one argument" in capsys.readouterr().err


def test_class_p_does_not_resample(capsys, monkeypatch):
    # Only the recursion checks resample: a DegenerateLambda from the
    # class-P builder is an exit 2 after one draw.
    draws = []
    real_sample = verify.sample_lambda
    real_extract = verify.classP_extract

    def counted(m, rng):
        draws.append(m)
        return real_sample(m, rng)

    def degenerate_once(family):
        if len(draws) == 1:
            raise DegenerateLambda("planted")
        return real_extract(family)

    monkeypatch.setattr(verify, "sample_lambda", counted)
    monkeypatch.setattr(verify, "classP_extract", degenerate_once)
    code, out, err = run_cli(capsys, "verify", "class-p", "--order", "2")
    assert (code, out) == (2, "")
    assert err == "degenerate weight configuration: planted\n"
    assert len(draws) == 1


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


def _run_into_closed_pipe(cmd, env) -> subprocess.CompletedProcess:
    """Run ``cmd`` with stdout a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE,
                              check=False, env=env)
    finally:
        os.close(write_end)


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
    proc = _run_into_closed_pipe(cmd, env)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_closed_stdout_still_writes_the_out_file(tmp_path):
    # The reader's closing stdout does not cancel the report file.
    path = tmp_path / "x.txt"
    cmd = [sys.executable, "-m", "quintic_mirror.cli", "invariants",
           "--order", "3", "--out", str(path)]
    env = {**os.environ,
           "PYTHONPATH": str(Path(quintic_mirror.__file__).parents[1])}
    proc = _run_into_closed_pipe(cmd, env)
    assert proc.returncode == 141
    assert proc.stderr == b""
    assert path.read_text().splitlines()[-1].split() == [
        "3", "8564575000/27", "317206375"]


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
