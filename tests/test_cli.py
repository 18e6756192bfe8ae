"""Command-line surface: output formats, exit codes, byte stability."""

import hashlib
import importlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import ospchar
from ospchar import characters, cli, identities
from ospchar.algebra import LaurentPolynomial
from ospchar.characters import standard_xy
from ospchar.cli import _build_parser, _emit, _verify_flags, main
from ospchar.identities import IDENTITIES, VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_printed_example(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--family", "orthosymplectic", "--method", "det",
        "--n", "1", "--m", "2", "--lambda", "2",
    )
    assert code == 0
    assert out == "x1^2 + x1*y1 + x1*y2 + y1*y2 + 1 + x1^-1*y1 + x1^-1*y2 + x1^-2\n"
    # the same eight monomials as the printed example polynomial
    vs, xs, ys = standard_xy(1, 2)
    x1, y1, y2 = xs[0], ys[0], ys[1]
    xb = x1.inverse()
    expected = x1 ** 2 + xb ** 2 + vs.one() + y1 * (x1 + xb) + y2 * (x1 + xb) + y1 * y2
    assert out.strip() == expected.to_text()


def test_readme_library_snippets_run(capsys):
    """The README's Library examples run as written, both in one namespace,
    so a removed export or a renamed route breaks this test too."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    snippets = [block.split("```", 1)[0] for block in library.split("```python\n")[1:]]
    assert len(snippets) == 2
    namespace = {}
    for snippet in snippets:
        exec(snippet, namespace)
    assert capsys.readouterr().out == namespace["a"].to_text() + "\n"


def test_compute_empty_partition(capsys):
    code, out, _ = run(capsys, "compute", "--family", "schur", "--method", "jt", "--n", "2", "--lambda", "")
    assert code == 0
    assert out == "1\n"


def test_compute_byte_stability(capsys):
    args = ("compute", "--family", "hook", "--method", "det", "--n", "2", "--m", "1", "--lambda", "2,1")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_compute_json_round_trip(capsys):
    args = (
        "compute", "--family", "orthosymplectic", "--method", "jt",
        "--n", "2", "--m", "1", "--lambda", "2,1", "--format", "json",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    parsed = json.loads(out)
    poly = LaurentPolynomial.from_json_dict(parsed)
    assert json.dumps(poly.to_json_dict(), separators=(",", ":")) == out.strip()


def test_compute_usage_errors(capsys):
    code, _, err = run(capsys, "compute", "--family", "schur", "--method", "det", "--n", "2", "--lambda", "1")
    assert code == 2 and "ospchar:" in err
    code, _, _ = run(capsys, "compute", "--family", "schur", "--method", "weyl", "--n", "1", "--lambda", "2,1")
    assert code == 2
    code, _, _ = run(capsys, "compute", "--family", "schur", "--method", "weyl", "--n", "1", "--lambda", "oops")
    assert code == 2


@pytest.mark.parametrize(
    "text,message",
    [
        (",1", "empty part in ',1'"),
        ("2,,1", "empty part in '2,,1'"),
        ("2,1,", "empty part in '2,1,'"),
        ("3.5", "part '3.5' is not an integer"),
        ("2, x", "part 'x' is not an integer"),
    ],
)
def test_bad_partition_names_the_piece(capsys, text, message):
    code, out, err = run(capsys, "compute", "--family", "schur", "--method", "jt", "--n", "2", "--lambda", text)
    assert (code, out, err) == (2, "", f"ospchar: {message}\n")


def test_unknown_flag_rejected(capsys):
    code = main(["compute", "--family", "schur", "--method", "jt", "--n", "1", "--lambda", "1", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_enumerate_output(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "symplectic", "--n", "1", "--lambda", "1")
    assert code == 0
    assert out.splitlines() == ["[[1]]", "[[1b]]"]
    code, out, _ = run(
        capsys, "enumerate", "--family", "orthosymplectic", "--n", "1", "--m", "2", "--lambda", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert "[[1p,2p]]" in lines
    code, _, _ = run(capsys, "enumerate", "--family", "symplectic", "--n", "1", "--lambda", "1", "--mu", "1")
    assert code == 2


# (family, n, m, lambda, mu) -> line count and SHA-256 of the full listing:
# the tokens, the order and the skew dots of `ospchar enumerate` stay fixed.
ENUMERATE_PINS = {
    ("schur", 3, 0, "3,1", None): (15, "dfd7f19240806f3d122f34c9ad55b0c7600ad2509d22d9bdb37c791198d5dfb6"),
    ("hook", 2, 2, "2,1,1", None): (32, "9736ac02e846b16b8e358b9a29df1e96d0f74ded99b90c0290016d53f7da0134"),
    ("symplectic", 2, 0, "2,2", None): (14, "ae421a1fa0bd6025e561866c38c12149222fad48dc7db83ef1c928def642dfc6"),
    ("orthosymplectic", 2, 1, "3,1", None): (81, "bbafec56a087144aef47c1ccaa7ce76bb42690274c4d9a6f933e75fc57360523"),
    ("odd_symplectic", 3, 0, "2,1,1", None): (21, "766dbe64b8c365d4d7cbf32e968082e00c5dce46a31a79a0cda41c57136a5046"),
    ("schur", 3, 0, "3,2,1", "2,1"): (27, "63909682e48f967cfbf33ee54a352520c7a69eb0c9da4a7a15a324407e50be44"),
    # the empty shape prints as [], and a skew shape may end in a fully inner row
    ("schur", 2, 0, "", None): (1, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("schur", 3, 0, "3,1", "1,1"): (6, "ffedbd9b1ba707105da99b15fcddb2e760c45e2e9e124b3cadc5913aff172baa"),
    # full scale: many fillings share their upper rows
    ("symplectic", 4, 0, "4,3,2,1", None): (65536, "57c763727c4b8e7ae0580e1bd34975cce27bc174225cd990916cd4a1dcc140f8"),
    ("orthosymplectic", 3, 3, "4,3,1", None): (57519, "028fea82020e8cf4cd011d7305d1663db44603192eceb1436ca3458ee76456ef"),
}


@pytest.mark.parametrize("case", sorted(ENUMERATE_PINS, key=str))
def test_enumerate_output_is_pinned(capsys, case):
    family, n, m, lam, mu = case
    argv = ["enumerate", "--family", family, "--n", str(n), "--m", str(m), "--lambda", lam]
    code, out, _ = run(capsys, *argv, *(["--mu", mu] if mu else []))
    assert code == 0
    assert (len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest()) == ENUMERATE_PINS[case]


# (family, n, m, lambda, format) -> byte count and SHA-256 of `ospchar compute
# --method tableau` at full scale: the strip engine's terms and their order.
COMPUTE_PINS = {
    ("orthosymplectic", 3, 3, "4,3,1", "json"): (153937, "a3e807af9b8f94d1b89b4858f5c7cb84e4ea227b815ab1735132bff8512ff562"),
    ("orthosymplectic", 3, 3, "4,3,1", "text"): (116939, "692c4940db5f508db7d5201638ad9d7c69168dfead147e9f6c2d82a04c2b648e"),
    ("symplectic", 4, 0, "4,3,2,1", "json"): (59539, "b14c7fd28098b5245348fb4d94303aa8c442ee0104b270742e487e40f839c69d"),
}


@pytest.mark.parametrize("case", sorted(COMPUTE_PINS))
def test_compute_output_is_pinned(capsys, case):
    family, n, m, lam, fmt = case
    argv = ["--family", family, "--method", "tableau", "--n", str(n), "--m", str(m), "--lambda", lam, "--format", fmt]
    code, out, _ = run(capsys, "compute", *argv)
    assert code == 0
    assert (len(out.encode()), hashlib.sha256(out.encode()).hexdigest()) == COMPUTE_PINS[case]


# (family, method, n, m, format) -> (bytes, sha256) of compute at lambda =
# (3,2,1): every closed_form family x route pair at its workload alphabet,
# and the text form of the paper's determinant.  Taken from the tuple-keyed
# polynomials, before the kernels moved to integer keys.
CLOSED_FORM_PINS = {
    ("schur", "jt", 5, 0, "json"): (3296, "a06c4df0a7a25ebe4c57b00ea787af9d7ba16f52663e731b9948fbcb577f481d"),
    ("schur", "weyl", 5, 0, "json"): (3296, "a06c4df0a7a25ebe4c57b00ea787af9d7ba16f52663e731b9948fbcb577f481d"),
    ("hook", "jt", 3, 3, "json"): (9040, "eeb49d5333058e2a5049e89e52e1ee465b6301f86c8dfb4e0be9a2fc86c64d18"),
    ("hook", "det", 3, 3, "json"): (9040, "eeb49d5333058e2a5049e89e52e1ee465b6301f86c8dfb4e0be9a2fc86c64d18"),
    ("symplectic", "weyl", 4, 0, "json"): (15542, "8b0a94aa947e853a6e8d5cc04e8b7e1939bf5bbb4d0a6647483e871f73a23b33"),
    ("odd_symplectic", "okada", 4, 0, "json"): (9372, "f65d07b9a626c49781bd5ccd8f944915c30f844084b6a587b03db920a3d784e6"),
    ("orthosymplectic", "jt", 3, 3, "json"): (49272, "0a23190ec51c59fb62ee93690cfb1d61497458afcd5a53d33a98e44b4daf3ad2"),
    ("orthosymplectic", "det", 3, 3, "json"): (49272, "0a23190ec51c59fb62ee93690cfb1d61497458afcd5a53d33a98e44b4daf3ad2"),
    ("orthosymplectic", "det", 3, 3, "text"): (33064, "3f27e29dca9fca53f0a81185af31fcf050f93fbad05f0523245082fbdace3731"),
    ("orthosymplectic", "sp_schur_sum", 3, 3, "json"): (49272, "0a23190ec51c59fb62ee93690cfb1d61497458afcd5a53d33a98e44b4daf3ad2"),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_PINS), ids=lambda case: "-".join(map(str, case)))
def test_closed_form_output_is_pinned(capsys, case):
    family, method, n, m, fmt = case
    argv = ["--family", family, "--method", method, "--n", str(n), "--m", str(m), "--lambda", "3,2,1", "--format", fmt]
    code, out, _ = run(capsys, "compute", *argv)
    assert code == 0
    assert (len(out.encode()), hashlib.sha256(out.encode()).hexdigest()) == CLOSED_FORM_PINS[case]


def test_enumerate_rejects_counts_outside_the_domain(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "hook", "--n", "1", "--m", "-1", "--lambda", "2")
    assert code == 2 and out == "" and "m must be nonnegative" in err
    code, out, err = run(capsys, "enumerate", "--family", "odd_symplectic", "--n", "0", "--lambda", "")
    assert code == 2 and out == "" and "n must be at least 1" in err
    code, out, err = run(capsys, "enumerate", "--family", "schur", "--n", "-1", "--lambda", "1")
    assert code == 2 and out == "" and "n must be at least 1" in err
    # the same domain as compute --method tableau, with the same messages
    for family in ("hook", "orthosymplectic"):
        code, out, err = run(capsys, "enumerate", "--family", family, "--n", "1", "--m", "0", "--lambda", "1")
        assert code == 2 and out == "" and f"family '{family}' needs m >= 1" in err
    for family in ("schur", "symplectic"):
        code, out, err = run(capsys, "enumerate", "--family", family, "--n", "1", "--lambda", "1,1")
        assert code == 2 and out == "" and "partition (1, 1) is longer than n=1" in err
    # a skew shape may be longer than n
    code, out, _ = run(capsys, "enumerate", "--family", "schur", "--n", "1", "--lambda", "1,1", "--mu", "1")
    assert code == 0 and out.splitlines() == ["[[.],[1]]"]


def test_families_without_primed_letters_reject_m(capsys):
    for family, method in (("schur", "jt"), ("symplectic", "weyl"), ("odd_symplectic", "tableau")):
        message = f"ospchar: family '{family}' does not take --m\n"
        code, out, err = run(capsys, "compute", "--family", family, "--method", method, "--n", "2", "--m", "5", "--lambda", "1")
        assert (code, out, err) == (2, "", message)
        code, out, err = run(capsys, "enumerate", "--family", family, "--n", "2", "--m", "1", "--lambda", "1")
        assert (code, out, err) == (2, "", message)
    code, out, err = run(capsys, "enumerate", "--family", "schur", "--n", "1", "--m", "1", "--lambda", "1,1", "--mu", "1")
    assert (code, out, err) == (2, "", "ospchar: family 'schur' does not take --m\n")
    # --m 0 is the default, spelled out
    code, out, _ = run(capsys, "compute", "--family", "schur", "--method", "jt", "--n", "2", "--m", "0", "--lambda", "1")
    assert (code, out) == (0, "x1 + x2\n")


def test_orthosymplectic_det_and_sum_take_shapes_longer_than_n(capsys):
    args = ("--family", "orthosymplectic", "--n", "1", "--m", "1", "--lambda", "1,1,1")
    code, want, _ = run(capsys, "compute", "--method", "tableau", *args)
    assert code == 0 and want != "0\n"
    for method in ("det", "sp_schur_sum"):
        assert run(capsys, "compute", "--method", method, *args) == (0, want, "")
    # orthosymplectic jt still needs len(lam) <= n
    message = "ospchar: partition (1, 1, 1) is longer than n=1\n"
    assert run(capsys, "compute", "--method", "jt", *args) == (2, "", message)


def test_orthosymplectic_det_rejects_shapes_outside_the_hook(capsys):
    # lam_{n+1} > m: det is out of its domain; the sums give the character, 0
    args = ("--family", "orthosymplectic", "--n", "1", "--m", "1", "--lambda", "2,2")
    message = "ospchar: outside the determinant formula's domain: lam_{n+1} > m\n"
    assert run(capsys, "compute", "--method", "det", *args) == (2, "", message)
    for method in ("tableau", "sp_schur_sum"):
        assert run(capsys, "compute", "--method", method, *args) == (0, "0\n", "")
    code, out, err = run(capsys, "verify", "--identity", "ortho_methods", "--lambda", "2,2", "--n", "1", "--m", "1")
    assert (code, out, err) == (2, "", message)


def test_verify_ortho_methods_on_a_shape_longer_than_n(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "ortho_methods", "--lambda", "1,1", "--n", "1", "--m", "1")
    assert (code, out) == (0, "PASS ortho_methods lambda=1,1 n=1 m=1\n")


# (family, n, m, lambda) -> compute methods whose outputs are byte-equal
# there: points past the acceptance sweep's n, m <= 3 and |lambda| <= 6.
COMPUTE_AGREEMENTS = {
    # |lambda| = 8: the letter recurrence at full scale
    ("orthosymplectic", 3, 3, "4,3,1"): ("tableau", "sp_schur_sum", "jt"),
    # n = 4 and 5: every staged division one size up
    ("symplectic", 4, 0, "5,1"): ("tableau", "weyl"),
    ("odd_symplectic", 4, 0, "5,1"): ("tableau", "okada"),
    ("orthosymplectic", 4, 3, "3,2,1"): ("tableau", "det"),
    ("symplectic", 5, 0, "3,2,1"): ("tableau", "weyl"),
    ("odd_symplectic", 5, 0, "3,2,1"): ("tableau", "okada"),
    ("orthosymplectic", 4, 2, "3,2,1"): ("tableau", "sp_schur_sum"),
    # lam_4 = 1 <= m: inside the (3, 3)-hook though longer than n = 3
    ("orthosymplectic", 3, 3, "3,2,1,1"): ("tableau", "det", "sp_schur_sum"),
    # exponents past 255 take two-byte fields in both packed kernels
    ("schur", 2, 0, "300,100"): ("weyl", "jt"),
}


@pytest.mark.parametrize("case", sorted(COMPUTE_AGREEMENTS, key=str), ids=lambda case: "-".join(map(str, case)))
def test_compute_routes_agree_past_the_sweep(capsys, case):
    family, n, m, lam = case
    args = ("--family", family, "--n", str(n), "--m", str(m), "--lambda", lam)
    first, *others = COMPUTE_AGREEMENTS[case]
    code, want, _ = run(capsys, "compute", "--method", first, *args)
    assert code == 0 and want
    for method in others:
        assert run(capsys, "compute", "--method", method, *args) == (0, want, ""), method


@pytest.mark.parametrize("family, n, m, lam", [("hook", 3, 3, "6,2,1,1,1"), ("orthosymplectic", 3, 3, "4,3,1")])
def test_enumerate_lists_as_many_tableaux_as_the_sum_counts(capsys, family, n, m, lam):
    # one line per tableau, and each tableau adds 1 to one coefficient
    args = ("--family", family, "--n", str(n), "--m", str(m), "--lambda", lam)
    code, listing, _ = run(capsys, "enumerate", *args)
    assert code == 0
    code, out, _ = run(capsys, "compute", "--method", "tableau", "--format", "json", *args)
    assert code == 0
    assert len(listing.splitlines()) == sum(int(t["c"]) for t in json.loads(out)["terms"])


def test_closed_pipe_ends_the_command_quietly():
    # like any Unix filter: no traceback, killed by SIGPIPE, not exit 1
    if not hasattr(signal, "SIGPIPE"):
        pytest.skip("the platform has no SIGPIPE")
    src = str(Path(ospchar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "ospchar", "enumerate", "--family", "symplectic", "--n", "4", "--lambda", "4,3,2,1"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"[[1,1,1,1],[2,2,2],[3,3],[4]]\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (-signal.SIGPIPE, b"")


def test_exit_codes_through_the_module_entry_point():
    # python -m ospchar runs entry(), which the in-process tests do not reach
    src = str(Path(ospchar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def ospchar_cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "ospchar", *argv], capture_output=True, text=True, env=env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    code, out, err = ospchar_cli("compute", "--family", "schur", "--method", "jt", "--n", "1", "--lambda", "3.5")
    assert (code, out, err) == (2, "", "ospchar: part '3.5' is not an integer\n")
    code, out, err = ospchar_cli("verify", "--identity", "symplectic_denominator", "--n", "0")
    assert (code, out) == (2, "") and err.startswith("ospchar: ")
    code, out, err = ospchar_cli("verify", "--identity", "golden")
    assert (code, err) == (0, "") and len(out.splitlines()) == 4


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "power_product", "--n", "2", "--l", "3")
    assert code == 0
    assert out.startswith("PASS power_product")
    code, out, _ = run(capsys, "verify", "--identity", "golden", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 4 and all(r["status"] == "pass" for r in reports)
    code, _, err = run(capsys, "verify", "--identity", "power_product", "--n", "2")
    assert code == 2 and "needs --l" in err


def test_verify_failure_exit_code(capsys):
    failing = VerificationReport("demo", {"n": 1}, "fail", witness={"left": "0", "right": "1", "first_diff": "1: 0 vs 1"})
    passing = VerificationReport("demo", {"n": 1}, "pass")
    assert _emit([passing], as_json=False) == 0
    assert _emit([passing, failing], as_json=False) == 1
    capsys.readouterr()


def test_error_report_outranks_failure(capsys):
    passing = VerificationReport("demo", {"n": 1}, "pass")
    failing = VerificationReport("demo", {"n": 1}, "fail", witness={"left": "0", "right": "1", "first_diff": "1: 0 vs 1"})
    errored = VerificationReport("demo", {"n": 2}, "error", witness={"exception": "AlgebraError", "message": "boom"})
    assert _emit([errored, failing, passing], as_json=False) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "ERROR demo n=2  [error: AlgebraError: boom]"
    assert len(out.splitlines()) == 3
    assert err == "ospchar: internal error: boom\n"


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    code, out, _ = run(capsys, "compute", "--family", "schur", "--method", "jt", "--n", "2", "--lambda", "1")
    assert (code, out) == (0, "x1 + x2\n")


def test_verify_identity_choices_are_the_registry():
    parser = _build_parser()
    verify = parser._subparsers._group_actions[0].choices["verify"]
    (identity,) = [a for a in verify._actions if a.dest == "identity"]
    assert set(identity.choices) == set(IDENTITIES)


def test_suite_command(capsys):
    code, out, _ = run(capsys, "suite", "--max-n", "2", "--max-m", "2", "--max-weight", "4")
    assert code == 0
    assert out.splitlines()[-1].endswith("0 failures")
    code, out, _ = run(capsys, "suite", "--max-n", "1", "--max-m", "1", "--max-weight", "1", "--json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["status"] == "pass" for r in reports)


def test_suite_json_is_pinned(capsys):
    # SHA-256 of the whole report list: every check's parameters, status and
    # order stay fixed.
    code, out, _ = run(capsys, "suite", "--max-n", "2", "--max-m", "2", "--max-weight", "3", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "4336340c9df95e53f6969b415f9c9df1518a3517af46767d196be42b16808914"


def test_formula_defect_is_an_internal_error(capsys, monkeypatch):
    real = characters.symplectic_reduced_denominator
    monkeypatch.setattr(characters, "symplectic_reduced_denominator", lambda zs: real(zs) + 1)
    code, _, err = run(capsys, "verify", "--identity", "ortho_methods", "--n", "2", "--m", "1", "--lambda", "2,1")
    assert code == 3 and err.startswith("ospchar: internal error: inexact division")
    code, _, err = run(
        capsys, "compute", "--family", "orthosymplectic", "--method", "det",
        "--n", "2", "--m", "1", "--lambda", "2,1",
    )
    assert code == 3 and err.startswith("ospchar: internal error:")
    # the Weyl quotient checks its divisor against its own rows at the empty partition
    code, _, err = run(capsys, "compute", "--family", "symplectic", "--method", "weyl", "--n", "2", "--lambda", "1")
    assert code == 3 and "denominator does not match its product form" in err
    # a ValueError a route raises past compute's own domain check is a defect
    monkeypatch.undo()
    monkeypatch.setattr(characters, "skew_schur_jt", nested_domain_check)
    code, out, err = run(
        capsys, "compute", "--family", "orthosymplectic", "--method", "sp_schur_sum",
        "--n", "2", "--m", "1", "--lambda", "2,1",
    )
    assert (code, out, err) == (3, "", "ospchar: internal error: wrong inner shape\n")
    # golden runs each example through compute: one "error" report, the
    # other three checked
    code, out, err = run(capsys, "verify", "--identity", "golden", "--json")
    reports = json.loads(out)
    assert code == 3 and [r["status"] for r in reports] == ["pass", "pass", "error", "pass"]
    assert reports[2]["witness"] == {"exception": "RuntimeError", "message": "wrong inner shape"}


def test_formula_defect_message_stays_short(capsys, monkeypatch):
    # the remainder has thousands of terms; the message names only the first few
    real = characters.symplectic_reduced_denominator
    monkeypatch.setattr(characters, "symplectic_reduced_denominator", lambda zs: real(zs) + zs[0])
    code, _, err = run(
        capsys, "compute", "--family", "orthosymplectic", "--method", "det",
        "--n", "3", "--m", "3", "--lambda", "3,2,1",
    )
    assert code == 3 and err.startswith("ospchar: internal error: inexact division, remainder of ")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "divisor, argv, message",
    [
        (
            "symplectic_reduced_denominator",
            ["--family", "symplectic", "--method", "weyl", "--n", "2", "--lambda", "1"],
            "denominator does not match its product form",
        ),
        (
            "symplectic_reduced_denominator",
            ["--family", "orthosymplectic", "--method", "det", "--n", "2", "--m", "1", "--lambda", "2,1"],
            "inexact division",
        ),
        (
            "symplectic_reduced_denominator",
            ["--family", "orthosymplectic", "--method", "sp_schur_sum", "--n", "2", "--m", "1", "--lambda", "2,1"],
            "denominator does not match its product form",
        ),
        (
            "odd_reduced_denominator",
            ["--family", "odd_symplectic", "--method", "okada", "--n", "2", "--lambda", "1"],
            "denominator does not match its product form",
        ),
    ],
    ids=["weyl", "det", "sp_schur_sum", "okada"],
)
def test_defect_in_a_denominator_factor_group_is_an_internal_error(capsys, monkeypatch, divisor, argv, message):
    # the reduced denominator is the one factor group the route divides by
    real = getattr(characters, divisor)
    # off by a constant, and off by the first z-letter
    for broken in (lambda *args: real(*args) + 1, lambda zs, *rest: real(zs, *rest) + zs[0]):
        with monkeypatch.context() as patch:
            patch.setattr(characters, divisor, broken)
            code, out, err = run(capsys, "compute", *argv)
        assert code == 3 and not out, broken
        assert err.startswith("ospchar: internal error:") and message in err, broken


def nested_domain_check(*args, **kwargs):
    # a route's own domain check, tripped by a defect in the formula around it
    raise ValueError("wrong inner shape")


@pytest.mark.parametrize("as_json", [False, True])
def test_suite_reports_every_check_past_a_formula_defect(capsys, monkeypatch, as_json):
    real = characters.symplectic_reduced_denominator
    argv = ["suite", "--max-n", "1", "--max-m", "1", "--max-weight", "1"] + (["--json"] if as_json else [])
    # a wrong value, and a ValueError from inside the routes: every grid
    # point is in its identity's domain, so neither is a usage error
    for broken in (lambda zs: real(zs) + 1, nested_domain_check):
        with monkeypatch.context() as patch:
            patch.setattr(characters, "symplectic_reduced_denominator", broken)
            code, out, err = run(capsys, *argv)
        assert code == 3 and err.startswith("ospchar: internal error:"), broken
        if as_json:
            statuses = [(r["identity"], r["status"]) for r in json.loads(out)]
        else:
            lines = out.splitlines()
            errors = sum(line.startswith("ERROR ") for line in lines[:-1])
            assert errors and lines[-1] == f"{len(lines) - 1} checks, 0 failures, {errors} errors"
            statuses = [(line.split()[1], line.split()[0].lower()) for line in lines[:-1]]
        assert len(statuses) == 36  # as many as a clean run
        assert ("ortho_methods", "error") in statuses
        assert all(status == "pass" for identity, status in statuses if identity == "hook_methods")
        # one golden example breaks; the other three are still checked
        assert [status for identity, status in statuses if identity == "golden"] == ["error", "pass", "pass", "pass"]


def test_verify_reports_a_route_value_error_as_internal(capsys, monkeypatch):
    # The point is validated before any route runs, so a ValueError from a
    # route is a formula defect: an "error" report and exit 3, not usage.
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(characters, "ortho_jt", broken)
    monkeypatch.setattr(identities, "ortho_jt", broken)
    code, out, err = run(capsys, "verify", "--identity", "ortho_methods", "--lambda", "1", "--n", "1", "--m", "1")
    assert code == 3 and out.startswith("ERROR ortho_methods") and "RuntimeError: boom" in out
    assert err == "ospchar: internal error: boom\n"
    monkeypatch.setattr(identities, "ortho_single_y", broken)
    code, out, err = run(capsys, "verify", "--identity", "odd_ortho_specialization", "--lambda", "1", "--n", "1")
    assert code == 3 and out.startswith("ERROR odd_ortho_specialization")
    assert err == "ospchar: internal error: boom\n"


@pytest.mark.parametrize(
    "identity, route, argv",
    [
        ("supersymmetry", "hook_schur_jt", ["--lambda", "1", "--n", "1", "--m", "1"]),
        ("specialization_reduction", "ortho_single_y", ["--lambda", "1", "--n", "1", "--r", "1", "--variant", "spo"]),
        ("bkw_general", "symplectic_weyl", ["--n", "1", "--m", "1", "--r", "1"]),
        ("bkw_original", "odd_symplectic_det", ["--n", "1", "--m", "1", "--r", "1"]),
    ],
    ids=["supersymmetry", "specialization_reduction", "bkw_general", "bkw_original"],
)
def test_lemma_checks_report_a_route_value_error_as_internal(capsys, monkeypatch, identity, route, argv):
    # the lemma-style checks call their routes at points they validated
    # themselves, so a ValueError from a route is a defect too: exit 3
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(identities, route, broken)
    code, out, err = run(capsys, "verify", "--identity", identity, *argv)
    assert code == 3 and out.startswith(f"ERROR {identity}") and "RuntimeError: boom" in out
    assert err == "ospchar: internal error: boom\n"


def test_verify_rejects_counts_outside_the_domain(capsys):
    code, _, err = run(capsys, "verify", "--identity", "kernel_det", "--n", "0", "--variant", "p")
    assert code == 2 and "needs n >= 1" in err
    code, _, err = run(capsys, "verify", "--identity", "hook_methods", "--n", "-1", "--m", "1", "--lambda", "1")
    assert code == 2 and "--n must be nonnegative" in err
    for identity in ("odd_denominator", "symplectic_denominator"):
        code, out, err = run(capsys, "verify", "--identity", identity, "--n", "0")
        assert code == 2 and "needs n >= 1" in err and out == "", identity
    code, out, err = run(capsys, "verify", "--identity", "power_product", "--n", "0", "--l", "1")
    assert code == 2 and "needs n >= 1" in err and out == ""
    code, out, err = run(capsys, "verify", "--identity", "cauchy_binet", "--m", "0", "--n", "0")
    assert code == 2 and "needs m >= 1" in err and out == ""
    for n1, n2 in ((0, 0), (0, 2)):
        code, out, err = run(capsys, "verify", "--identity", "beta_complement", "--n1", str(n1), "--n2", str(n2), "--lambda", "")
        assert code == 2 and "needs n1, n2 >= 1" in err and out == ""
    # The method verifiers check the counts as compute does.
    for identity, lam, n, m, message in (
        ("hook_methods", "1", 0, 1, "n must be at least 1"),
        ("hook_methods", "1", 1, 0, "family 'hook' needs m >= 1"),
        ("ortho_methods", "1", 1, 0, "family 'orthosymplectic' needs m >= 1"),
        ("ortho_methods", "", 0, 1, "n must be at least 1"),
    ):
        code, out, err = run(capsys, "verify", "--identity", identity, "--lambda", lam, "--n", str(n), "--m", str(m))
        assert code == 2 and message in err and out == "", (identity, n, m)
    # Outside the domain of the route they check, the method verifiers and
    # odd_ortho_specialization fail with the message of compute at the same point.
    for identity, family, method, lam, counts in (
        ("ortho_methods", "orthosymplectic", "det", "3,3", ("--n", "1", "--m", "1")),
        ("hook_methods", "hook", "det", "3,3", ("--n", "1", "--m", "1")),
        ("symplectic_methods", "symplectic", "weyl", "1,1,1", ("--n", "2")),
        ("odd_methods", "odd_symplectic", "okada", "1,1,1", ("--n", "2")),
        ("odd_ortho_specialization", "odd_symplectic", "okada", "1,1,1", ("--n", "2")),
        ("odd_ortho_specialization", "odd_symplectic", "okada", "1,1", ("--n", "1")),
        ("odd_ortho_specialization", "odd_symplectic", "okada", "", ("--n", "0")),
    ):
        verified = run(capsys, "verify", "--identity", identity, "--lambda", lam, *counts)
        computed = run(capsys, "compute", "--family", family, "--method", method, "--lambda", lam, *counts)
        assert verified == computed and verified[:2] == (2, ""), identity


def test_verify_flags_come_from_the_verifier_signatures():
    # one flag per parameter name of the registered verifiers; lam is --lambda
    assert _verify_flags() == {
        "lam": str, "n": int, "m": int, "l": int, "n1": int, "n2": int, "seed": int, "r": int, "variant": str,
    }


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--identity", "symplectic_methods", "--lambda", "1", "--n", "1", "--m", "5"), "--m"),
        (("--identity", "golden", "--n", "7"), "--n"),
        (("--identity", "golden", "--lambda", "1", "--json"), "--lambda"),
        (("--identity", "power_product", "--n", "2", "--l", "3", "--variant", "p"), "--variant"),
    ],
)
def test_verify_rejects_flags_the_identity_does_not_take(capsys, argv, flag):
    identity = argv[1]
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"ospchar: identity {identity} does not take {flag}\n"


def test_benchmark_tracer_targets_exist():
    """Every function the benchmark's tracer wraps is a module-level name in ospchar."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = list(tracing.FUNCTIONS) + list(tracing.GENERATORS)
    assert targets
    for module, name, _ in targets:
        assert callable(getattr(importlib.import_module(f"ospchar.{module}"), name, None)), (module, name)
