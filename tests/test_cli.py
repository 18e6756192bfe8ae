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
from ospchar import characters
from ospchar.algebra import LaurentPolynomial
from ospchar.characters import standard_xy
from ospchar.cli import _build_parser, _emit, main
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
}


@pytest.mark.parametrize("case", sorted(ENUMERATE_PINS, key=str))
def test_enumerate_output_is_pinned(capsys, case):
    family, n, m, lam, mu = case
    argv = ["enumerate", "--family", family, "--n", str(n), "--m", str(m), "--lambda", lam]
    code, out, _ = run(capsys, *argv, *(["--mu", mu] if mu else []))
    assert code == 0
    assert (len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest()) == ENUMERATE_PINS[case]


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
    real = characters.symplectic_denominator_product
    monkeypatch.setattr(characters, "symplectic_denominator_product", lambda xs: real(xs) + 1)
    code, _, err = run(capsys, "verify", "--identity", "ortho_methods", "--n", "2", "--m", "1", "--lambda", "2,1")
    assert code == 3 and err.startswith("ospchar: internal error: inexact division")
    code, _, err = run(
        capsys, "compute", "--family", "orthosymplectic", "--method", "det",
        "--n", "2", "--m", "1", "--lambda", "2,1",
    )
    assert code == 3 and err.startswith("ospchar: internal error:")
    code, _, err = run(capsys, "compute", "--family", "symplectic", "--method", "weyl", "--n", "2", "--lambda", "1")
    assert code == 3 and "denominator does not match its product form" in err


def test_formula_defect_message_stays_short(capsys, monkeypatch):
    # the remainder has thousands of terms; the message names only the first few
    real = characters.symplectic_denominator_product
    monkeypatch.setattr(characters, "symplectic_denominator_product", lambda xs: real(xs) + xs[0])
    code, _, err = run(
        capsys, "compute", "--family", "orthosymplectic", "--method", "det",
        "--n", "3", "--m", "3", "--lambda", "3,2,1",
    )
    assert code == 3 and err.startswith("ospchar: internal error: inexact division, remainder of ")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "factors, argv, message",
    [
        (
            "symplectic_denominator_factors",
            ["--family", "symplectic", "--method", "weyl", "--n", "2", "--lambda", "1"],
            "denominator does not match its product form",
        ),
        (
            "symplectic_denominator_factors",
            ["--family", "orthosymplectic", "--method", "det", "--n", "2", "--m", "1", "--lambda", "2,1"],
            "inexact division",
        ),
        (
            "odd_denominator_factors",
            ["--family", "odd_symplectic", "--method", "okada", "--n", "2", "--lambda", "1"],
            "denominator does not match its product form",
        ),
    ],
    ids=["weyl", "det", "okada"],
)
def test_defect_in_a_denominator_factor_group_is_an_internal_error(capsys, monkeypatch, factors, argv, message):
    real = getattr(characters, factors)

    def broken(xs):
        singles, pairs = real(xs)
        return singles, pairs + xs[0]

    monkeypatch.setattr(characters, factors, broken)
    code, out, err = run(capsys, "compute", *argv)
    assert code == 3 and not out
    assert err.startswith("ospchar: internal error:") and message in err


@pytest.mark.parametrize("as_json", [False, True])
def test_suite_reports_every_check_past_a_formula_defect(capsys, monkeypatch, as_json):
    real = characters.symplectic_denominator_product
    monkeypatch.setattr(characters, "symplectic_denominator_product", lambda xs: real(xs) + 1)
    argv = ["suite", "--max-n", "1", "--max-m", "1", "--max-weight", "1"] + (["--json"] if as_json else [])
    code, out, err = run(capsys, *argv)
    assert code == 3 and err.startswith("ospchar: internal error:")
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
    # Outside the domain of the route they check, the method verifiers fail
    # with the message of compute at the same point.
    for identity, family, method, lam, counts in (
        ("ortho_methods", "orthosymplectic", "det", "3,3", ("--n", "1", "--m", "1")),
        ("hook_methods", "hook", "det", "3,3", ("--n", "1", "--m", "1")),
        ("symplectic_methods", "symplectic", "weyl", "1,1,1", ("--n", "2")),
        ("odd_methods", "odd_symplectic", "okada", "1,1,1", ("--n", "2")),
    ):
        verified = run(capsys, "verify", "--identity", identity, "--lambda", lam, *counts)
        computed = run(capsys, "compute", "--family", family, "--method", method, "--lambda", lam, *counts)
        assert verified == computed and verified[:2] == (2, ""), identity


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
