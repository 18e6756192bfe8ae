"""Command-line interface: compute characters, enumerate tableaux, verify identities.

Exit codes: 0 on success (or all checks passing), 1 when a verification
fails, 2 on usage errors, 3 on internal errors: a computation broke an
arithmetic contract, failed a built-in consistency check, such as a
route's check at the empty partition, or read a table past its end (an
IndexError), which points at a defect in a formula, not at the input.
``verify`` and ``suite`` print such a check as an "error" report, print every
other report too, and then exit 3.  A usage error is a ValueError raised
before any computation runs: a bad flag value, a partition that does not
parse, a point outside the route's domain.  A ValueError raised later, by a
``compute`` route or at a ``suite`` grid point (each inside its domain), is
internal.  ``verify`` takes its point from the user, and each check
validates it in its own body, so a ValueError from that validation is a
usage error.  Every check validates before any route runs, and a
ValueError that a route raises afterwards is internal, an "error" report.
The ``ospchar`` command ends quietly, by SIGPIPE, when its reader closes
the pipe early (``enumerate ... | head``).
Text output is canonical and byte-stable; JSON round-trips through the
documented schema.
"""

from __future__ import annotations

import argparse
import inspect
import json
import signal
import sys
from typing import Sequence

from .characters import FAMILIES, METHODS, CharacterRequest, family_tableaux
from .symfun import Partition
from . import identities


def _verify_flags() -> dict[str, type]:
    """Each verifier parameter, in registry order, with its flag's type: str
    for lam and for a str annotation (text when postponed), else int."""
    flags = {}
    for identity in identities.IDENTITIES:
        for name, param in inspect.signature(identities.verifier(identity)).parameters.items():
            flags[name] = str if name == "lam" or param.annotation in (str, "str") else int
    return flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospchar",
        description="Exact characters of classical groups and supergroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one character by one method")
    comp.add_argument("--family", required=True, choices=FAMILIES)
    comp.add_argument("--method", required=True, choices=METHODS)
    comp.add_argument("--n", type=int, required=True)
    comp.add_argument("--m", type=int, default=0)
    comp.add_argument("--lambda", dest="lam", required=True, help="comma-separated parts; empty for the empty partition")
    comp.add_argument("--format", choices=("text", "json"), default="text")

    enum = sub.add_parser("enumerate", help="list all tableaux of a shape")
    enum.add_argument("--family", required=True, choices=FAMILIES)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--m", type=int, default=0)
    enum.add_argument("--lambda", dest="lam", required=True)
    enum.add_argument("--mu", default=None, help="inner shape (schur only)")

    ver = sub.add_parser("verify", help="check one identity")
    ver.add_argument("--identity", required=True, choices=sorted(identities.IDENTITIES))
    for name, kind in _verify_flags().items():
        ver.add_argument(_flag(name), dest=name, type=kind, default=None)
    ver.add_argument("--json", action="store_true")

    suite = sub.add_parser("suite", help="run every identity over a bounded grid")
    suite.add_argument("--max-n", type=int, required=True)
    suite.add_argument("--max-m", type=int, required=True)
    suite.add_argument("--max-weight", type=int, required=True)
    suite.add_argument("--json", action="store_true")
    return parser


def _cmd_compute(args) -> int:
    value = CharacterRequest(args.family, args.method, Partition.from_string(args.lam), args.n, args.m).compute()
    if args.format == "json":
        print(value.to_json())
    else:
        print(value.to_text())
    return 0


def _cmd_enumerate(args) -> int:
    lam = Partition.from_string(args.lam)
    if args.mu is not None and args.family != "schur":
        raise ValueError("--mu applies to the schur family only")
    mu = Partition.from_string(args.mu) if args.mu is not None else Partition()
    sys.stdout.writelines(family_tableaux(args.family, lam, args.n, args.m, mu))
    return 0


def _flag(name: str) -> str:
    return "--lambda" if name == "lam" else f"--{name}"


def _cmd_verify(args) -> int:
    # A parameter of the identity's check is a required flag unless it has a
    # default; any other parameter flag is an error.
    signature = inspect.signature(identities.verifier(args.identity)).parameters
    for name, value in vars(args).items():
        if name not in ("command", "identity", "json") and value is not None and name not in signature:
            raise ValueError(f"identity {args.identity} does not take {_flag(name)}")
    params = {}
    for name, param in signature.items():
        value = getattr(args, name, None)
        required = param.default is param.empty
        if value is None:
            if required:
                raise ValueError(f"identity {args.identity} needs {_flag(name)}")
            continue
        if name == "lam":
            value = Partition.from_string(value)
        elif required and isinstance(value, int) and value < 0:
            raise ValueError(f"--{name} must be nonnegative")
        params[name] = value
    return _emit(identities.run_check(args.identity, params), args.json)


def _cmd_suite(args) -> int:
    return _emit(identities.run_suite(args.max_n, args.max_m, args.max_weight), args.json, summary=True)


def _emit(reports: Sequence[identities.VerificationReport], as_json: bool, summary: bool = False) -> int:
    failures = sum(r.status == "fail" for r in reports)
    errors = [r for r in reports if r.status == "error"]
    if as_json:
        print(json.dumps([r.to_json_dict() for r in reports], separators=(",", ":")))
    else:
        for r in reports:
            print(r)
        if summary:
            print(f"{len(reports)} checks, {failures} failures" + (f", {len(errors)} errors" if errors else ""))
    if errors:
        print(f"ospchar: internal error: {errors[0].witness['message']}", file=sys.stderr)
        return 3
    return 1 if failures else 0


# Built once per process: building it costs ten times a one-cell compute.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_suite(args)
    except ValueError as exc:
        print(f"ospchar: {exc}", file=sys.stderr)
        return 2
    except identities.COMPUTATION_ERRORS as exc:
        print(f"ospchar: internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    # Like any Unix filter, die by SIGPIPE when the reader goes away, rather
    # than raise BrokenPipeError; main() itself leaves signals alone.
    sigpipe = getattr(signal, "SIGPIPE", None)
    if sigpipe is not None:
        signal.signal(sigpipe, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
