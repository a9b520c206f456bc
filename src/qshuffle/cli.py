"""Command line front end for the verification suite.

Subcommands:

    qshuffle verify {hecke-identity,group-identity,lemma3,factorization,
                     span,structure-constants} [--n N] [--q LIST] ...
    qshuffle multiplicities [--n N] [--q LIST] [--allow-large]
    qshuffle all [--q LIST] [--budget B] [--debug-orbit-checks]

Results go to stdout as human-readable text or as a stable JSON
document (--format json); diagnostics go to stderr.  Exit status is 0
when every check passed, 1 when some check failed, 2 on usage or
validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import __version__
from .flagmodel import (
    FLAG_BUDGET,
    BudgetExceeded,
    check_orbit_representatives,
    compare_structure_constants,
    verify_factorization,
    verify_lemma3,
    verify_span_commutativity,
)
from .hecke import wallach_group_product, wallach_product
from .report import CheckResult
from .spectral import verify_multiplicities

__all__ = ["main"]


def _flag_checks() -> dict[str, Callable[..., CheckResult]]:
    """The flag checks, each called as check(n, q, budget=), and lemma3
    also with t_values=; `all` runs them in this order.

    Built on each call, so a function rebound in this module (a test's
    stub, a tracer's wrapper) is the one that runs.
    """
    return {
        "lemma3": verify_lemma3,
        "factorization": verify_factorization,
        "span": verify_span_commutativity,
        "structure-constants": compare_structure_constants,
    }


_VERIFY_CHECKS = ("hecke-identity", "group-identity", *_flag_checks())
_VERIFY_Q = "2,3"
# the verify options each check reads; the flag checks not listed read
# _FLAG_OPTIONS
_FLAG_OPTIONS = ("q", "budget", "debug_orbit_checks")
_CHECK_OPTIONS = {
    "hecke-identity": (),
    "group-identity": (),
    "lemma3": (*_FLAG_OPTIONS, "t"),
}


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        vals = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"could not parse {what} list {text!r}") from None
    if not vals:
        raise ValueError(f"empty {what} list {text!r}")
    return vals


def _parse_qs(text: str) -> list[int]:
    # a repeated q would run the same check twice
    vals = _parse_ints(text, "q")
    repeated = sorted({v for v in vals if vals.count(v) > 1})
    if repeated:
        raise ValueError(f"repeated q value(s) {repeated} in {text!r}")
    return vals


def _parse_t_range(text: str, n: int) -> list[int]:
    # a range past verify_lemma3's t bound is refused before its list is
    # built, so 1:10000000000 is an error at once, not a long wait
    if ":" in text:
        lo_s, _, hi_s = text.partition(":")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"could not parse t range {text!r}") from None
        if hi < lo:
            raise ValueError(f"empty t range {text!r}")
        if lo < 1 or hi > n + 2:
            raise ValueError(f"t range {text!r} is not within 1:{n + 2}")
        return list(range(lo, hi + 1))
    return _parse_ints(text, "t")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, default=3, help="rank (default 3)")
    sp.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshuffle",
        description="Exact verification of the q-deformed top-to-random identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run one named verification")
    pv.add_argument("check", choices=_VERIFY_CHECKS)
    _add_common(pv)
    # options default to None so that _refuse_ignored sees what was given
    pv.add_argument("--q", help=f"comma-separated prime field sizes (default {_VERIFY_Q})")
    pv.add_argument("--t", help="t values for lemma3, e.g. 3 or 1,2,4 or 1:5")
    pv.add_argument("--budget", type=int,
                    help=f"max number of flags to enumerate (default {FLAG_BUDGET})")
    pv.add_argument("--debug-orbit-checks", action="store_true", default=None,
                    help="recheck the structure tensor on second orbit representatives")

    pm = sub.add_parser("multiplicities", help="eigenvalue multiplicities of tau")
    _add_common(pm)
    pm.add_argument("--q", default="1,2,3",
                    help="comma-separated evaluation points q0 (default 1,2,3)")
    pm.add_argument("--allow-large", action="store_true",
                    help="allow n >= 9 (the annihilator over n! basis elements, "
                         "and an elimination mod p per eigenvalue on each seminormal block)")

    pa = sub.add_parser("all", help="run the default verification grid")
    pa.add_argument("--q", default="2,3",
                    help="comma-separated prime field sizes (default 2,3)")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--budget", type=int, default=FLAG_BUDGET)
    pa.add_argument("--debug-orbit-checks", action="store_true")
    return parser


def _check_hecke_identity(n: int) -> CheckResult:
    elt = wallach_product(n)
    details = [{"surviving_terms": len(elt.terms), "pass": elt.is_zero()}]
    return CheckResult("hecke-identity", {"n": n}, details)


def _check_group_identity(n: int) -> CheckResult:
    prod = wallach_group_product(n)
    details = [{"surviving_terms": len(prod), "pass": not prod}]
    return CheckResult("group-identity", {"n": n}, details)


def _check_orbit_representatives(n: int, q: int, budget: int) -> list[CheckResult]:
    # the --debug-orbit-checks cross-check at (n, q): no result on a
    # pass, so passing output is unchanged, and one failing row naming
    # n and q when the two representatives disagree
    try:
        check_orbit_representatives(n, q, budget)
    except ArithmeticError as exc:
        row = {"pass": False, "witness": str(exc)}
        return [CheckResult("orbit-representatives", {"n": n, "q": q}, [row])]
    return []


def _refuse_ignored(args: argparse.Namespace) -> None:
    # an option the check would not read is an error, not a silent PASS
    reads = _CHECK_OPTIONS.get(args.check, _FLAG_OPTIONS)
    ignored = [
        "--" + name.replace("_", "-")
        for name in ("q", "t", "budget", "debug_orbit_checks")
        if name not in reads and getattr(args, name) is not None
    ]
    if ignored:
        raise ValueError(f"{args.check} does not take {', '.join(ignored)}")


def _run_verify(args: argparse.Namespace) -> list[CheckResult]:
    _refuse_ignored(args)
    n = args.n
    check = args.check
    if check == "hecke-identity":
        return [_check_hecke_identity(n)]
    if check == "group-identity":
        return [_check_group_identity(n)]
    qs = _parse_qs(args.q if args.q is not None else _VERIFY_Q)
    # _refuse_ignored let --t through for lemma3 only
    ts = {"t_values": _parse_t_range(args.t, n)} if args.t is not None else {}
    budget = args.budget if args.budget is not None else FLAG_BUDGET
    run = _flag_checks()[check]
    results = [run(n, q, budget=budget, **ts) for q in qs]
    # after the checks, so that their refusals come before any recount
    if args.debug_orbit_checks:
        for q in qs:
            results.extend(_check_orbit_representatives(n, q, budget))
    return results


def _run_all(args: argparse.Namespace) -> list[CheckResult]:
    qs = _parse_qs(args.q)
    budget = args.budget
    results = []
    for n in (2, 3, 4):
        results.append(_check_hecke_identity(n))
        results.append(_check_group_identity(n))
    for n in (2, 3, 4):
        for q in qs:
            results.extend(run(n, q, budget=budget) for run in _flag_checks().values())
            if args.debug_orbit_checks:
                results.extend(_check_orbit_representatives(n, q, budget))
    for n in (2, 3, 4):
        results.append(verify_multiplicities(n, qs))
    return results


def _emit_text(results: Sequence[CheckResult], ok: bool) -> None:
    for r in results:
        print(r.summary())
        for row in r.details:
            if not row["pass"]:
                print(f"  FAIL {row}")
    print(f"OVERALL: {'PASS' if ok else 'FAIL'} ({len(results)} checks)")


def _emit_json(command: str, results: Sequence[CheckResult], ok: bool) -> None:
    doc = {
        "schema": 1,
        "tool": {"name": "qshuffle", "version": __version__},
        "command": command,
        "pass": ok,
        "checks": [r.as_dict() for r in results],
    }
    print(json.dumps(doc, sort_keys=True, indent=2))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            results = _run_verify(args)
        elif args.command == "multiplicities":
            results = [
                verify_multiplicities(args.n, _parse_qs(args.q), args.allow_large)
            ]
        else:
            results = _run_all(args)
    except (BudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = all(r.passed for r in results)
    if args.format == "json":
        _emit_json(args.command, results, ok)
    else:
        _emit_text(results, ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
