"""Command-line front end.

Subcommands: certify, gap, kantorovich, beta, violation, fuzz.  Every
run is fully determined by its flags; reports are emitted either as a
short text block or as canonical JSON (--json), with identical numbers
in both modes.  Exit codes: 0 pass, 1 fail, 2 input or hypothesis
error.

``main`` builds its parser once per process, on its first call, and
parses every later call with it; ``build_parser`` returns a new parser
on every call, so a caller that changes one leaves ``main`` unchanged.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .certify import (
    CLASSICAL_STATEMENTS,
    JENSEN_KINDS,
    certify_jensen,
    certify_order,
    find_order_violation,
    verify_classical,
)
from .constants import beta_point, kantorovich
from .errors import LoewnerCertError, ParseError
from .fuzz import AGREE_RTOL, SUITE_NAMES, run_fuzz
from .gaps import (
    KINDS,
    NO_FAMILY_KINDS,
    ONE_OPERAND_KINDS,
    _upper_bound,
    build_gap_problem,
    solve,
    solve_bruteforce,
)
from .hermitian import matrix_from_obj, matrix_to_obj
from .jsonio import _read_json, dumps_canonical, format_float
from .maps import family_from_obj
from .scalarfn import parse_function

__all__ = ["main", "build_parser"]

_STATEMENTS = tuple(s.replace("_", "-")
                    for s in ("gamma_order", *JENSEN_KINDS, *CLASSICAL_STATEMENTS))


def _seed(text: str) -> int:
    """A ``--seed``: an integer >= 0, as numpy's generators take it."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="loewner-cert",
        description="Numerical certificates for operator-order inequalities.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kantorovich", help="generalized ratio constant K(m, M, p)")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("beta", help="best additive constant over [m, M]")
    p.add_argument("--f", required=True, help='function spec, e.g. "power:2"')
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gap", help="maximize one correlation-gap objective")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--f", required=True)
    p.add_argument("--A", nargs="+", required=True, metavar="FILE")
    p.add_argument("--B", nargs="*", default=None, metavar="FILE")
    p.add_argument("--maps", default=None, metavar="FILE")
    p.add_argument("--oracle", action="store_true",
                   help="also run the sampling oracle and report agreement")
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("certify", help="produce a pass/fail certificate")
    p.add_argument("--statement", required=True, choices=_STATEMENTS)
    p.add_argument("--f", default=None)
    p.add_argument("--A", nargs="+", default=None, metavar="FILE")
    p.add_argument("--B", nargs="*", default=None, metavar="FILE")
    p.add_argument("--maps", default=None, metavar="FILE")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--M", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("violation", help="search for an order-preservation failure")
    p.add_argument("--f", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fuzz", help="run randomized verification suites")
    p.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--json", action="store_true")
    return top


def _load_matrices(paths, side):
    """Operands named by their files, in order, and the files' digests.

    The names label every error about an operand; a file given again is
    another operand, named by its position too.  Each file is read once,
    and its digest is that of the bytes parsed.
    """
    if not paths:
        return None, []
    mats, digests = {}, []
    for i, path in enumerate(paths):
        name = path if path not in mats else f"{path} ({side}[{i}])"
        obj, digest = _read_json(path)
        mats[name] = matrix_from_obj(obj, name=path)
        digests.append({"path": path, "sha256": digest})
    return mats, digests


def _print(report: dict, lines, as_json: bool) -> None:
    if as_json:
        print(dumps_canonical(report))
    else:
        for line in lines:
            print(line)


def _cmd_kantorovich(args) -> int:
    val = kantorovich(args.m, args.M, args.p)
    report = {"K": val, "m": args.m, "M": args.M, "p": args.p}
    _print(report, [format_float(val)], args.json)
    return 0


def _cmd_beta(args) -> int:
    f = parse_function(args.f)
    val, arg = beta_point(f, args.m, args.M, args.alpha)
    report = {
        "beta": val,
        "argmax": arg,
        "alpha": args.alpha,
        "m": args.m,
        "M": args.M,
        "f": f.spec_string(),
    }
    _print(report, [format_float(val)], args.json)
    return 0


def _load_inputs(args):
    a_ops, a_digests = _load_matrices(args.A, "A")
    b_ops, b_digests = _load_matrices(args.B, "B")
    family = None
    digests = {"A": a_digests, "B": b_digests}
    if args.maps:
        obj, digest = _read_json(args.maps)
        try:
            family = family_from_obj(obj)
        except LoewnerCertError as exc:
            raise ParseError(f"{args.maps}: {exc}") from exc
        digests["maps"] = {"path": args.maps, "sha256": digest}
    return a_ops, b_ops, family, digests


def _cmd_gap(args) -> int:
    if args.maps and args.kind in NO_FAMILY_KINDS:
        raise LoewnerCertError(f"kind {args.kind} takes no map family")
    if args.B is not None and args.kind in ONE_OPERAND_KINDS:
        raise LoewnerCertError(f"kind {args.kind} takes no B operands")
    f = parse_function(args.f)
    a_ops, b_ops, family, digests = _load_inputs(args)
    problem = build_gap_problem(args.kind, f, a_ops, b_ops, family)
    res = solve(problem, seed=args.seed)
    report = {
        "kind": args.kind,
        "f": f.spec_string(),
        "value": res.value,
        "maximizer_re": [float(v) for v in res.maximizer.real],
        "maximizer_im": [float(v) for v in res.maximizer.imag],
        "solver": res.record(args.seed),
        "inputs": digests,
    }
    lines = [
        f"kind      {args.kind}",
        f"f         {f.spec_string()}",
        f"value     {format_float(res.value)}",
        f"converged {str(res.converged).lower()}",
    ]
    if res.upper is not None:
        lines.append(f"upper     {format_float(res.upper)}")
    if args.oracle:
        # the oracle stops at a certified bound, which the closed forms lack
        upper = res.upper if res.upper is not None else \
            _upper_bound(problem, res.value, res.maximizer)[0]
        oracle = solve_bruteforce(problem, seed=args.seed, upper=upper)
        agree = abs(res.value - oracle.value) <= AGREE_RTOL * (1.0 + abs(oracle.value))
        report["oracle_value"] = oracle.value
        report["agreement"] = bool(agree)
        report["oracle"] = {"samples": oracle.restarts, "blocks": oracle.blocks,
                            "sweeps": oracle.iterations, "stop": oracle.stop}
        lines.append(f"oracle    {format_float(oracle.value)}")
        lines.append(f"sweeps    {oracle.iterations} ({oracle.stop})")
        lines.append(f"agreement {str(bool(agree)).lower()}")
    _print(report, lines, args.json)
    return 0


def _cmd_certify(args) -> int:
    statement = args.statement.replace("-", "_")
    if args.maps and statement not in JENSEN_KINDS:
        raise LoewnerCertError(f"statement {args.statement} takes no map family")
    if args.B is not None and JENSEN_KINDS.get(statement) in ONE_OPERAND_KINDS:
        raise LoewnerCertError(f"statement {args.statement} takes no B operands")
    f = parse_function(args.f) if args.f else None
    a_ops, b_ops, family, digests = _load_inputs(args)
    if statement in CLASSICAL_STATEMENTS:
        cert = verify_classical(statement, a_ops, b_ops, p=args.p, f=f, alpha=args.alpha,
                                m=args.m, M=args.M, tol=args.tol)
    elif f is None:  # None would reach the spectral assembly as an AttributeError
        raise LoewnerCertError(f"{args.statement} needs --f")
    else:
        solver = {"tol": args.tol, "seed": args.seed}
        cert = certify_order(a_ops, b_ops, f, **solver) if statement == "gamma_order" \
            else certify_jensen(statement, f, a_ops, b_ops, family, **solver)
    report = cert.to_dict()
    report["inputs"]["files"] = digests
    lines = [f"statement {cert.statement}"]
    for name in sorted(cert.constants):
        lines.append(f"{name:<9} {format_float(cert.constants[name])}")
    lines.append(f"slack     {format_float(cert.slack)}")
    lines.append(f"tol       {format_float(cert.tol)}")
    lines.append("PASS" if cert.passed else "FAIL")
    _print(report, lines, args.json)
    return 0 if cert.passed else 1


def _cmd_violation(args) -> int:
    f = parse_function(args.f)
    hit = find_order_violation(f, args.dim, args.trials, args.seed,
                               lo=args.lo, hi=args.hi)
    if hit is None:
        report = {"found": False, "trials": args.trials, "f": f.spec_string()}
        _print(report, [f"no violation in {args.trials} trials"], args.json)
        return 0
    report = {
        "found": True,
        "trial": hit.trial,
        "witness": hit.witness,
        "A": matrix_to_obj(hit.A),
        "B": matrix_to_obj(hit.B),
        "f": f.spec_string(),
    }
    lines = [
        f"violation at trial {hit.trial}",
        f"witness   {format_float(hit.witness)}",
    ]
    _print(report, lines, args.json)
    return 0


def _cmd_fuzz(args) -> int:
    report = run_fuzz(args.suite, args.trials, args.seed)
    lines = [f"{'suite':<12} {'trials':>8} {'failures':>9}  status"]
    for name, res in report["suites"].items():
        ok = "pass" if res["failures"] == 0 else "FAIL"
        lines.append(f"{name:<12} {res['trials']:>8} {res['failures']:>9}  {ok}")
    lines.append("all pass" if report["passed"] else "FAILURES")
    _print(report, lines, args.json)
    return 0 if report["passed"] else 1


_HANDLERS = {
    "kantorovich": _cmd_kantorovich,
    "beta": _cmd_beta,
    "gap": _cmd_gap,
    "certify": _cmd_certify,
    "violation": _cmd_violation,
    "fuzz": _cmd_fuzz,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (LoewnerCertError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
