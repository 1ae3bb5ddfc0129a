"""Command-line front end.

Subcommands:
  compute   one polynomial by one or several methods; the (family, method)
            pairs and the inputs each accepts come from the route table
            `checks.ROUTES`.  `--method all` cross-checks every route of the
            family; on a disagreement it names each route whose value differs
            from the first route's and prints the difference
  series    one-row generating-series coefficients, self-verified against
            the linear-factor product
  verify    the check suites of `checks.SUITES`, one or all, within a size
            budget; each failure names its first counterexample

Exit codes: 0 success, 1 cross-method disagreement or failed verification,
2 malformed input (including a negative count and a bad QSYM_MAX_TERMS),
3 precondition violation (e.g. too many rows, more than
`tableaux.MAX_VARIABLES` variables k + m, or a non-strict shape for a
Q-family).
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import ROUTES, SUITES, run_suite, series_inverse_holds
from .errors import ParseError, PreconditionError, QsymError, parse_count
from .qfun import QContext, q_row
from .shapes import Partition
from .tableaux import MAX_VARIABLES, VariableSpec


def _count(text: str) -> int:
    """argparse type for a nonnegative integer."""
    try:
        return parse_count(text, "a count")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def cmd_compute(args) -> int:
    lam = Partition.from_string(args.lam)
    mu = Partition.from_string(args.mu)
    spec = VariableSpec(args.k, args.m)
    methods = [m for f, m in ROUTES if f == args.family]
    method = args.method or ("all" if args.family == "qI" else methods[0])
    if method != "all":
        if method not in methods:
            raise PreconditionError(f"method {method!r} not implemented for {args.family}")
        methods = [method]
    chosen = {name: ROUTES[args.family, name] for name in methods}
    shapes, routes, ctx = {}, {}, QContext()
    # preconditions before any route runs; a refusal names its route, class kept
    try:
        for name, route in chosen.items():
            shapes[name] = route.domain.check(lam, mu, spec)
        for name, route in chosen.items():
            routes[name] = route.fn(*shapes[name], spec, ctx)
    except ParseError:
        raise  # a bad QSYM_MAX_TERMS, which no route is to blame for
    except QsymError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    first, ref = next(iter(routes.items()))
    differences = {name: ref - p for name, p in routes.items() if p != ref}
    agreed = not differences
    if args.json:
        # json.dumps of the whole payload, with each route's to_json text,
        # which is json.dumps of that polynomial, spliced in as it is
        head = json.dumps(
            {"family": args.family, "lambda": args.lam, "mu": args.mu, "k": args.k, "m": args.m}
        )
        values = ", ".join(f"{json.dumps(name)}: {p.to_json()}" for name, p in routes.items())
        print(f'{head[:-1]}, "routes": {{{values}}}, "agree": {json.dumps(agreed)}}}')
    elif len(routes) == 1:
        print(str(ref))
    else:
        for name, p in routes.items():
            print(f"{name}: {p}")
    for name, diff in differences.items():
        print(f"DISAGREEMENT between {first} and {name}: {first} - {name} = {diff}",
              file=sys.stderr)
    return 1 if differences else 0


def cmd_series(args) -> int:
    spec = VariableSpec(args.k, args.m)
    ctx = QContext()
    # The top degree first: a degree past the exponent limit raises before any
    # coefficient is grown, and one-degree growth makes the lower ones cache hits.
    top = q_row(args.degree, spec, ctx)
    coeffs = [q_row(l, spec, ctx) for l in range(args.degree)] + [top]
    for p in coeffs:
        print(str(p))
    monos = spec.monomials()
    if not series_inverse_holds(coeffs, monos, monos, spec.n):
        print("series coefficients disagree with product expansion", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    # the budget's widest spec, built first, so a count past the limit
    # stops before any suite runs
    VariableSpec(0, args.max_vars)
    results = run_suite(args.suite, args.max_weight, args.max_vars, args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsym",
        description="Intermediate symplectic Q-polynomials by several independent methods",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one polynomial")
    pc.add_argument("--family", required=True, choices=list(dict.fromkeys(f for f, _ in ROUTES)))
    pc.add_argument("--lambda", dest="lam", default="", help="outer shape, e.g. 3,1")
    pc.add_argument("--mu", default="", help="inner shape (default empty)")
    pc.add_argument("--k", type=_count, default=0, help="symplectic variable pairs")
    pc.add_argument("--m", type=_count, default=0, help="plain variables")
    pc.add_argument("--method", default=None,
                    choices=list(dict.fromkeys(m for _, m in ROUTES)) + ["all"])
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_compute)

    ps = sub.add_parser(
        "series",
        help="one-row generating series coefficients",
        description=f"The coefficients of z^0..z^degree of the one-row series.  "
        f"k + m is at most {MAX_VARIABLES}; a large degree is bounded by "
        "QSYM_MAX_TERMS, the term budget, instead.",
    )
    ps.add_argument("--k", type=_count, default=0, help="symplectic variable pairs")
    ps.add_argument("--m", type=_count, default=0, help="plain variables")
    ps.add_argument("--degree", "-D", type=_count, default=6, help="highest degree")
    ps.set_defaults(func=cmd_series)

    pv = sub.add_parser("verify", help="run invariant suites")
    pv.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    pv.add_argument("--max-weight", type=_count, default=4)
    pv.add_argument("--max-vars", type=_count, default=3)
    pv.add_argument("--seed", type=_count, default=0)
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except QsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
