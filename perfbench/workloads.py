"""The benchmark's three workloads, as lists of items.

An item is one unit of the closed loop: the worker runs it, checks that its
routes agree and that its primary output hashes to the recorded digest, and
only then starts the next one.  Every item calls qsym through its public
functions alone (qI_def, qI_tableau, qI_branch, qI_jp, lgv_weight_sum, q_row,
series_from_linear_factors, inter_schur), and every item builds its inputs from
the shape and spec classes, so no qsym helper sits between the benchmark and
the code it measures.

Workloads and why each was chosen:

  sweep         the 654 acceptance-budget cases (strict lam with parts <= 4
                and at most 3 rows, every strict mu inside lam, every (k, m)
                with at most 3 variables), all five routes per case in one
                QContext shared over the pass, as `qsym verify` does.  Tier-1
                and `verify` spend their time here; the tableau and
                lattice-path enumerators dominate, the ring barely shows.
  expand        six shapes beyond the sweep, each by branch, definition and
                pfaffian, with a fresh QContext per (shape, route): 18 items.
                Large x large ring products dominate and no enumeration runs.
  schur_series  q_row up to degree 14 on the 14 specs with 1-4 variables,
                self-checked against series_from_linear_factors, and
                inter_schur by definition and by tableau on the 391 (partition
                of weight <= 7 with <= 4 rows, spec with <= 4 variables) pairs.
                The ring is used the other way round: many products with a
                one-term factor, plus determinants and enum_spt.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import qsym
from qsym import Partition, StrictPartition, VariableSpec

WORKLOADS = ("sweep", "expand", "schur_series")

QROW_DEGREE = 14

EXPAND_SHAPES = (
    ((6, 4, 2), (), (2, 2)),
    ((6, 4, 2), (), (3, 1)),
    ((6, 4, 2), (), (3, 2)),
    ((7, 5, 3, 1), (), (2, 2)),
    ((7, 5, 3, 1), (3, 1), (2, 2)),
    ((6, 4, 2), (2,), (3, 2)),
)
EXPAND_ROUTES = ("branch", "definition", "pfaffian")

# Functions looked up on the qsym package at call time, so that the tracer's
# wrappers, installed after set-up, are the ones called.
QI_ROUTES = {
    "definition": "qI_def",
    "tableau": "qI_tableau",
    "branch": "qI_branch",
    "pfaffian": "qI_jp",
}


@dataclass(frozen=True)
class Item:
    """One closed-loop unit.

    `group` names the items whose primary outputs must be equal: an item on
    its own in the sweep and schur_series workloads, the three routes of one
    shape in expand.
    """

    id: str
    group: str
    kind: str
    args: tuple


def _shape_id(lam, mu, spec: VariableSpec) -> str:
    return f"lam={lam};mu={mu};k={spec.k};m={spec.m}"


def _specs(max_vars: int, min_vars: int = 0) -> list[VariableSpec]:
    return [
        VariableSpec(k, total - k)
        for total in range(min_vars, max_vars + 1)
        for k in range(total + 1)
    ]


def _strict_partitions(max_part: int, max_len: int) -> list[StrictPartition]:
    return [
        StrictPartition(tuple(sorted(parts, reverse=True)))
        for size in range(max_len + 1)
        for parts in itertools.combinations(range(1, max_part + 1), size)
    ]


def _partitions(max_weight: int, max_len: int) -> list[Partition]:
    out = []

    def rec(prev: int, acc: tuple[int, ...], left: int):
        out.append(Partition(acc))
        if len(acc) == max_len:
            return
        for p in range(min(prev, left), 0, -1):
            rec(p, acc + (p,), left - p)

    rec(max_weight, (), max_weight)
    return out


def _contains(outer: Partition, inner: Partition) -> bool:
    return inner.length <= outer.length and all(
        a >= b for a, b in zip(outer.parts, inner.parts)
    )


def sweep_items() -> list[Item]:
    lams = _strict_partitions(4, 3)
    items = []
    for lam in lams:
        for mu in lams:
            if not _contains(lam, mu):
                continue
            for spec in _specs(3):
                if lam.length <= spec.n:
                    sid = _shape_id(lam, mu, spec)
                    items.append(Item(sid, sid, "sweep", (lam, mu, spec)))
    return items


def expand_items() -> list[Item]:
    items = []
    for lam, mu, (k, m) in EXPAND_SHAPES:
        lam, mu, spec = StrictPartition(lam), StrictPartition(mu), VariableSpec(k, m)
        sid = _shape_id(lam, mu, spec)
        for route in EXPAND_ROUTES:
            items.append(Item(f"{sid};route={route}", sid, "expand", (lam, mu, spec, route)))
    return items


def schur_series_items() -> list[Item]:
    items = []
    for spec in _specs(4, min_vars=1):
        iid = f"q_row;k={spec.k};m={spec.m}"
        items.append(Item(iid, iid, "q_row", (spec,)))
    for lam in _partitions(7, 4):
        for spec in _specs(4):
            if lam.length <= spec.n:
                iid = f"inter_schur;lam={lam};k={spec.k};m={spec.m}"
                items.append(Item(iid, iid, "inter_schur", (lam, spec)))
    return items


BUILDERS: dict[str, Callable[[], list[Item]]] = {
    "sweep": sweep_items,
    "expand": expand_items,
    "schur_series": schur_series_items,
}

EXPECTED_COUNTS = {"sweep": 654, "expand": 18, "schur_series": 405}


def build(workload: str) -> list[Item]:
    items = BUILDERS[workload]()
    if len(items) != EXPECTED_COUNTS[workload]:
        raise RuntimeError(
            f"{workload}: built {len(items)} items, expected {EXPECTED_COUNTS[workload]}"
        )
    return items


def _alphabet(spec: VariableSpec) -> list[tuple[int, ...]]:
    """x1, x1^-1, ..., xk, xk^-1, x_{k+1}, ..., x_n as exponent vectors."""
    n = spec.n

    def unit(i: int, e: int) -> tuple[int, ...]:
        return tuple(e if j == i else 0 for j in range(n))

    monos = []
    for i in range(spec.k):
        monos += [unit(i, 1), unit(i, -1)]
    monos += [unit(j, 1) for j in range(spec.k, n)]
    return monos


def run_item(item: Item, call, new_context, shared_context) -> list[tuple[str, tuple]]:
    """Evaluate one item; returns (route, output) pairs, output a tuple of polys.

    `call(route, fn, *args)` invokes fn and accounts its time to the route;
    `new_context()` makes a fresh QContext; `shared_context` is the pass-wide
    one the sweep uses.
    """
    if item.kind == "sweep":
        lam, mu, spec = item.args
        ctx = shared_context
        outs = [
            (route, (call(route, getattr(qsym, fn), lam, mu, spec, ctx),))
            for route, fn in QI_ROUTES.items()
            if route != "pfaffian" or lam.length >= 2
        ]
        outs.append(("lgv", (call("lgv", qsym.lgv_weight_sum, lam, mu, spec),)))
        return outs
    if item.kind == "expand":
        lam, mu, spec, route = item.args
        fn = getattr(qsym, QI_ROUTES[route])
        return [(route, (call(route, fn, lam, mu, spec, new_context()),))]
    if item.kind == "q_row":
        (spec,) = item.args
        ctx = new_context()
        rows = tuple(call("q_row", qsym.q_row, l, spec, ctx) for l in range(QROW_DEGREE + 1))
        monos = _alphabet(spec)
        series = call(
            "series", qsym.series_from_linear_factors, monos, monos, QROW_DEGREE, spec.n
        )
        return [("q_row", rows), ("series", tuple(series.coeffs))]
    if item.kind == "inter_schur":
        lam, spec = item.args
        return [
            (f"inter_schur.{method}", (call(f"inter_schur.{method}", qsym.inter_schur, lam, spec, method),))
            for method in ("definition", "tableau")
        ]
    raise ValueError(f"unknown item kind {item.kind!r}")
