import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsym
from qsym import LaurentPoly, QContext, StrictPartition, VariableSpec
from qsym import qfun
from qsym.checks import ROUTES, Route
from qsym.cli import main
from qsym.ring import grow_series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_qi_all_agrees(capsys):
    code, out, _ = run(
        capsys, "compute", "--family", "qI", "--lambda", "1", "--k", "1", "--m", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # definition, tableau, branch, pfaffian, lgv
    assert all(line.endswith("2*x1 + 2*x1^-1 + 2*x2") for line in lines)


def test_compute_not_contained_is_zero(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--family", "qI", "--lambda", "2,1", "--mu", "3", "--k", "1", "--m", "1",
    )
    assert code == 0
    assert all(line.split(": ")[1] == "0" for line in out.strip().splitlines())


def test_compute_non_strict_exit_3(capsys):
    code, _, err = run(capsys, "compute", "--family", "qA", "--lambda", "2,2", "--m", "2")
    assert code == 3
    assert "strict" in err


def test_compute_parse_error_exit_2(capsys):
    code, _, _ = run(capsys, "compute", "--family", "qA", "--lambda", "2,x", "--m", "2")
    assert code == 2


@pytest.mark.parametrize("lam", ["1_0", "+2", "\u0663,1"])
def test_compute_part_outside_ascii_digits_exits_2(capsys, lam):
    code, _, err = run(capsys, "compute", "--family", "qI", "--lambda", lam, "--k", "2")
    assert code == 2
    assert "bad partition" in err


def test_compute_spaces_around_parts_are_allowed(capsys):
    code, out, _ = run(capsys, "compute", "--family", "qI", "--lambda", " 2, 1 ", "--k", "2",
                       "--method", "branch")
    assert code == 0
    assert out == run(capsys, "compute", "--family", "qI", "--lambda", "2,1", "--k", "2",
                      "--method", "branch")[1]


def test_compute_row_limit_exit_3(capsys):
    code, _, _ = run(capsys, "compute", "--family", "qI", "--lambda", "2,1", "--m", "1")
    assert code == 3


def test_compute_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--family", "qC", "--lambda", "2,1", "--k", "2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    terms = payload["routes"]["pfaffian"]["terms"]
    assert terms and all(isinstance(t["coeff"], str) for t in terms)


def test_compute_single_method_prints_bare_polynomial(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--family", "schur", "--lambda", "2,1", "--m", "2",
    )
    assert code == 0
    assert out.strip() == "x1^2*x2 + x1*x2^2"


def test_compute_symp_schur_tableau_route(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--family", "symp-schur", "--lambda", "1,1", "--k", "2", "--method", "all",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(": ")[1] == lines[1].split(": ")[1]


def test_series_output_and_exit(capsys):
    code, out, _ = run(capsys, "series", "--k", "1", "--degree", "1")
    assert code == 0
    assert out.strip().splitlines() == ["1", "2*x1 + 2*x1^-1"]


def test_series_no_variables(capsys):
    code, out, _ = run(capsys, "series", "--degree", "3")
    assert code == 0
    assert out.strip().splitlines() == ["1", "0", "0", "0"]


def test_series_self_check_catches_a_wrong_coefficient(capsys, monkeypatch):
    # `series` asks the top degree first, so z^3 is the one degree grown
    def wrong_z3(series, degree):
        grown = grow_series(series, degree)
        if degree == 3:
            series.coeffs[3] = grown = grown + LaurentPoly.one(grown.n)
        return grown

    # the one-row values go wrong; the check's own expansion does not
    monkeypatch.setattr(qfun, "grow_series", wrong_z3)
    code, _, err = run(capsys, "series", "--k", "1", "--degree", "3")
    assert code == 1
    assert "disagree" in err


def test_series_past_the_exponent_limit_exits_3_at_once(capsys):
    # 40000 * |x1^-1| reaches 2^15: the top degree raises before any growth
    start = time.perf_counter()
    code, out, err = run(capsys, "series", "--k", "1", "--degree", "40000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "z^40000" in err


def test_series_by_20001_one_degree_extensions(capsys):
    code, out, _ = run(capsys, "series", "--m", "1", "--degree", "20000")
    assert code == 0
    assert out.splitlines()[-1] == "2*x1^20000"


def test_verify_small_budget(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "qfun", "--max-weight", "3", "--max-vars", "2"
    )
    assert code == 0
    assert "PASS qfun.def-tableau-branch" in out


def test_verify_trivial_budget(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-weight", "0", "--max-vars", "1")
    assert code == 0
    assert "checks passed" in out


def test_inter_schur_family(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--family", "inter-schur", "--lambda", "1", "--k", "1", "--m", "1",
        "--method", "all",
    )
    assert code == 0
    for line in out.strip().splitlines():
        assert line.endswith("x1 + x1^-1 + x2")


# -- route table -----------------------------------------------------------------

# one valid (k, m) per spec condition of a domain
VALID_SPEC = {"plain": (0, 2), "symplectic": (2, 0), "mixed": (1, 1)}


@pytest.mark.parametrize("family,method", list(ROUTES))
def test_every_route_matches_its_function(capsys, family, method):
    route = ROUTES[family, method]
    k, m = VALID_SPEC[route.domain.spec]
    mu = "" if route.domain.straight else "1"
    code, out, _ = run(
        capsys, "compute", "--family", family, "--method", method,
        "--lambda", "3,1", "--mu", mu, "--k", str(k), "--m", str(m), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload) + "\n"  # the route texts are spliced in as json.dumps writes them
    got = payload["routes"][method]
    lam, sub = StrictPartition((3, 1)), StrictPartition.from_string(mu)
    direct = route.fn(lam, sub, VariableSpec(k, m), QContext())
    assert got == json.loads(direct.to_json())


@pytest.mark.parametrize(
    "argv,named",
    [
        (["--family", "qI", "--lambda", "2,1", "--mu", "1,1", "--k", "2"], "strict"),
        (["--family", "schur", "--lambda", "2,1", "--k", "1", "--m", "1"], "k = 0"),
        (["--family", "qC", "--lambda", "2,1", "--k", "1", "--m", "1"], "m = 0"),
        (["--family", "inter-schur", "--lambda", "2,1", "--mu", "1", "--k", "2"], "straight"),
        (["--family", "schur", "--lambda", "2,1", "--mu", "1", "--m", "2", "--method", "all"],
         "straight"),
        (["--family", "qI", "--lambda", "3,2,1", "--k", "1", "--m", "1"], "rows"),
        (["--family", "symp-schur", "--lambda", "2,1", "--k", "1"], "rows"),
        (["--family", "qI", "--method", "pfaffian", "--lambda", "2,1", "--m", "1"], "rows"),
    ],
)
def test_domain_violation_exits_3_naming_the_condition(capsys, argv, named):
    code, out, err = run(capsys, "compute", *argv)
    assert code == 3
    assert out == ""
    assert named in err


def test_method_outside_family_exits_3(capsys):
    code, _, err = run(capsys, "compute", "--family", "qA", "--lambda", "2", "--m", "1",
                       "--method", "branch")
    assert code == 3
    assert "not implemented for qA" in err


# -- exit-code contract ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--family", "qI", "--lambda", "1", "--k", "-1", "--m", "1"],
        ["compute", "--family", "qI", "--lambda", "1", "--m", "-2"],
        ["series", "--k", "-1"],
        ["series", "--degree", "-1"],
        ["verify", "--max-weight", "-1"],
        ["verify", "--max-vars", "-1"],
        # int() takes these; a count is ASCII digits only
        ["compute", "--family", "qI", "--lambda", "1", "--k", "1_0"],
        ["compute", "--family", "qI", "--lambda", "1", "--k", "+5"],
        ["compute", "--family", "qI", "--lambda", "1", "--k", "\u0663"],
        ["verify", "--seed", "\u0663"],
        ["verify", "--seed", "1_0"],
        ["verify", "--seed", "+5"],
        ["verify", "--seed", "-3"],
    ],
)
def test_negative_count_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("budget", ["abc", "-1", "1.5", "1_0", "+5", "\u0663"])
def test_bad_term_budget_exits_2(capsys, monkeypatch, budget):
    monkeypatch.setenv("QSYM_MAX_TERMS", budget)
    code, _, err = run(capsys, "compute", "--family", "qI", "--lambda", "1", "--k", "1")
    assert code == 2
    assert "QSYM_MAX_TERMS" in err


@pytest.mark.parametrize("method", ["lgv", "definition", "branch", "pfaffian"])
def test_term_budget_stops_a_ring_route(capsys, monkeypatch, method):
    # the result has 14286 terms; an intermediate sum of products or lgv
    # state value passes 100 long before it
    monkeypatch.setenv("QSYM_MAX_TERMS", "100")
    code, _, err = run(
        capsys,
        "compute", "--family", "qI", "--method", method, "--lambda", "6,4,2", "--k", "3", "--m", "2",
    )
    assert code == 3
    assert "QSYM_MAX_TERMS=100" in err


def test_term_budget_stops_the_tableau_route(capsys, monkeypatch):
    # 2,154,496 tableaux; the weights pass 100 distinct ones within the first batch
    monkeypatch.setenv("QSYM_MAX_TERMS", "100")
    code, _, err = run(
        capsys,
        "compute", "--family", "qI", "--method", "tableau",
        "--lambda", "6,4,2", "--k", "2", "--m", "2",
    )
    assert code == 3
    assert "QSYM_MAX_TERMS=100" in err


def test_term_budget_stops_a_single_row_tableau_route(capsys, monkeypatch):
    # about 2*10^7 fillings of one row, all in the last-row step: the first
    # batch must come before the row's fillings are all made
    monkeypatch.setenv("QSYM_MAX_TERMS", "100")
    code, _, err = run(
        capsys,
        "compute", "--family", "qI", "--method", "tableau", "--lambda", "30", "--k", "2", "--m", "2",
    )
    assert code == 3
    assert "QSYM_MAX_TERMS=100" in err


def test_pfaffian_one_row_past_the_exponent_limit_exits_3_before_allocating():
    # Domain.check raises ExponentOverflow before any route runs, and the
    # pfaffian route's one-row series raises it too before its 10^11
    # coefficient slots are allocated; without both checks, the allocation
    # fails under the memory cap with MemoryError, exit 1
    argv = ["compute", "--family", "qI", "--lambda", "100000000000", "--m", "1",
            "--method", "pfaffian"]
    src = str(Path(qsym.__file__).resolve().parent.parent)
    cap = 2 << 30
    done = subprocess.run(
        [sys.executable, "-m", "qsym.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert done.returncode == 3
    assert "the limit is 32767" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "qI", "--lambda", "100000000000", "--m", "1", "--method", method]
        for method in ("definition", "tableau", "branch", "pfaffian", "lgv", "all")
    ]
    + [
        ["--family", "schur", "--lambda", "32768", "--m", "1", "--method", "tableau"],
        ["--family", "qI", "--lambda", "32770,1", "--mu", "2", "--m", "2", "--method", "all"],
    ],
)
def test_a_first_row_past_the_exponent_limit_exits_3_before_any_route(capsys, monkeypatch, argv):
    # row i filled with the letter i makes x1^(lam_1 - mu_1) a term; no route may run
    def refuse(*args):
        raise AssertionError("a route ran")

    for key, route in ROUTES.items():
        monkeypatch.setitem(ROUTES, key, Route(refuse, route.domain))
    code, out, err = run(capsys, "compute", *argv)
    assert code == 3 and not out
    assert "the limit is 32767" in err


def test_disagreement_names_the_routes_and_prints_the_difference(capsys, monkeypatch):
    tableau = ROUTES["qI", "tableau"]

    def doubled(lam, mu, spec, ctx):
        return tableau.fn(lam, mu, spec, ctx).scale(2)

    monkeypatch.setitem(ROUTES, ("qI", "tableau"), Route(doubled, tableau.domain))
    argv = ["--family", "qI", "--lambda", "2,1", "--k", "1", "--m", "1", "--method", "all"]
    code, out, err = run(capsys, "compute", *argv)
    assert code == 1
    value = qfun.qI_def(StrictPartition((2, 1)), StrictPartition(), VariableSpec(1, 1), QContext())
    assert not value.is_zero()
    # the tableau route alone is off, by minus the value
    assert err.splitlines() == [
        f"DISAGREEMENT between definition and tableau: definition - tableau = {-value}"
    ]
    # stdout and the JSON payload are as before
    assert out.splitlines()[1] == f"tableau: {value.scale(2)}"
    code, out, _ = run(capsys, "compute", *argv, "--json")
    assert code == 1 and json.loads(out)["agree"] is False


def test_a_first_row_past_the_exponent_limit_outside_lambda_is_zero(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--family", "qI", "--lambda", "100000000000", "--mu", "5,3", "--m", "1",
    )
    assert code == 0
    assert out.splitlines() == [f"{method}: 0" for f, method in ROUTES if f == "qI"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--family", "qI", "--lambda", "1", "--k", "65", "--method", "all"],
        ["series", "--k", "10000", "--degree", "2"],
        ["verify", "--max-vars", "65"],
    ],
)
def test_a_variable_count_past_the_limit_stops_at_once(capsys, argv):
    # before the bound, --k 512 on compute took 2.2 s and series --k 512
    # --degree 2 ran out of memory
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 3
    assert "65 variables" in err or "10000 variables" in err
    assert "limit is 64" in err


def test_the_variable_limit_itself_is_allowed():
    assert VariableSpec(64, 0).n == VariableSpec(0, 64).n == VariableSpec(40, 24).n == 64
    with pytest.raises(qsym.PreconditionError):
        VariableSpec(40, 25)


def _exit_code(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


_parts = st.lists(st.integers(-1, 3), max_size=3).map(lambda ps: ",".join(map(str, ps)))
_shape = st.one_of(_parts, st.sampled_from(["x", "2,,1", " "]))
# 65 and 10**4 pass the variable bound; 64 is left out, as a valid count
# that large can run for minutes
_count_arg = st.one_of(st.integers(-3, 3), st.sampled_from([65, 10**4])).map(str)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["compute", "series"]))
    if command == "series":
        return ["series", "--k", draw(_count_arg), "--m", draw(_count_arg),
                "--degree", draw(st.integers(-2, 4).map(str))]
    argv = ["compute", "--family", draw(st.sampled_from(sorted({f for f, _ in ROUTES}))),
            "--lambda", draw(_shape), "--mu", draw(_shape),
            "--k", draw(_count_arg), "--m", draw(_count_arg)]
    method = draw(st.sampled_from([None, "all"] + sorted({m for _, m in ROUTES})))
    if method:
        argv += ["--method", method]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_exit_code_contract(argv):
    code, err = _exit_code(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert "DISAGREEMENT" in err
