"""The one bound of an operation: ``reduction._Budget``.

Public calls keep their ``fuel``/``max_depth`` arguments and make one
budget from them, which refuses fuel below 1; every private function
takes the budget whole.  The misreports pinned at the end are bounded
answers that a spent budget still gives wrongly.
"""

import inspect

import pytest

from ptskit import corpus, labeled, reduction, translate, typecheck
from ptskit.cli import EXIT_EXHAUSTED, EXIT_TYPE_ERROR, main
from ptskit.corpus import Judgement, run_report
from ptskit.labeled import label_context, label_term, labeled_infer, parse_labeled
from ptskit.reduction import FuelExhausted, StepTrace, _Budget, _search, beta_eq, normalize, reachable, step_all, trace, whnf
from ptskit.syntax import CC, App, BVar, Context, LSort, Lam, SortE, Var, parse_context, parse_expr
from ptskit.translate import (
    CheckEntry, TransEnv, _directed_steps, _simulation, check_reduction_preservation, check_subst_lemmas, check_translation, translate_term
)
from ptskit.typecheck import ErrorKind, TypeCheckError, _Scope, check_type, classify, infer_type, wf_context

STAR = SortE("*")
X_CTX = parse_context("x : *")

FUEL_CALLS = {
    "normalize": lambda f: normalize(STAR, f),
    "whnf": lambda f: whnf(STAR, f),
    "beta_eq": lambda f: beta_eq(Var("a"), Var("a"), f),
    "infer_type": lambda f: infer_type(CC, Context(), STAR, f),
    "check_type": lambda f: check_type(CC, Context(), STAR, SortE("#"), f),
    "wf_context": lambda f: wf_context(CC, Context(), f),
    "classify": lambda f: classify(Context(), STAR, f),
    "labeled_infer": lambda f: labeled_infer(CC, Context(), LSort("*"), f),
    "label_term": lambda f: label_term(CC, Context(), STAR, f),
    "label_context": lambda f: label_context(CC, Context(), f),
    # the hypotheses are read before anything is bounded: x must be bound
    "check_subst_lemmas": lambda f: check_subst_lemmas(X_CTX, STAR, "x", STAR, f),
    "run_report": lambda f: run_report([Judgement("j", Context(), STAR, None)], fuel=f),
}


@pytest.mark.parametrize("fuel", [0, -1])
@pytest.mark.parametrize("name", sorted(FUEL_CALLS))
def test_fuel_below_one_is_refused_by_every_entry_point(name, fuel):
    with pytest.raises(ValueError, match=r"^fuel must be >= 1$"):
        FUEL_CALLS[name](fuel)


@pytest.mark.parametrize("fuel", [0, -1])
def test_check_translation_reports_fuel_below_one_as_its_setup(fuel):
    [entry] = check_translation(Context(), STAR, fuel)
    assert entry.line() == "FAIL translation setup failed: fuel must be >= 1"


@pytest.mark.parametrize("fuel", [0, -1])
def test_trace_counts_the_steps_it_shows(fuel):
    # trace makes no budget: its fuel bounds the steps listed, none at all here
    assert trace(STAR, fuel) == (StepTrace(STAR, ()), False)
    assert trace(_identities(1), fuel) == (StepTrace(_identities(1), ()), True)


def test_no_private_function_takes_a_bound_of_its_own():
    # a binder depth (``_quote``'s, ``_apply``'s, the translation walks') is no bound
    bounds = {"fuel", "max_depth", "conv_depth"}
    found = []
    for module in (reduction, typecheck, labeled, translate, corpus):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ or not name.startswith("_") or obj is _Budget:
                continue
            functions = [obj] if inspect.isfunction(obj) else [f for f in vars(obj).values() if inspect.isfunction(f)]
            for f in functions:
                for p in inspect.signature(f).parameters.values():
                    if p.name in bounds or p.annotation == "list[int]":
                        found.append(f"{module.__name__}.{f.__qualname__}({p.name})")
    assert found == []
    assert "budget" in _Scope.__slots__ and not {"fuel", "depth"} & set(_Scope.__slots__)


def _mult_3_3():
    nat = "(A:*) -> (A -> A) -> A -> A"
    three = r"\A:*. \f:A -> A. \x:A. f (f (f x))"
    return parse_expr(rf"(\m:{nat}. \n:{nat}. \A:*. \f:A -> A. m A (n A f)) ({three}) ({three})")


def test_public_reductions_never_raise_without_the_last_term():
    # only the evaluator raises FuelExhausted with no term, and normalize replays its steps
    e, returned = _mult_3_3(), {normalize: 0, whnf: 0}
    for fuel in range(1, 14):  # mult 3 3 takes 13 contractions
        for f in returned:
            try:
                f(e, fuel)
                returned[f] += 1
            except FuelExhausted as exc:
                assert exc.last is not None, (f.__name__, fuel)
    assert returned == {normalize: 1, whnf: 12}  # whnf stops at the outer lambdas after 2


def _identities(n):
    """``(\\x:*. x) ( ... ((\\x:*. x) a))``: ``a`` in exactly n steps."""
    e = Var("a")
    for _ in range(n):
        e = App(Lam("x", STAR, BVar(0)), e)
    return e


def test_search_tells_an_empty_frontier_from_a_spent_depth():
    budget = _Budget(depth=12)
    assert _search(Var("a"), budget, {Var("b")}) == (False, {Var("a")})
    assert budget.cut is False  # two distinct normal terms: the frontier empties at once
    for depth in (1, 2, 5):
        budget = _Budget(depth=depth)
        assert _search(_identities(depth + 1), budget, {Var("a")})[0] is False
        assert budget.cut is True  # stopped with a frontier still open
        budget = _Budget(depth=depth + 1)
        assert _search(_identities(depth + 1), budget, {Var("a")})[0] is True
        assert budget.cut is False
        assert reachable(_identities(depth + 1), Var("a"), depth + 1)


ID_CTX = parse_context("A : *\na : A")
ID_APP = parse_expr(r"(\x:A. x) a")  # one step, simulated by 2 translated ones


def test_directed_steps_tell_a_cut_from_a_miss():
    for depth in (1, 2, 5):
        budget = _Budget(depth=depth)
        assert _directed_steps(_identities(depth + 1), Var("a"), depth, budget) is None
        assert budget.cut is True  # a key redex left at the limit
        budget = _Budget(depth=depth + 1)
        assert _directed_steps(_identities(depth + 1), Var("a"), depth + 1, budget) == depth + 1
        assert budget.cut is False
    # in a child pair: the body's path is cut, and a lambda has no key redex of its own
    budget = _Budget(depth=1)
    assert _directed_steps(Lam("x", STAR, _identities(2)), Lam("x", STAR, Var("a")), 1, budget) is None
    assert budget.cut is True
    budget = _Budget(depth=12)
    assert _directed_steps(Var("a"), Var("b"), 12, budget) is None
    assert budget.cut is False  # two distinct normal terms: no key redex, no match


def test_a_cut_path_is_undecided_and_a_miss_is_a_fail():
    [entry] = check_reduction_preservation(ID_CTX, ID_APP, 1)
    assert type(entry) is not CheckEntry and entry.undecided and not entry.ok
    assert entry.line() == r"UNDECIDED simulation (\x:A. x) a ~> a"
    assert entry != CheckEntry(False, "simulation", entry.detail)
    [entry] = check_reduction_preservation(ID_CTX, ID_APP, 2)
    assert entry == CheckEntry(True, "simulation", r"(\x:A. x) a ~> a")
    # a translation that cannot reach the reduct's: a normal term, a definite miss
    env = TransEnv(ID_CTX, _table={})
    translate_term(env, ID_APP)
    [entry] = _simulation(env, ID_APP, Var("b"), step_all(ID_APP), _Budget(depth=12))
    assert entry == CheckEntry(False, "simulation", r"(\x:A. x) a ~> a") and not entry.undecided


def test_a_cut_does_not_leak_into_the_next_entry(monkeypatch):
    a = parse_expr(r"(\x:A. x) ((\y:A -> A. y) (\x:A. x) a)")  # two reducts
    env = TransEnv(ID_CTX, _table={})
    ta = translate_term(env, a)
    budget = _Budget(depth=12)
    budget.cut = True  # as an earlier search left it
    assert [e.line()[:4] for e in _simulation(env, a, Var("b"), step_all(a), budget)] == ["FAIL", "FAIL"]
    assert [e.line()[:4] for e in _simulation(env, a, ta, step_all(a), budget)] == ["PASS", "PASS"]

    calls = []

    def cut_once(x, y, limit, budget):
        calls.append(x)
        budget.cut = len(calls) == 1  # the first reduct's path is cut, the second's misses

    monkeypatch.setattr(translate, "_directed_steps", cut_once)
    assert [e.line()[:4] for e in _simulation(env, a, ta, step_all(a), _Budget(depth=12))] == ["UNDE", "FAIL"]


# ---------------------------------------------------------------------------
# Bounded answers that misreport (ROADMAP, Baseline): the right answers


def test_verify_at_too_small_a_depth_is_undecided(tmp_path, capsys):
    (tmp_path / "id.judg").write_text("ctx:\nA : *\na : A\n\nterm:\n(\\x:A. x) a\n\ntype:\nA\n")
    assert main(["verify", str(tmp_path), "--depth", "1"]) == EXIT_EXHAUSTED
    assert "UNDECIDED simulation (\\x:A. x) a ~> a" in capsys.readouterr().out.splitlines()


@pytest.mark.xfail(strict=True, reason="directed conversion reports a definite miss as undetermined")
def test_labeled_body_of_another_normal_type_is_a_mismatch():
    lctx = label_context(CC, parse_context("A : *\nB : *\nb : B"))
    with pytest.raises(TypeCheckError) as info:
        labeled_infer(CC, lctx, parse_labeled(r"\[x : A -> A] x : A . b"))
    assert info.value.kind is ErrorKind.MISMATCH


def test_check_with_differing_heads_is_a_mismatch_at_fuel_one(capsys):
    binds = ["A : *", "B : *", "F : * -> *", r"y : F ((\x:*. x) ((\x:*. x) A))"]
    argv = ["check", "--fuel", "1"] + [a for b in binds for a in ("--bind", b)] + ["y", "B"]
    assert main(argv) == EXIT_TYPE_ERROR
