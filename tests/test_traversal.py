"""Pins for the shape-table traversals shared by the plain and labeled ASTs.

The expected step lists and the public names were recorded from the
hand-written walks that the shape tables replaced.
"""

import ptskit
from ptskit.syntax import CC, STAR, App, BVar, Lam, Pair, Pi, Proj1, Proj2, Sigma, SortE, Var
from ptskit.reduction import enumerate_steps
from ptskit.labeled import (
    LApp,
    LBVar,
    LLam,
    LPi,
    LVar,
    erase,
    label_context,
    label_term,
    labeled_infer,
    parse_labeled,
    print_labeled,
)

from generators import typed_pool_context, typed_terms

I = Lam("y", SortE(STAR), BVar(0))


def r(x):
    """A beta redex that steps to ``x``."""
    return App(I, x)


def test_enumerate_steps_visits_every_plain_position():
    a, f, A = Var("a"), Var("f"), Var("A")
    sig = Sigma("v", r(A), r(BVar(0)))
    pi = Pi("w", r(A), r(BVar(0)))
    # the annotation of a pair holds redexes but is never a step position
    pair1 = Pair(r(a), sig, Sigma("z", r(A), r(BVar(0))))
    pair2 = Pair(a, pi, Sigma("z", A, A))

    def whole(annot=r(A), head=r(f), left=Proj1(pair1), right=Proj2(pair2)):
        return Lam("x", annot, App(App(head, left), right))

    assert enumerate_steps(whole()) == [
        ("annot", "beta", whole(annot=A)),
        ("body.fun.fun", "beta", whole(head=f)),
        ("body.fun.arg", "proj1", whole(left=r(a))),
        ("body.fun.arg.pair.fst", "beta", whole(left=Proj1(Pair(a, sig, pair1.annot)))),
        ("body.fun.arg.pair.snd.fst", "beta", whole(left=Proj1(Pair(r(a), Sigma("v", A, r(BVar(0))), pair1.annot)))),
        ("body.fun.arg.pair.snd.snd", "beta", whole(left=Proj1(Pair(r(a), Sigma("v", r(A), BVar(0)), pair1.annot)))),
        ("body.arg", "proj2", whole(right=pi)),
        ("body.arg.pair.snd.dom", "beta", whole(right=Proj2(Pair(a, Pi("w", A, r(BVar(0))), pair2.annot)))),
        ("body.arg.pair.snd.cod", "beta", whole(right=Proj2(Pair(a, Pi("w", r(A), BVar(0)), pair2.annot)))),
    ]


T = LVar("T")
LI = LLam("y", T, T, LBVar(0))


def lr(x):
    """A tight redex with equal labels that steps to ``x``."""
    return LApp("y", T, T, LI, x)


def test_enumerate_steps_on_labeled_terms():
    m = LVar("m")
    assert enumerate_steps(LPi("p", lr(T), lr(LBVar(0)))) == [
        ("dom", "tight-beta", LPi("p", T, lr(LBVar(0)))),
        ("cod", "tight-beta", LPi("p", lr(T), LBVar(0))),
    ]
    lam = LLam("x", lr(T), lr(T), lr(LBVar(0)))
    lam_steps = [
        ("dom", "tight-beta", LLam("x", T, lr(T), lr(LBVar(0)))),
        ("cod", "tight-beta", LLam("x", lr(T), T, lr(LBVar(0)))),
        ("body", "tight-beta", LLam("x", lr(T), lr(T), LBVar(0))),
    ]
    assert enumerate_steps(lam) == lam_steps
    # equal labels: the root fires first, then dom, cod, fun and arg
    assert enumerate_steps(LApp("x", lr(T), lr(T), lam, lr(m))) == [
        ("", "tight-beta", lr(lr(m))),
        ("dom", "tight-beta", LApp("x", T, lr(T), lam, lr(m))),
        ("cod", "tight-beta", LApp("x", lr(T), T, lam, lr(m))),
        *[(f"fun.{p}", k, LApp("x", lr(T), lr(T), s, lr(m))) for p, k, s in lam_steps],
        ("arg", "tight-beta", LApp("x", lr(T), lr(T), lam, m)),
    ]
    # a label that differs from the lambda's: no root step
    assert enumerate_steps(LApp("x", T, T, lam, m)) == [
        (f"fun.{p}", k, LApp("x", T, T, s, m)) for p, k, s in lam_steps
    ]


def test_public_names_are_unchanged():
    assert sorted(ptskit.__all__) == [
        "App", "BOX", "BUILTIN_SPECS", "BVar", "CC", "CheckEntry", "Classification", "Context",
        "DEFAULT_FUEL", "ErrorKind", "Expr", "FOMEGA", "FuelExhausted", "GammaConstructor",
        "GammaTerm", "Judgement", "Kind", "LApp", "LLam", "LPi", "LSort", "LVar", "LabeledContext",
        "LabeledExpr", "Lam", "Pair", "ParseError", "Pi", "Proj1", "Proj2", "PtsSpec", "STAR",
        "STLC", "SYSTEM_F", "Sigma", "SortE", "StepTrace", "TransEnv", "TypeCheckError",
        "UNDETERMINED", "Var", "alpha_eq", "beta_eq", "canonical_inhabitant",
        "check_reduction_preservation", "check_subst_lemmas", "check_translation", "check_type",
        "classify", "close_binder", "corpus", "erase", "erase_kind", "free_vars", "infer_type",
        "is_base", "joinable", "key_redex_of", "label_context", "label_term", "labeled",
        "labeled_infer", "load_corpus_dir", "load_judgement_file", "load_spec_file", "normalize",
        "open_binder", "parse_context", "parse_expr", "parse_judgement", "parse_labeled",
        "parse_spec_text", "print_context", "print_expr", "print_labeled", "reachable",
        "reduce_key_redex", "reduction", "resolve_spec", "run_report", "step_all", "subst",
        "syntax", "tight_step_all", "trace", "translate", "translate_context", "translate_term",
        "translate_type", "typecheck", "wf_context", "whnf",
    ]


def test_labeled_round_trips_on_generated_terms():
    ctx = typed_pool_context()
    lctx = label_context(CC, ctx)
    checked = 0
    for seed in (41, 42):
        for t in typed_terms(seed, 200):
            la = label_term(CC, ctx, t)
            assert parse_labeled(print_labeled(la)) == la, print_labeled(la)
            assert erase(la) == t
            labeled_infer(CC, lctx, la)
            checked += 1
    assert checked == 400
