import os

import pytest

from ptskit.syntax import (
    BUILTIN_SPECS,
    CC,
    Context,
    STAR,
    Var,
    parse_context,
    parse_expr,
)
from ptskit.reduction import key_redex_of, normalize, reduce_key_redex, step_all
from ptskit.typecheck import ErrorKind, TypeCheckError, infer_type, wf_context
from ptskit.labeled import (
    LApp,
    LBVar,
    LLam,
    LPi,
    LSort,
    LVar,
    LabeledContext,
    directed_convertible,
    erase,
    label_context,
    label_of,
    label_term,
    labeled_infer,
    parse_labeled,
    print_labeled,
    tight_step_all,
)

from generators import lambda_nest, typed_pool_context, typed_terms
from metatheory import is_base
import typing_oracle as oracle
from typing_oracle import outcome
from typing_spies import spy_on_rules


def P(text):
    return parse_expr(text)


def C(text):
    return parse_context(text)


STAR_L = LSort(STAR)
ID_LABEL = LPi("x", STAR_L, STAR_L)
ID_LAM = LLam("x", STAR_L, STAR_L, LBVar(0))


# ---------------------------------------------------------------------------
# Erasure


def test_erase_examples():
    assert erase(ID_LAM) == P(r"\x:*. x")
    assert erase(LApp("x", STAR_L, STAR_L, LVar("f"), LVar("a"))) == P("f a")
    assert erase(LPi("x", STAR_L, LBVar(0))) == P("(x:*) -> x")


def test_erase_drops_label_codomain_wholesale():
    # the codomain may mention the label binder; erasure forgets it
    la = LApp("x", STAR_L, LBVar(0), LVar("f"), LVar("a"))
    assert erase(la) == P("f a")


# ---------------------------------------------------------------------------
# Tight reduction


def test_tight_beta_fires_on_matching_labels():
    app = LApp("x", STAR_L, STAR_L, ID_LAM, LVar("N"))
    assert LVar("N") in tight_step_all(app)


def test_tight_beta_blocked_on_mismatched_labels():
    # same domain, different codomain label: the root never fires
    lam = LLam("x", STAR_L, STAR_L, LBVar(0))
    app = LApp("x", STAR_L, LVar("N"), lam, LVar("N"))
    reducts = tight_step_all(app)
    assert LVar("N") not in reducts
    assert reducts == set()  # nothing inside can step either


def test_tight_steps_include_annotation_positions():
    redex_annot = LApp("y", STAR_L, STAR_L, ID_LAM, LVar("N"))
    lam = LLam("x", redex_annot, STAR_L, LBVar(0))
    reducts = tight_step_all(lam)
    assert LLam("x", LVar("N"), STAR_L, LBVar(0)) in reducts
    # and inside the label codomain too
    lam2 = LLam("x", STAR_L, redex_annot, LBVar(0))
    assert LLam("x", STAR_L, LVar("N"), LBVar(0)) in tight_step_all(lam2)


def test_erasure_simulation_forward():
    # every tight step erases to zero steps or exactly one plain step
    ctx = C("N : *\nM : N")
    for text in [r"(\A:*. \x:A. x) N M", r"\y:(\B:*. B) N. y", r"(\x:N. x) M"]:
        la = label_term(CC, ctx, P(text))
        plain = step_all(P(text))
        for reduct in tight_step_all(la):
            er = erase(reduct)
            assert er == P(text) or er in plain


def test_labeled_key_redexes():
    app = LApp("x", STAR_L, STAR_L, ID_LAM, LVar("N"))
    assert key_redex_of(app) == app
    assert reduce_key_redex(app) == LVar("N")
    assert is_base(LVar("x"))
    assert not is_base(app)
    mismatched = LApp("x", STAR_L, LVar("N"), ID_LAM, LVar("N"))
    assert key_redex_of(mismatched) is None


def test_normalize_fires_a_tight_redex_once_its_labels_are_normal():
    # the application's label domain is itself a tight redex: only its
    # normal form agrees with the function's label
    la = parse_labeled(r"(\[x : N -> N] x : N . x) @[x : (\[B : * -> *] B : * . B) @[B : * -> *] N -> N] M")
    assert normalize(la) == LVar("M") == oracle.l_normalize(la)


def _blocked(d):
    r"""A tight redex ``(\[B : * -> *] B : * . B) @[B : * -> *] d`` that contracts to ``d``."""
    return LApp("B", STAR_L, STAR_L, LLam("B", STAR_L, STAR_L, LBVar(0)), d)


def _with_blocked_label(la):
    """``la`` with the label domain D of its first application (preorder)
    replaced by ``_blocked(D)``, or None if it has no application."""
    from ptskit.reduction import _rebuild

    if isinstance(la, LApp):
        return _rebuild(la, "dom", _blocked(la.dom))
    for name, _ in la._children:
        v = _with_blocked_label(getattr(la, name))
        if v is not None:
            return _rebuild(la, name, v)
    return None


def _tight_normalization_cases():
    """Elaborated generated terms with their tight reducts and elaborated
    types, and elaborated ``corpus/cc`` terms with their tight reducts."""
    from ptskit.corpus import load_corpus_dir

    pool = typed_pool_context()
    out = []
    for seed in (1, 2, 3):
        for t in typed_terms(seed=seed, count=150):
            la = label_term(CC, pool, t)
            out += [la, *tight_step_all(la), label_term(CC, pool, infer_type(CC, pool, t))]
    for j in load_corpus_dir(os.path.join(os.path.dirname(__file__), "..", "corpus", "cc")):
        la = label_term(CC, j.ctx, j.term)
        out += [la, *tight_step_all(la)]
    return out


def test_normalize_matches_the_tight_trace_loop():
    # the trace loop that repeats leftmost_step is the reference tight
    # normal form; normalize contracts head first, in another order
    cases = _tight_normalization_cases()
    variants = [v for v in map(_with_blocked_label, cases) if v is not None]
    assert len(cases) == 1524 and len(variants) > 1000
    for la in cases + variants:
        assert normalize(la) == oracle.l_normalize(la), str(la)


# ---------------------------------------------------------------------------
# Elaboration


def test_label_term_variable():
    assert label_term(CC, C("A : *"), Var("A")) == LVar("A")


def test_label_term_lambda_gets_synthesized_product():
    la = label_term(CC, Context(), P(r"\x:*. x"))
    assert isinstance(la, LLam)
    assert label_of(la) == ID_LABEL


def test_label_term_app_gets_instantiated_products():
    ctx = C("N : *\nM : N")
    la = label_term(CC, ctx, P(r"(\A:*. \x:A. x) N M"))
    assert isinstance(la, LApp)
    # outermost application: the function type was instantiated at N
    assert erase(label_of(la)) == P("(x:N) -> N")
    inner = la.fun
    assert isinstance(inner, LApp)
    assert erase(label_of(inner)) == P("(A:*) -> (x:A) -> A")


def test_label_term_round_trip():
    ctx = C("A : *\nP : A -> *\nh : (x:A) -> P x\na : A")
    for text in [r"\x:A. h x", "h a", "(x:A) -> P x", r"(\x:A. x) a", "*"]:
        t = P(text)
        assert erase(label_term(CC, ctx, t)) == t


def test_label_term_rejects_ill_typed():
    with pytest.raises(TypeCheckError):
        label_term(CC, Context(), P("x"))


def test_label_term_rejects_sigma():
    ctx = parse_context("A : *\na : A", sigma_enabled=True)
    pair = parse_expr("<a, a> : Sig x:A. A", sigma_enabled=True)
    with pytest.raises(TypeCheckError) as info:
        label_term(CC.with_sigma(), ctx, pair)
    assert info.value.kind is ErrorKind.SIGMA_DISABLED
    assert info.value.message == "the labeled system covers core terms only: <a, a> : Sig x:A. A"


# ---------------------------------------------------------------------------
# Labeled typing


def test_labeled_infer_identity():
    assert labeled_infer(CC, LabeledContext(), ID_LAM) == ID_LABEL


def test_labeled_infer_beta_redex_types():
    lctx = label_context(CC, C("N : *"))
    app = LApp("x", STAR_L, STAR_L, ID_LAM, LVar("N"))
    assert labeled_infer(CC, lctx, app) == STAR_L


def _id_redex_at_n():
    # (\y:*. y) N, tightly labeled, a one-step reduct of N... the reverse:
    # it reduces to N in one tight step
    return LApp("y", STAR_L, STAR_L, LLam("y", STAR_L, STAR_L, LBVar(0)), LVar("N"))


def _const_n_redex():
    # (\z:*. N) N: also reduces to N, but never to the identity redex
    return LApp("z", STAR_L, STAR_L, LLam("z", STAR_L, STAR_L, LVar("N")), LVar("N"))


def test_labeled_infer_through_directed_conversion():
    lctx = label_context(CC, C("N : *\nM : N"))
    lam = LLam("x", _id_redex_at_n(), STAR_L, LVar("N"))
    # label joinable with the function's type but in neither direction:
    # both domains reduce to N, neither reduces to the other
    app = LApp("x", _const_n_redex(), STAR_L, lam, LVar("M"))
    with pytest.raises(TypeCheckError) as err:
        labeled_infer(CC, lctx, app)
    assert err.value.kind is ErrorKind.DIRECTED_CONVERSION_UNDETERMINED
    # with the label a genuine reduct of the function's type, it types
    app2 = LApp("x", LVar("N"), STAR_L, lam, LVar("M"))
    assert labeled_infer(CC, lctx, app2) == STAR_L


def test_labeled_infer_agrees_with_plain_on_corpus():
    ctx = typed_pool_context()
    lctx = label_context(CC, ctx)
    wf_context(CC, lctx)
    for t in typed_terms(seed=31, count=30):
        la = label_term(CC, ctx, t)
        lty = labeled_infer(CC, lctx, la)
        plain_ty = infer_type(CC, ctx, t)
        assert normalize(erase(lty), 1000) == normalize(plain_ty, 1000)


def test_labeled_preservation_on_examples():
    ctx = C("N : *\nM : N")
    lctx = label_context(CC, ctx)
    la = label_term(CC, ctx, P(r"(\A:*. \x:A. x) N M"))
    ty = labeled_infer(CC, lctx, la)
    for reduct in tight_step_all(la):
        ty2 = labeled_infer(CC, lctx, reduct)
        assert directed_convertible(ty2, ty)


def test_elaborated_redexes_have_matching_labels():
    ctx = C("N : *\nM : N")
    la = label_term(CC, ctx, P(r"(\x:N. x) M"))
    assert isinstance(la, LApp) and isinstance(la.fun, LLam)
    assert normalize(label_of(la)) == normalize(label_of(la.fun))


# ---------------------------------------------------------------------------
# Surface syntax round trip


def test_tight_normalization_erases_to_plain_normal_form():
    # elaborated terms keep their labels aligned along reduction, so the
    # tight normal form erases to the plain one
    from ptskit.reduction import normalize

    for ctx_text, text in [
        ("N : *\nM : N", r"(\A:*. \x:A. x) N M"),
        ("A : *\ng : A -> A\na : A", r"(\x:A. g (g x)) a"),
        ("A : *", r"(\F:* -> *. F A) (\X:*. X)"),
    ]:
        ctx = C(ctx_text)
        t = P(text)
        la = label_term(CC, ctx, t)
        assert erase(normalize(la, 10000)) == normalize(t, 10000)


def test_labeled_syntax_round_trip():
    ctx = C("N : *\nM : N")
    for text in [r"(\A:*. \x:A. x) N M", r"\x:N. x", "(x:N) -> N", r"\y:(\B:*. B) N. y"]:
        la = label_term(CC, ctx, P(text))
        printed = print_labeled(la)
        assert parse_labeled(printed) == la, printed


def test_labeled_parse_rejects_mismatched_binder():
    with pytest.raises(Exception):
        parse_labeled(r"\[x : * -> *] y : * . y")


# ---------------------------------------------------------------------------
# Elaboration errors, pinned: kind and message of every failure, recorded
# when elaboration still re-inferred each whole product, so reading a
# product's sort from its elaborated parts reports the same failure.  An
# ill-typed application fails in infer_type's words.

ELABORATION_ERRORS = [
    ("stlc", "", r"\A:*. A", 100, "NoRule: no rule (#,#,_) to form * -> *"),
    ("stlc", "", "(A:*) -> A", 100, "NoRule: no rule (#,*,_) to form (A:*) -> A"),
    ("f", "", "(A:*) -> *", 100, "NoRule: no rule (#,#,_) to form * -> *"),
    ("f", "", r"\F:* -> *. F", 100, "NoRule: no rule (#,#,_) to form * -> *"),
    ("fomega", "", r"\A:*. \x:A. A", 100, "NoRule: no rule (*,#,_) to form A -> *"),
    ("fomega", "A : *", "(x:A) -> *", 100, "NoRule: no rule (*,#,_) to form A -> *"),
    ("stlc", "A : *", "A -> *", 100, "NoRule: no rule (*,#,_) to form A -> *"),
    ("stlc", "", "* -> *", 100, "NoRule: no rule (#,#,_) to form * -> *"),
    ("stlc", "A : *", r"\x:A. (\y:*. y)", 100, "NoRule: no rule (#,#,_) to form * -> *"),
    ("f", "", r"\A:*. \F:A -> *. F", 100, "NoRule: no rule (*,#,_) to form A -> *"),
    ("stlc", "A : *\nx : A", r"\y:x. y", 100, "SortUntypeable: x is classified by A, not a sort"),
    ("cc", "A : *\nx : A", r"\y:x. y", 100, "SortUntypeable: x is classified by A, not a sort"),
    ("cc", "A : *\nx : A", "(y:x) -> A", 100, "SortUntypeable: x is classified by A, not a sort"),
    ("cc", "A : *\nx : A", "(y:A) -> x", 100, "SortUntypeable: x is classified by A, not a sort"),
    ("cc", "A : *", r"(y:A) -> (\z:*. z)", 100, r"SortUntypeable: \z:*. z is classified by * -> *, not a sort"),
    ("cc", "A : *", r"\y:A. \z:y. z", 100, "SortUntypeable: y is classified by A, not a sort"),
    ("cc", "A : *", r"\x:(\B:*. B) A. \y:x. y", 100, "SortUntypeable: x is classified by A, not a sort"),
    ("cc", "A : *\nP : A -> *", "(a:A) -> P", 100, "SortUntypeable: P is classified by A -> *, not a sort"),
    ("cc", "", r"(A:*) -> \x:A. x", 100, r"SortUntypeable: \x:A. x is classified by A -> A, not a sort"),
    ("f", "A : *", r"(\x:A. x) -> A", 100, r"SortUntypeable: \x:A. x is classified by A -> A, not a sort"),
    ("cc", "", "#", 100, "NoAxiom: sort # has no type"),
    ("cc", "", "(x:#) -> *", 100, "NoAxiom: sort # has no type"),
    ("cc", "", r"\x:#. x", 100, "NoAxiom: sort # has no type"),
    ("cc", "A : *", "x", 100, "UnboundVariable: unbound variable x"),
    ("cc", "A : *", "A A", 100, "NotAFunction: A has type *, which is not a function type"),
    ("cc", "A : *\nx : A", "x x", 100, "NotAFunction: x has type A, which is not a function type"),
    ("cc", "A : *\nP : A -> *", "(a:A) -> P a a", 100, "NotAFunction: P a has type *, which is not a function type"),
    ("cc", "A : *\nP : A -> *", r"\a:A. \p:P a. p a", 100, "NotAFunction: p has type P a, which is not a function type"),
    ("cc", "A : *\nB : *\nf : A -> A\nb : B", "f b", 100, "Mismatch: argument of f: B is not convertible with A"),
    ("cc", "A : *\nf : A -> A", r"\x:A. f f", 100, "Mismatch: argument of f: A -> A is not convertible with A"),
    ("cc", "A : *", r"(\x:A. x) A", 100, r"Mismatch: argument of \x:A. x: * is not convertible with A"),
    ("cc", "", r"((\x:*. x) (\y:*. y)) -> *", 100, r"Mismatch: argument of \x:*. x: * -> * is not convertible with *"),
    ("cc", "A : *\nf : (\\B:*. B) ((\\C:*. C) (A -> A))\na : A", "f a", 1, "FuelExhausted: exposing the type of f"),
    ("cc", "A : *", r"(x:(\B:*. \C:*. B) A A) -> x", 1, "FuelExhausted: normalizing the type of x"),
    ("cc", "A : *\na : A", r"(\x:(\B:*. \C:*. B) A A. x) a", 1, r"FuelExhausted: conversion undecided in argument of \x:(\B:*. \C:*. B) A A. x"),
]


@pytest.mark.parametrize("system, ctx_text, text, fuel, message", ELABORATION_ERRORS)
def test_elaboration_errors_are_pinned(system, ctx_text, text, fuel, message):
    from ptskit.syntax import BUILTIN_SPECS

    with pytest.raises(TypeCheckError) as info:
        label_term(BUILTIN_SPECS[system], C(ctx_text), P(text), fuel)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Elaboration and labeled typing against the walks that re-checked every
# product and label


def test_elaboration_matches_the_rechecking_oracle():
    for system, ctx, term, fuel in oracle.typing_cases():
        spec = BUILTIN_SPECS[system]
        got = outcome(label_term, spec, ctx, term, fuel)
        assert got == outcome(oracle.label_term, spec, ctx, term, fuel), (system, fuel, str(term))
        got_ctx = outcome(label_context, spec, ctx, fuel)
        assert got_ctx == outcome(oracle.label_context, spec, ctx, fuel), (system, fuel, str(ctx))
        if got[0] == got_ctx[0] == "ok":
            for depth in (12, 1):
                args = (spec, got_ctx[1], got[1], fuel, depth)
                want = outcome(oracle.labeled_infer, *args)
                assert outcome(labeled_infer, *args) == want, (system, fuel, depth, str(term))


def test_labeled_infer_matches_the_rechecking_oracle_on_mismatched_labels():
    for system, la, fuel, depth in oracle.labeled_cases():
        args = (BUILTIN_SPECS[system], Context(), la, fuel, depth)
        want = outcome(oracle.labeled_infer, *args)
        assert outcome(labeled_infer, *args) == want, (system, fuel, depth, str(la))


def _labeled_wf_reference(spec, lctx, fuel):
    """The labeled context check over the oracle's walk and trace-loop
    normal form, with each failing binding printed as wf_context prints it."""
    prefix = Context()
    for name, ty in lctx:
        if name in prefix.names():
            raise TypeCheckError(ErrorKind.ILL_FORMED_CONTEXT, f"duplicate binding for {name!r}")
        try:
            oracle._as_sort(spec, oracle.labeled_infer(spec, prefix, ty, fuel), fuel, ty, oracle.l_normalize)
        except TypeCheckError as err:
            raise TypeCheckError(ErrorKind.ILL_FORMED_CONTEXT, f"binding {name} : {print_labeled(ty)} is ill-formed ({err})")
        prefix = prefix.extend(name, ty)


def test_infer_type_and_wf_context_on_labeled_input_match_the_oracle():
    # infer_type is labeled_infer at the default search depth, and
    # wf_context checks labeled contexts with the labeled walk
    cases = []
    for system, ctx, term, fuel in oracle.typing_cases():
        spec = BUILTIN_SPECS[system]
        la, lctx = outcome(label_term, spec, ctx, term, fuel), outcome(label_context, spec, ctx, fuel)
        if la[0] == lctx[0] == "ok":
            cases.append((spec, lctx[1], la[1], fuel))
    for system, la, fuel, _ in oracle.labeled_cases():
        cases.append((BUILTIN_SPECS[system], Context(), la, fuel))
    assert len(cases) > 1000
    for spec, lctx, la, fuel in cases:
        want = outcome(oracle.labeled_infer, spec, lctx, la, fuel)
        assert outcome(infer_type, spec, lctx, la, fuel) == want, str(la)
        # the term itself as a binding type, and a repeated binding
        for ctx in (lctx, lctx.extend("t'", la), lctx.extend("t'", la).extend("t'", STAR_L)):
            want = outcome(_labeled_wf_reference, spec, ctx, fuel)
            assert outcome(wf_context, spec, ctx, fuel) == want, str(ctx)


def _nest(d):
    return P(r"\A:*. " + "".join(rf"\x{i}:A. " for i in range(d)) + "x0")


def _counting(monkeypatch, counts, *sites):
    """Count the calls to each ``(module, name, key)`` site under ``key``."""
    for module, name, key in sites:
        f = getattr(module, name)

        def wrapper(*args, f=f, key=key):
            counts[key] = counts.get(key, 0) + 1
            return f(*args)

        monkeypatch.setattr(module, name, wrapper)


def _counting_rules(monkeypatch, counts, key):
    """Count the calls to every typing rule under ``key``."""

    def count(rule):
        def wrapper(*args):
            counts[key] = counts.get(key, 0) + 1
            return rule(*args)

        return wrapper

    spy_on_rules(monkeypatch, count)


def test_typing_walks_grow_linearly_with_nest_depth(monkeypatch):
    from ptskit import labeled, typecheck

    counts: dict[str, int] = {}
    # infer_type and labeled_infer are views of the typing rules, which
    # elaboration calls too: each rule call is one node visit
    _counting_rules(monkeypatch, counts, "infer_type")
    _counting(monkeypatch, counts, (labeled, "_elaborate", "_elaborate"))

    def calls(d):
        t = _nest(d)
        counts.clear()
        infer_type(CC, Context(), t)
        typed = counts["infer_type"]
        counts.clear()
        la = labeled.label_term(CC, Context(), t)
        elaborated = counts["_elaborate"]
        counts.clear()
        labeled.labeled_infer(CC, Context(), la)
        return typed, elaborated, counts["infer_type"]

    for at_32, at_64 in zip(calls(32), calls(64)):
        assert at_64 <= 2.2 * at_32, (at_32, at_64)


def test_translation_check_grows_linearly_with_nest_depth(monkeypatch):
    # each translated lambda is an application (\y:_0. \x:T. ...) t; its
    # sort travels up, so no enclosing lambda re-checks its product; and the
    # delayed types that conversion and sort checks build as terms are read
    # back (_apply) once each, not once per enclosing binder
    from ptskit import typecheck
    from ptskit.translate import check_translation

    counts: dict[str, int] = {}
    _counting_rules(monkeypatch, counts, "_infer")
    _counting(monkeypatch, counts, (typecheck, "_apply", "_apply"))

    def calls(d):
        counts.clear()
        assert all(entry.ok for entry in check_translation(Context(), _nest(d)))
        return counts["_infer"], counts.get("_apply", 0)

    for at_32, at_64 in zip(calls(32), calls(64)):
        assert at_64 <= 2.2 * at_32, (at_32, at_64)


def test_translation_builds_nodes_linearly_with_nest_depth(monkeypatch):
    # the walk keeps its binders on a stack: it opens, closes and
    # substitutes into no subterm, so each source node costs O(1) nodes
    from ptskit import syntax
    from ptskit.translate import TransEnv, translate_term

    assert lambda_nest(32) == _nest(32)
    built = [0]
    for cls in (syntax.SortE, syntax.BVar, syntax.Var, syntax.Pi, syntax.Lam, syntax.App):

        def counting(self, *args, init=cls.__init__):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)

    def nodes(d):
        t = lambda_nest(d)
        built[0] = 0
        translate_term(TransEnv(Context()), t)
        return built[0]

    # linear with a non-negative constant: 326 and 646 nodes (1,202 and
    # 2,546 when each binder was opened and closed)
    at_64, at_128 = nodes(64), nodes(128)
    assert at_128 <= 2 * at_64, (at_64, at_128)


def test_labeled_binder_walks_grow_at_most_quadratically(monkeypatch):
    # a labeled nest of depth d has O(d^2) nodes, its labels; opening and
    # closing visit only the subterms that mention the binder, each visit
    # one call of the rebuild walk
    from ptskit import labeled, syntax

    counts: dict[str, int] = {}
    _counting(monkeypatch, counts, (syntax, "_map", "visits"))

    def visits(d):
        counts.clear()
        labeled.labeled_infer(CC, Context(), labeled.label_term(CC, Context(), _nest(d)))
        return counts["visits"]

    at_32, at_64 = visits(32), visits(64)
    assert at_64 <= 4.5 * at_32, (at_32, at_64)


# ---------------------------------------------------------------------------
# Elaboration and labeled typing under binders on a scope


def test_label_spine_elaborates_the_function_type_once(monkeypatch):
    # an application of a context variable takes its label from the
    # variable's labeled type, elaborated once per call
    from ptskit import labeled

    counts: dict[str, int] = {}
    elaborate = labeled._elaborate

    def counting(scope, a):
        if a == P("A -> A"):
            counts["A -> A"] = counts.get("A -> A", 0) + 1
        return elaborate(scope, a)

    monkeypatch.setattr(labeled, "_elaborate", counting)
    spine = P("f (" * 149 + "f x" + ")" * 149)
    la = label_term(CC, C("A : *\nf : A -> A\nx : A"), spine)
    assert erase(la) == spine and label_of(la) == LPi("_", LVar("A"), LVar("A"))
    assert counts == {"A -> A": 1}


def test_a_spine_of_arguments_elaborates_each_product_once(monkeypatch):
    # g a ... a, g : A -> ... -> A: an application whose codomain does not
    # mention its binder hands up the labeled codomain, so the next one
    # reuses it (820 product elaborations for n = 40 when each application
    # re-elaborated the product its function's type exposed)
    from ptskit import labeled
    from ptskit.syntax import Pi

    n = 40
    ctx, term = C("A : *\na : A\ng : " + "A -> " * n + "A"), P("g" + " a" * n)
    elaborate, products = labeled._elaborate, [0]

    def counting(scope, a):
        products[0] += type(a) is Pi
        return elaborate(scope, a)

    monkeypatch.setattr(labeled, "_elaborate", counting)
    la = label_term(CC, ctx, term)
    monkeypatch.undo()
    assert products[0] <= 2 * n, products[0]
    assert outcome(label_term, CC, ctx, term) == outcome(oracle.label_term, CC, ctx, term)
    assert erase(la) == term


def test_no_lambda_over_a_variable_elaborates_its_body_type(monkeypatch):
    # a variable's labeled type comes from its binder's labeled annotation,
    # or once per call from its type in the context
    from ptskit import labeled

    elaborate = labeled._elaborate
    frames, fallbacks = [], []

    def guarded(scope, a):
        parent = frames[-1] if frames else None
        if parent is not None and type(parent[0]) is Lam and parent[1] is a:
            fallbacks.append(parent[0])
        frames.append([a, None])
        try:
            result = elaborate(scope, a)
        finally:
            frames.pop()
        if parent is not None and type(parent[0]) is Lam and a is parent[0].body:
            parent[1] = result[1]  # the body's type: the fallback would elaborate it next
        return result

    from ptskit.syntax import BVar, Lam

    ctx = typed_pool_context()
    terms = [t for seed in (1, 2, 3) for t in typed_terms(seed=seed, count=100)]
    terms += [P(r"\A:*. \x:A. \y:A. x"), P(r"\x:A. \y:P x. a"), P(r"\g:A -> A. \y:A. g")]
    monkeypatch.setattr(labeled, "_elaborate", guarded)
    lambdas = 0
    for t in terms:
        label_term(CC, ctx, t)
        todo = [t]
        while todo:
            e = todo.pop()
            todo.extend(getattr(e, f) for f, _ in e._children)
            lambdas += isinstance(e, Lam) and isinstance(e.body, (Var, BVar))
    assert lambdas > 50
    assert [f for f in fallbacks if isinstance(f.body, (Var, BVar))] == []


LABELED_MESSAGES_UNDER_BINDERS = [
    # binders x, x', x'' under a context that binds x: named x', x'', x'''
    (r"x'", "DirectedConversionUndetermined: body type x' -> x' does not reduce to or from the label codomain"),
    (r"x' @[y : x -> *] x''",
     "DirectedConversionUndetermined: function type x' -> x' does not reduce to or from the label x' -> *"),
    (r"x' @[y : x -> x] x'", "DirectedConversionUndetermined: argument type x' -> x' does not reduce to or from x'"),
    (r"f @[y : x -> x] x''",
     "DirectedConversionUndetermined: function type x -> x does not reduce to or from the label x' -> x'"),
]
_NEST = r"\[x : * -> (x -> x) -> x -> x] x : * . \[x' : (x -> x) -> x -> x] x' : (x -> x) . \[x'' : x -> x] x'' : x . "


@pytest.mark.parametrize("body, message", LABELED_MESSAGES_UNDER_BINDERS)
def test_labeled_messages_under_colliding_binders_are_pinned(body, message):
    lctx = label_context(CC, C("x : *\nf : x -> x"))
    for infer in (labeled_infer, oracle.labeled_infer):
        with pytest.raises(TypeCheckError) as info:
            infer(CC, lctx, parse_labeled(_NEST + body))
        assert str(info.value) == message, infer


def test_a_label_that_takes_two_contractions_to_normalize_types_at_fuel_1():
    # directed search, not fuel, decides a label: the function's type and the
    # label reduce to each other, though the label's normal form is two
    # contractions away
    la = parse_labeled(_NEST + r"x' @[y : (\[X : * -> *] X : * . X) @[X : * -> *] ((\[X : * -> *] X : * . X) @[X : * -> *] x) -> x] x''")
    lctx = label_context(CC, C("x : *\nf : x -> x"))
    for fuel in (1, 2):
        for infer in (labeled_infer, oracle.labeled_infer):
            assert print_labeled(infer(CC, lctx, la, fuel, 12)) == "(x:*) -> (x -> x) -> x -> x", (infer, fuel)
