import pytest

from ptskit.syntax import (
    BOX,
    BUILTIN_SPECS,
    CC,
    Context,
    FOMEGA,
    Lam,
    STAR,
    STLC,
    SYSTEM_F,
    SortE,
    Var,
    parse_context,
    parse_expr,
)
from ptskit.typecheck import (
    ErrorKind,
    GammaConstructor,
    GammaTerm,
    Kind,
    TypeCheckError,
    check_type,
    classify,
    infer_type,
    parse_spec_text,
    resolve_spec,
    wf_context,
)

import typing_oracle as oracle
from typing_oracle import outcome

CCS = CC.with_sigma()


def P(text, sigma=False):
    return parse_expr(text, sigma_enabled=sigma)


def C(text, sigma=False):
    return parse_context(text, sigma_enabled=sigma)


def err_kind(callable_, *args, **kwargs):
    with pytest.raises(TypeCheckError) as err:
        callable_(*args, **kwargs)
    return err.value.kind


# ---------------------------------------------------------------------------
# Context formation


def test_wf_context_examples():
    wf_context(CC, Context())
    wf_context(CC, C("A : *\nx : A"))
    assert err_kind(wf_context, CC, C("x : y")) is ErrorKind.ILL_FORMED_CONTEXT
    assert err_kind(wf_context, CC, C("A : *\nA : *")) is ErrorKind.ILL_FORMED_CONTEXT


def test_wf_context_depends_on_system():
    ctx = C("A : *\nP : A -> *")
    wf_context(CC, ctx)
    assert err_kind(wf_context, FOMEGA, ctx) is ErrorKind.ILL_FORMED_CONTEXT


# ---------------------------------------------------------------------------
# Inference


def test_infer_sort():
    assert infer_type(CC, Context(), SortE(STAR)) == SortE(BOX)


def test_infer_box_has_no_axiom():
    assert err_kind(infer_type, CC, Context(), SortE(BOX)) is ErrorKind.NO_AXIOM


def test_infer_polymorphic_identity():
    assert infer_type(CC, Context(), P(r"\A:*. \x:A. x")) == P("(A:*) -> (x:A) -> A")


def test_infer_unbound_variable():
    assert err_kind(infer_type, CC, Context(), Var("x")) is ErrorKind.UNBOUND_VARIABLE


def test_infer_not_a_function():
    assert err_kind(infer_type, CC, C("A : *"), P("A A")) is ErrorKind.NOT_A_FUNCTION


def test_infer_argument_mismatch():
    ctx = C("A : *\nx : A")
    assert err_kind(infer_type, CC, ctx, P(r"(\y:A -> A. y) x")) is ErrorKind.MISMATCH


def test_dependent_application():
    ctx = C("A : *\nP : A -> *\nf : (x:A) -> P x\na : A")
    assert infer_type(CC, ctx, P("f a")) == P("P a")


# negative cases per system: which rule is missing decides rejection


def test_stlc_rejects_polymorphism():
    assert err_kind(infer_type, STLC, Context(), P("(A:*) -> A -> A")) is ErrorKind.NO_RULE
    assert err_kind(infer_type, STLC, Context(), P(r"\A:*. \x:A. x")) is ErrorKind.NO_RULE


def test_stlc_accepts_simple_functions():
    ctx = C("A : *")
    assert infer_type(STLC, ctx, P(r"\x:A. x")) == P("(x:A) -> A")


def test_system_f_rejects_type_operators():
    assert err_kind(infer_type, SYSTEM_F, Context(), P(r"\F:* -> *. F")) is ErrorKind.NO_RULE
    assert infer_type(SYSTEM_F, Context(), P(r"\A:*. \x:A. x")) == P("(A:*) -> (x:A) -> A")


def test_fomega_rejects_dependent_pi():
    ctx = C("A : *")
    assert err_kind(infer_type, FOMEGA, ctx, P("(x:A) -> *")) is ErrorKind.NO_RULE
    assert infer_type(CC, ctx, P("(x:A) -> *")) == SortE(BOX)


def test_fomega_rejects_dependent_lambda_via_product_premise():
    ctx = C("A : *")
    # the body types fine, only the synthesized product is unformable
    assert err_kind(infer_type, FOMEGA, ctx, P(r"\x:A. A")) is ErrorKind.NO_RULE
    assert infer_type(CC, ctx, P(r"\x:A. A")) == P("(x:A) -> *")


def test_fomega_accepts_type_operators():
    assert infer_type(FOMEGA, Context(), P(r"\F:* -> *. \A:*. F (F A)")) == P(
        "(F:* -> *) -> (A:*) -> *"
    )


# ---------------------------------------------------------------------------
# Checking


def test_check_star_against_box():
    check_type(CC, Context(), SortE(STAR), SortE(BOX))


def test_check_star_against_star_mismatch():
    assert err_kind(check_type, CC, Context(), SortE(STAR), SortE(STAR)) is ErrorKind.MISMATCH


def test_check_through_conversion():
    ctx = C("A : *\na : A")
    check_type(CC, ctx, P(r"(\x:A. x) a"), P("A"))
    check_type(CC, ctx, P(r"\x:A. x"), P(r"(\B:*. B -> B) A"))


def test_check_requires_well_sorted_type():
    # the stated type must itself classify under a sort
    assert (
        err_kind(check_type, CC, Context(), P(r"\x:*. x"), P(r"(x:*) -> (\y:*. y) *"))
        is ErrorKind.MISMATCH
    )


def test_check_rendered_mismatch_detail():
    with pytest.raises(TypeCheckError) as err:
        check_type(CC, C("A : *\nB : *\nx : A"), Var("x"), Var("B"))
    assert "A" in str(err.value) and "B" in str(err.value)


def test_conversion_failure_messages():
    # the site of a failed conversion is rendered only on failure, in this wording
    ctx = C("A : *\nB : *\nx : A")
    slow_a = P(r"(\B:*. (\C:*. C) B) A")  # two steps from A
    cases = [
        (infer_type, [P(r"(\y:A -> A. y) x")], 100, r"Mismatch: argument of \y:A -> A. y: A is not convertible with A -> A"),
        (check_type, [Var("x"), Var("B")], 100, "Mismatch: checking x: A is not convertible with B"),
        (check_type, [Var("x"), slow_a], 1, "FuelExhausted: conversion undecided in checking x"),
        (
            infer_type,
            [P(r"(\y:(\B:*. (\C:*. C) B) A. y) x")],
            1,
            r"FuelExhausted: conversion undecided in argument of \y:(\B:*. (\C:*. C) B) A. y",
        ),
    ]
    for fn, args, fuel, message in cases:
        with pytest.raises(TypeCheckError) as err:
            fn(CC, ctx, *args, fuel)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# Sigma rules


def test_sigma_formation_and_pairs():
    ctx = C("A : *\nP : A -> *\na : A\np : P a", sigma=True)
    assert infer_type(CCS, ctx, P("Sig x:A. P x", sigma=True)) == SortE(STAR)
    pair = P("<a, p> : Sig x:A. P x", sigma=True)
    assert infer_type(CCS, ctx, pair) == P("Sig x:A. P x", sigma=True)
    assert infer_type(CCS, ctx, P("(<a, p> : Sig x:A. P x).1", sigma=True)) == Var("A")
    check_type(CCS, ctx, P("(<a, p> : Sig x:A. P x).2", sigma=True), P("P a", sigma=True))


def test_sigma_first_component_must_be_a_type():
    ctx = C("A : *")
    assert (
        err_kind(infer_type, CCS, ctx, P("Sig F:* -> *. A", sigma=True))
        is ErrorKind.MISMATCH
    )


def test_sigma_large_second_component():
    ctx = C("A : *\na : A\nB : *")
    assert infer_type(CCS, ctx, P("Sig x:A. *", sigma=True)) == SortE(BOX)
    pair = P("<a, B> : Sig x:A. *", sigma=True)
    assert infer_type(CCS, ctx, pair) == P("Sig x:A. *", sigma=True)


def test_sigma_nodes_rejected_when_disabled():
    ctx = C("A : *\nB : *\na : A\nb : B")
    pair = P("<a, b> : Sig x:A. B", sigma=True)
    assert err_kind(infer_type, CC, ctx, pair) is ErrorKind.SIGMA_DISABLED


def test_pair_annotation_must_be_sigma():
    ctx = C("A : *\na : A")
    from ptskit.syntax import Pair

    bad = Pair(Var("a"), Var("a"), Var("A"))
    assert err_kind(infer_type, CCS, ctx, bad) is ErrorKind.MISMATCH


def test_projection_needs_sigma_type():
    ctx = C("A : *\na : A")
    from ptskit.syntax import Proj1

    assert err_kind(infer_type, CCS, ctx, Proj1(Var("a"))) is ErrorKind.MISMATCH


# ---------------------------------------------------------------------------
# Classification


def test_classify_examples():
    assert classify(Context(), SortE(STAR)) == Kind()
    assert classify(C("A : *"), Var("A")) == GammaConstructor(is_type=True)
    assert classify(C("A : *\nx : A"), Var("x")) == GammaTerm()


def test_classify_higher_constructor():
    assert classify(Context(), P(r"\A:*. A")) == GammaConstructor(is_type=False)
    assert classify(C("A : *"), P("A -> *")) == Kind()
    assert classify(C("A : *"), P("(x:A) -> A")) == GammaConstructor(is_type=True)


def test_classify_propagates_errors():
    assert err_kind(classify, Context(), Var("nope")) is ErrorKind.UNBOUND_VARIABLE


# ---------------------------------------------------------------------------
# Agreement and monotonicity


def test_inferred_types_check():
    ctx = C("A : *\nP : A -> *\nf : (x:A) -> P x\na : A")
    for text in ["f a", r"\x:A. f x", "P a", "(x:A) -> P x"]:
        term = P(text)
        ty = infer_type(CC, ctx, term)
        check_type(CC, ctx, term, ty)


def test_rule_sets_are_monotone():
    ctx = C("A : *\nB : *")
    terms = [r"\x:A. x", r"\x:A. \y:B. x", r"\A:*. \x:A. x", r"\F:* -> *. \A:*. F A"]
    chain = [STLC, SYSTEM_F, FOMEGA, CC]
    for text in terms:
        term = P(text)
        typeable_in = []
        for spec in chain:
            try:
                infer_type(spec, ctx, term)
                typeable_in.append(True)
            except TypeCheckError:
                typeable_in.append(False)
        # once typeable, typeable in every larger system
        first = typeable_in.index(True)
        assert all(typeable_in[first:])


# ---------------------------------------------------------------------------
# Spec files


def test_parse_spec_text_cc():
    spec = parse_spec_text(
        "# calculus of constructions\n"
        "sort *\nsort #\naxiom * #\n"
        "rule * * *\nrule # * *\nrule # # #\nrule * # #\n"
    )
    assert spec.sorts == CC.sorts
    assert spec.axioms == CC.axioms
    assert spec.rules == CC.rules


def test_parse_spec_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_spec_text("sort\n")
    with pytest.raises(ValueError):
        parse_spec_text("axiom * # extra stuff\n")


def test_resolve_spec(tmp_path):
    assert resolve_spec("stlc") == STLC
    path = tmp_path / "mini.pts"
    path.write_text("sort *\nsort #\naxiom * #\nrule * * *\n")
    assert resolve_spec(str(path)).rules == STLC.rules
    with pytest.raises(ValueError):
        resolve_spec("nonesuch")


def test_fuel_exhaustion_is_not_mismatch():
    ctx = C("A : *\nx : A")
    # the stated type needs two reduction steps to reach A, but fuel is one
    ty = P(r"(\B:*. (\C:*. C) B) A")
    kind = err_kind(check_type, CC, ctx, Var("x"), ty, 1)
    assert kind is ErrorKind.FUEL_EXHAUSTED


# ---------------------------------------------------------------------------
# The single typing pass against the walk that re-checked every product


@pytest.fixture(scope="module")
def typing_cases():
    return oracle.typing_cases()


def test_infer_type_matches_the_rechecking_oracle(typing_cases):
    for system, ctx, term, fuel in typing_cases:
        spec = BUILTIN_SPECS[system]
        want = outcome(oracle.infer_type, spec, ctx, term, fuel)
        assert outcome(infer_type, spec, ctx, term, fuel) == want, (system, fuel, str(term))


def test_classify_matches_the_rechecking_oracle(typing_cases):
    for system, ctx, term, fuel in typing_cases:
        spec = BUILTIN_SPECS[system]
        want = outcome(oracle.classify, ctx, term, fuel, spec)
        assert outcome(classify, ctx, term, fuel, spec) == want, (system, fuel, str(term))


def test_no_lambda_types_the_product_it_synthesized(monkeypatch, typing_cases):
    # a lambda checks its annotation's sort before its body and takes its
    # body's sort from the body or the body's type, never from the product
    from ptskit import typecheck
    from ptskit.translate import check_translation

    received, products = [], []
    infer = typecheck._infer

    def guarded(scope, e):
        received.append(e)
        ty, s = infer(scope, e)
        if isinstance(e, Lam):
            products.append(ty)
        return ty, s

    monkeypatch.setattr(typecheck, "_infer", guarded)
    for system, ctx, term, fuel in typing_cases:
        spec = BUILTIN_SPECS[system]
        outcome(infer_type, spec, ctx, term, fuel)
        outcome(classify, ctx, term, fuel, spec)
    for d in (16, 24, 32):
        nest = parse_expr(r"\A:*. " + "".join(rf"\x{i}:A. " for i in range(d)) + "x0")
        assert all(entry.ok for entry in check_translation(Context(), nest))
    assert len(products) > 1000
    assert not {id(p) for p in products} & {id(e) for e in received}


# ---------------------------------------------------------------------------
# Typing under binders on a scope: nothing opened, closed or named


def _well_typed_core_cases():
    """``(ctx, term)`` for the well-typed core CC cases of the oracle
    comparisons under well-formed contexts: generated terms (``typed_terms``
    seeds 1-5), the ``corpus/cc`` judgements that type, and lambda nests."""
    return [
        (ctx, term)
        for system, ctx, term, fuel in oracle.typing_cases()
        if system == "cc" and fuel > 1 and outcome(wf_context, CC, ctx)[0] == outcome(infer_type, CC, ctx, term)[0] == "ok"
    ]


def test_typing_and_elaborating_open_close_and_name_nothing(monkeypatch):
    # the walks push and pop binders on a scope: no body is opened, no type
    # closed, and no name is made unless an error message prints a subterm
    from ptskit import labeled, syntax, typecheck

    cases = _well_typed_core_cases()
    assert len(cases) > 800
    calls = []
    for module in (syntax, typecheck, labeled):
        for name in ("open_binder", "close_binder", "fresh_name"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    for ctx, term in cases:
        wf_context(CC, ctx)
        infer_type(CC, ctx, term)
        classify(ctx, term)
        lctx = labeled.label_context(CC, ctx)
        labeled.labeled_infer(CC, lctx, labeled.label_term(CC, ctx, term))
    assert calls == []


def test_no_lambda_over_a_variable_or_variable_headed_application_types_its_body_type(monkeypatch):
    # a variable's sort comes from its binder (a context variable's from its
    # type, found once per call), and an application's from its function's
    # type, so no lambda body leaves its sort to be found from its type
    from ptskit import typecheck
    from ptskit.syntax import App, BVar

    infer = typecheck._infer
    frames, fallbacks, bodies = [], [], {"var": 0, "app": 0}

    def guarded(scope, e):
        parent = frames[-1] if frames else None
        if parent is not None and type(parent[0]) is Lam and parent[1] is e:
            fallbacks.append(parent[0])
        frames.append([e, None])
        try:
            ty, s = infer(scope, e)
        finally:
            frames.pop()
        if parent is not None and type(parent[0]) is Lam and e is parent[0].body:
            parent[1] = ty  # the body's type: the fallback would type it next
        return ty, s

    cases = _well_typed_core_cases()
    monkeypatch.setattr(typecheck, "_infer", guarded)
    for ctx, term in cases:
        infer_type(CC, ctx, term)
        todo = [term]
        while todo:
            t = todo.pop()
            todo.extend(getattr(t, f) for f, _ in t._children)
            if isinstance(t, Lam):
                head = t.body
                while isinstance(head, App):
                    head = head.fun
                if isinstance(head, (Var, BVar)):
                    bodies["var" if head is t.body else "app"] += 1
    assert bodies["var"] > 50 and bodies["app"] > 50, bodies
    assert fallbacks == []


def test_lambdas_whose_body_gives_no_sort_still_type_its_type():
    # a pair's sort is not handed up, so its type is typed under the binder
    ctx = C("A : *\na : A", sigma=True)
    term = P(r"\x:A. <x, a> : Sig y:A. A", sigma=True)
    assert infer_type(CCS, ctx, term) == P(r"A -> Sig y:A. A", sigma=True)
    bad = P(r"\x:A. <x, a> : Sig y:A. x", sigma=True)
    assert outcome(infer_type, CCS, ctx, bad) == outcome(oracle.infer_type, CCS, ctx, bad)


# ---------------------------------------------------------------------------
# Messages under binders name them as a walk that opened each binder did

MESSAGES_UNDER_BINDERS = [
    ("x : *", r"\x:x. \x:x. x x", "SortUntypeable: x' is classified by x, not a sort"),
    ("x : *", r"\x:*. \x':x. \y:x'. y", "SortUntypeable: x'' is classified by x', not a sort"),
    ("x : *\nf : x -> x", r"\x:*. \y:x. f y", "Mismatch: argument of f: x' is not convertible with x"),
    # the printer's own binder keeps its hint beside the opened name x'
    ("x : *", r"\x:*. \y:x. (\x':x -> x. x') y",
     "Mismatch: argument of \\x':x' -> x'. x': x' is not convertible with x' -> x'"),
    ("x : *", r"\x:*. \x':x. (\x'':x -> x. x'') x'",
     "Mismatch: argument of \\x'':x' -> x'. x'': x' is not convertible with x' -> x'"),
    ("x : *", r"\x:*. \x:x. (\y:(\X:*. X) x. y) *", "Mismatch: argument of \\X:*. X: x' is not convertible with *"),
    ("x : *", r"(x:*) -> (x:x) -> x x", "NotAFunction: x'' has type x', which is not a function type"),
]

SIGMA_MESSAGES_UNDER_BINDERS = [
    (CCS, "x : *", r"\x:*. Sig x:x. x x", "NotAFunction: x'' has type x', which is not a function type"),
    (CCS, "x : *", r"\x:*. \p:(Sig y:x. x). p.2 p", "NotAFunction: p.2 has type x', which is not a function type"),
    (CCS, "x : *\na : x", r"\x:*. \y:x. (<y, a> : Sig z:x. x)",
     "Mismatch: second pair component: x is not convertible with x'"),
    (CCS, "x : *", r"\x:*. \y:x. y.1", "Mismatch: y has type x', not a Sig type"),
    (CCS, "x : *", r"\x:*. Sig y:x. y", "SortUntypeable: y is classified by x', not a sort"),
    (CCS, "x : *", r"\x:*. \x':x. <x', x'> : x", "Mismatch: pair annotation x' is not a Sig type"),
    (CC, "x : *", r"\x:*. \x':x. <x', x'> : x", "SigmaDisabled: sigma extension is disabled: <x'', x''> : x'"),
    (CC, "x : *", r"\x:*. Sig x:x. x x", "SigmaDisabled: sigma extension is disabled: Sig x:x'. x x"),
]


@pytest.mark.parametrize("ctx_text, text, message", MESSAGES_UNDER_BINDERS)
def test_messages_under_colliding_binders_are_pinned(ctx_text, text, message):
    from ptskit.labeled import label_term

    for walk in (infer_type, label_term, oracle.infer_type):
        with pytest.raises(TypeCheckError) as info:
            walk(CC, C(ctx_text), P(text))
        assert str(info.value) == message, walk


@pytest.mark.parametrize("spec, ctx_text, text, message", SIGMA_MESSAGES_UNDER_BINDERS)
def test_sigma_messages_under_colliding_binders_are_pinned(spec, ctx_text, text, message):
    for walk in (infer_type, oracle.infer_type):
        with pytest.raises(TypeCheckError) as info:
            walk(spec, C(ctx_text, sigma=True), P(text, sigma=True))
        assert str(info.value) == message, walk


def test_errors_under_binders_named_like_the_context_match_the_oracle():
    # each generated term under lambdas that rebind its pool names a and b,
    # well-typed and as the ill-typed (\x:T -> T. x) t, typed and elaborated
    from generators import typed_pool_context, typed_terms
    from ptskit.labeled import label_term
    from ptskit.syntax import App, BVar, Pi, close_binder

    pool = typed_pool_context()
    compared = errors = 0
    for seed in (1, 2, 3):
        for t in typed_terms(seed=seed, count=60):
            ty = infer_type(CC, pool, t)
            for inner in (t, App(Lam("x", Pi("_", ty, ty), BVar(0)), t)):
                e = Lam("a", Var("A"), Lam("b", Var("B"), close_binder(close_binder(inner, "b"), "a", 1)))
                for walk, reference in ((infer_type, oracle.infer_type), (label_term, oracle.label_term)):
                    got = outcome(walk, CC, pool, e)
                    assert got == outcome(reference, CC, pool, e), str(e)
                    compared += 1
                    errors += got[0] == "error"
    assert compared == 720 and errors >= 360


def test_fuel_exhaustion_messages_skip_the_normal_form_replay(monkeypatch):
    # _as_sort and classify never read FuelExhausted.last, so the evaluator's
    # exhaustion is reported without replaying it by substitution
    from ptskit import reduction

    substituted = []
    nf = reduction._nf
    monkeypatch.setattr(reduction, "_nf", lambda *args: substituted.append(args) or nf(*args))
    ctx = C("A : *\na : (\\X:*. X) ((\\X:*. X) A)")
    for walk, args in ((infer_type, (CC, ctx, P(r"\y:a. y"), 1)), (classify, (ctx, Var("a"), 1))):
        with pytest.raises(TypeCheckError) as info:
            walk(*args)
        assert str(info.value) == "FuelExhausted: normalizing the type of a"
    assert substituted == []
