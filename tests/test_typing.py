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

    def guarded(spec, ctx, e, *args):
        received.append(e)
        ty, s = infer(spec, ctx, e, *args)
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
