import sys

import pytest

from ptskit.syntax import (
    BOX,
    CC,
    App,
    BVar,
    Context,
    FOMEGA,
    Lam,
    Pi,
    STAR,
    SortE,
    Var,
    open_binder,
    parse_context,
    parse_expr,
    print_expr,
)
from ptskit.corpus import load_corpus_dir
from ptskit.reduction import beta_eq
from ptskit.typecheck import GammaConstructor, GammaTerm, Kind, check_type, classify, infer_type, wf_context
from ptskit.translate import (
    ReservedNameError,
    TransEnv,
    _Walk,
    _is_constructor,
    canonical_inhabitant,
    check_reduction_preservation,
    check_subst_lemmas,
    check_translation,
    erase_kind,
    is_cc_kind,
    render_report,
    translate_context,
    translate_term,
    translate_type,
)

from generators import subst_instances, typed_pool_context, typed_terms
from translation_oracle import NamedEnv


def P(text):
    return parse_expr(text)


def R(text):
    return parse_expr(text, allow_reserved=True)


def C(text):
    return parse_context(text)


def env_for(ctx_text=""):
    return TransEnv(C(ctx_text))


# ---------------------------------------------------------------------------
# The kind map


def test_erase_kind_examples():
    assert erase_kind(SortE(STAR)) == SortE(STAR)
    assert erase_kind(SortE(BOX)) == SortE(STAR)
    assert erase_kind(P("(x:*) -> *")) == P("* -> *")
    # dependency on a type-level domain is erased outright
    assert erase_kind(P("(x:N) -> *")) == SortE(STAR)
    assert erase_kind(P("(A:*) -> (x:A) -> *")) == P("* -> *")


def test_erase_kind_rejects_non_kinds():
    with pytest.raises(ValueError, match=r"^not a sort or kind: A$"):
        erase_kind(Var("A"))
    with pytest.raises(ValueError, match=r"^not a sort or kind: \(x:\*\) -> x$"):
        erase_kind(P("(x:*) -> x"))


def test_is_cc_kind():
    assert is_cc_kind(SortE(STAR))
    assert is_cc_kind(P("(x:*) -> *"))
    assert is_cc_kind(P("(x:N) -> *"))
    assert not is_cc_kind(SortE(BOX))
    assert not is_cc_kind(P("(x:*) -> x"))
    assert not is_cc_kind(Var("A"))


# ---------------------------------------------------------------------------
# Syntactic classification, with classify as the oracle


def _classification_points(ctx, a):
    """Every (context, expression) whose class translating ``ctx |- a`` reads.

    The context's binding types, then, in the judgement's term and its type,
    each product domain, lambda annotation, application argument and
    variable's declared type, under the binders the named walk opens.
    """
    prefix = Context()
    for name, ty in ctx:
        yield prefix, ty
        prefix = prefix.extend(name, ty)
    stack = [(NamedEnv(ctx), a), (NamedEnv(ctx), infer_type(CC, ctx, a))]
    while stack:
        env, e = stack.pop()
        match e:
            case Var(name):
                yield env.cc_context, env.cc_context.lookup(name)
            case Pi(h, dom, body) | Lam(h, dom, body):
                yield env.cc_context, dom
                x = env.fresh_binder(h, dom, body)
                stack += [(env, dom), (env.extended(x, dom), open_binder(body, x))]
            case App(fun, arg):
                yield env.cc_context, arg
                stack += [(env, fun), (env, arg)]


def _syntactic_class(ctx, e):
    if is_cc_kind(e):
        return Kind
    return GammaConstructor if _is_constructor(_Walk(ctx), e) else GammaTerm


def test_syntactic_classification_matches_classify():
    judgements = [(typed_pool_context(), t) for seed in range(1, 6) for t in typed_terms(seed=seed, count=150)]
    judgements += [(j.ctx, j.term) for j in load_corpus_dir("corpus/cc")]
    seen = {Kind: 0, GammaConstructor: 0, GammaTerm: 0}
    for ctx, a in judgements:
        for sub_ctx, e in _classification_points(ctx, a):
            cls = type(classify(sub_ctx, e))
            assert _syntactic_class(sub_ctx, e) is cls, print_expr(e)
            seen[cls] += 1
    assert min(seen.values()) > 500, seen


def test_syntactic_classification_is_depth_safe():
    n = 10_000
    arrows, nest, spine = SortE(STAR), BVar(n - 1), Var("f")
    for _ in range(n):
        arrows = Pi("_", Var("A"), arrows)
        nest = Lam("X", SortE(STAR), nest)
        spine = App(spine, Var("a"))
    ctx = C("A : *\na : A\nf : A -> A")
    assert [is_cc_kind(e) for e in (arrows, nest, spine)] == [True, False, False]
    assert [_is_constructor(_Walk(ctx), e) for e in (arrows, nest, spine)] == [True, True, False]


# ---------------------------------------------------------------------------
# The type translation


def test_translate_type_sorts_to_zero():
    assert translate_type(env_for(), SortE(STAR)) == Var("_0")


def test_translate_type_worked_shape_polymorphic_identity():
    # the doubled product: (x:*) -> x -> x becomes (x:*) -> _0 -> x -> x
    got = translate_type(env_for(), P("(x:*) -> x -> x"))
    assert got == R("(x:*) -> _0 -> x -> x"), print_expr(got)


def test_translate_type_worked_shape_dependent_arrow():
    got = translate_type(env_for("A : *"), P("A -> *"))
    assert got == R("A -> _0")


def test_translate_type_variable_clause():
    assert translate_type(env_for("A : *"), Var("A")) == Var("A")


def test_translate_type_drops_term_arguments():
    env = env_for("A : *\nP : A -> *\na : A")
    assert translate_type(env, P("P a")) == Var("P")


def test_translate_type_keeps_constructor_arguments():
    env = env_for("F : * -> *\nA : *")
    assert translate_type(env, P("F A")) == P("F A")


def test_translate_type_lambda_clauses():
    # kind-level binder is kept, term-level binder is dropped
    assert translate_type(env_for(), P(r"\A:*. A")) == P(r"\A:*. A")
    env = env_for("A : *")
    assert translate_type(env, P(r"\x:A. A")) == Var("A")


def test_a_deep_nest_translates_at_the_default_recursion_limit():
    # the walk takes one frame per source binder; it opens and closes
    # nothing, so no free-name mask decides how deep it recurses
    assert sys.getrecursionlimit() == 1000
    nest = Var("a")
    for i in range(400):
        nest = Lam(f"x{i}", Var("A"), nest)
    env = env_for("A : *\na : A")
    t = translate_term(env, nest)
    for _ in range(400):
        assert isinstance(t, App) and t.arg == Var("_w$A")
        t = t.fun.body.body  # \_y:_0. \x:A. ...
    assert t == Var("a")


def test_translate_type_rejects_terms_with_value_error():
    # a term-level lambda is outside the type translation's domain; the
    # check_* functions guard the translation with ``except ValueError``
    term = P(r"(\r01:(C:*) -> C -> C. r01 ((x:A) -> P x)) (\q11:*. \q22:q11. q22)")
    with pytest.raises(ValueError, match="^term binder r01 survived type translation$"):
        translate_type(TransEnv(typed_pool_context()), term)


# ---------------------------------------------------------------------------
# Context translation


def test_translate_context_empty():
    tc = translate_context(Context())
    assert tc.bindings == (("_0", SortE(STAR)), ("_z", R("(x:*) -> x")))


def test_translate_context_kind_binding_is_doubled():
    tc = translate_context(C("A : *"))
    assert tc.bindings[2:] == (("A", SortE(STAR)), ("_w$A", Var("_0")))


def test_translate_context_type_binding_is_single():
    tc = translate_context(C("A : *\nx : A"))
    assert tc.bindings[4:] == (("x", Var("A")),)


def test_translate_context_is_fomega_well_formed():
    for text in ["", "A : *", "A : *\nx : A", "A : *\nP : A -> *\na : A\np : P a", "F : * -> *"]:
        wf_context(FOMEGA, translate_context(C(text)))


# ---------------------------------------------------------------------------
# Canonical inhabitants


def test_canonical_examples():
    env = env_for()
    assert canonical_inhabitant(env, SortE(STAR)) == Var("_0")
    assert canonical_inhabitant(env, Var("_0")) == R("_z _0")
    assert canonical_inhabitant(env, P("* -> *")) == R(r"\x:*. _0")


def test_canonical_inhabitants_typecheck():
    env = env_for("A : *")
    tctx = translate_context(C("A : *"))
    for b in [SortE(STAR), Var("_0"), P("* -> *"), Var("A"), R("A -> _0"), P("(* -> *) -> *")]:
        c = canonical_inhabitant(env, b)
        check_type(FOMEGA, tctx, c, b)


def _is_fomega_kind(e):
    """The kind test ``canonical_inhabitant`` made before it used ``is_cc_kind``:
    ``*`` under products whose domains are kinds too."""
    match e:
        case SortE(name):
            return name == STAR
        case Pi(_, dom, cod):
            return _is_fomega_kind(dom) and _is_fomega_kind(cod)
        case _:
            return False


def _cc_kind(rng, budget):
    """A random CC kind over ``A : *``; a domain is a kind or a type."""
    if budget <= 1 or rng.random() < 0.3:
        return SortE(STAR)
    roll = rng.random()
    dom = _cc_kind(rng, budget // 2) if roll < 0.5 else P("A") if roll < 0.8 else P("A -> A")
    return Pi("x", dom, _cc_kind(rng, budget - 1))


def test_is_cc_kind_agrees_with_the_fomega_kind_test_on_canonical_requests(monkeypatch):
    import random

    import ptskit.translate as translate
    from ptskit.corpus import Judgement, run_report

    requested = []

    def recording(env, b):
        requested.append(b)
        return canonical_inhabitant(env, b)

    monkeypatch.setattr(translate, "canonical_inhabitant", recording)
    pool = typed_pool_context()
    judgements = load_corpus_dir("corpus/cc") + [Judgement("t", pool, t, None) for t in typed_terms(seed=7, count=200)]
    run_report(judgements)
    env, rng = env_for("A : *"), random.Random(5)
    for _ in range(300):
        recording(env, erase_kind(_cc_kind(rng, 8)))
    kinds = [_is_fomega_kind(b) for b in requested]
    assert kinds == [is_cc_kind(b) for b in requested]
    assert len(set(requested)) > 20 and True in kinds and False in kinds


# ---------------------------------------------------------------------------
# Term translation


def test_translate_term_star():
    assert translate_term(env_for(), SortE(STAR)) == R("_z _0")


def test_translate_term_box_is_unreachable():
    with pytest.raises(ValueError):
        translate_term(env_for(), SortE(BOX))


def test_translate_term_variable_clauses():
    env = env_for("A : *\nx : A")
    assert translate_term(env, Var("A")) == Var("_w$A")  # kind-bound
    assert translate_term(env, Var("x")) == Var("x")  # type-bound


def test_translate_term_worked_shape_constructor_application():
    # <F A> = <F> [A] <A> with F a term of the polymorphic type
    env = env_for("F : (x:*) -> x -> x\nA : *")
    assert translate_term(env, P("F A")) == R("F A _w$A")


def test_translate_term_worked_shape_applied_lambda():
    # <(\x:A. B) a> = (\y:_0. \x:[A]. <B>) <A> <a> for types A, B and a term a
    env = env_for("A : *\nB : *\na : A")
    got = translate_term(env, P(r"(\x:A. B) a"))
    assert got == R(r"(\y:_0. \x:A. _w$B) _w$A a"), print_expr(got)


def test_translate_term_term_application_single():
    env = env_for("A : *\nf : A -> A\na : A")
    assert translate_term(env, P("f a")) == P("f a")


def test_translate_term_lambda_shape():
    # (\y:_0. \x:[A]. <b>) <A> for a type-level domain
    env = env_for("A : *")
    got = translate_term(env, P(r"\x:A. x"))
    assert got == R(r"(\y:_0. \x:A. x) _w$A")


def test_translate_term_kind_domain_lambda_shape():
    got = translate_term(env_for(), P(r"\A:*. \x:A. x"))
    assert got == R(r"(\y:_0. \A:*. \w:_0. (\y2:_0. \x:A. x) w) (_z _0)")


def test_translate_term_pi_subject():
    # a product as a subject becomes the c-function applied to both parts
    env = env_for("A : *")
    got = translate_term(env, P("A -> A"))
    assert got == R("_z (_0 -> _0 -> _0) _w$A _w$A"), print_expr(got)


def test_translate_term_dependent_pi_subject():
    # the codomain copy sees its binder replaced by a canonical inhabitant
    env = env_for("A : *\nP : A -> *")
    got = translate_term(env, P("(x:A) -> P x"))
    assert got == R("_z (_0 -> _0 -> _0) _w$A (_w$P (_z A))"), print_expr(got)


def test_translations_are_deterministic_up_to_alpha():
    env1 = env_for("A : *")
    env2 = env_for("A : *")
    t = P(r"\x:A. \y:A. x")
    assert translate_term(env1, t) == translate_term(env2, t)


def test_reserved_names_in_input_rejected():
    with pytest.raises(ReservedNameError):
        translate_term(env_for(), R("_0"))
    with pytest.raises(ReservedNameError):
        translate_type(env_for(), R("_w$A -> _0"))
    with pytest.raises(ReservedNameError):
        TransEnv(parse_context("_0 : *", allow_reserved=True))


def test_translation_rejects_sigma_forms():
    env = TransEnv(parse_context("A : *\nB : *\na : A\nb : B", sigma_enabled=True))
    pair = parse_expr("<a, b> : Sig x:A. B", sigma_enabled=True)
    message = "^the translation covers core CC only, not the sigma extension$"
    with pytest.raises(ValueError, match=message):
        translate_term(env, pair)
    with pytest.raises(ValueError, match=message):
        translate_type(env, pair.annot)


# ---------------------------------------------------------------------------
# Soundness checks (the F-omega checker is the oracle)


def test_check_translation_examples():
    assert all(e.ok for e in check_translation(C("A : *\nx : A"), Var("x")))
    assert all(e.ok for e in check_translation(Context(), P(r"\A:*. \x:A. x")))
    assert all(e.ok for e in check_translation(Context(), SortE(STAR)))


def test_check_translation_rejects_before_translating():
    # messages recorded before the translation stopped calling the type checker
    cases = [
        ("A : *\nx : A", "x x", "NotAFunction: x has type A, which is not a function type"),
        ("A : *\nx : A", r"\y:A. y A", "NotAFunction: y has type A, which is not a function type"),
        ("x : y", "*", "IllFormedContext: binding x : y is ill-formed (UnboundVariable: unbound variable y)"),
        ("A : *\nA : *", "A", "IllFormedContext: duplicate binding for 'A'"),
    ]
    for ctx_text, text, message in cases:
        entries = check_translation(C(ctx_text), P(text))
        assert render_report(entries) == f"FAIL translation setup failed: {message}"


def test_check_translation_star_judgement_shape():
    entries = check_translation(Context(), SortE(STAR))
    assert any("_z _0 : _0" in e.detail for e in entries)


def test_check_translation_report_lines_are_machine_grepable():
    entries = check_translation(Context(), P(r"\A:*. \x:A. x"))
    for line in render_report(entries).splitlines():
        assert line.startswith(("PASS ", "FAIL "))


def test_a_lazy_detail_reads_as_its_text():
    from ptskit.translate import CheckEntry

    calls = []

    def render():
        calls.append(1)
        return "x : A"

    lazy, eager = CheckEntry(True, "typing", render), CheckEntry(True, "typing", "x : A")
    assert calls == []
    assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
    assert repr(eager) == "CheckEntry(ok=True, name='typing', detail='x : A')"
    assert lazy.line() == eager.line() == "PASS typing x : A" and lazy.detail == "x : A"
    assert calls == [1]
    assert lazy != CheckEntry(False, "typing", "x : A") and {lazy, eager} == {eager}


def test_type_level_soundness_on_examples():
    # constructors land at the kind the kind map predicts
    cases = [
        ("", "(x:*) -> x -> x", STAR),
        ("A : *", "A -> *", BOX),
        ("", r"\A:*. A", None),
        ("A : *\nP : A -> *", "(x:A) -> P x", STAR),
    ]
    for ctx_text, text, _ in cases:
        ctx = C(ctx_text)
        a = P(text)
        ty = infer_type(CC, ctx, a)
        got = translate_type(TransEnv(ctx), a)
        check_type(FOMEGA, translate_context(ctx), got, erase_kind(ty))


def test_conversion_preservation():
    # beta-equal constructors translate to beta-equal types
    ctx = C("A : *")
    a1 = P(r"(\B:*. B -> B) A")
    a2 = P("A -> A")
    t1 = translate_type(TransEnv(ctx), a1)
    t2 = translate_type(TransEnv(ctx), a2)
    assert beta_eq(t1, t2) is True
    assert t1 != t2  # genuinely needed a reduction


# ---------------------------------------------------------------------------
# Reduction preservation


def test_simulation_beta_step():
    entries = check_reduction_preservation(C("A : *\na : A"), P(r"(\x:A. x) a"))
    assert entries and all(e.ok for e in entries)


def test_simulation_annotation_step():
    entries = check_reduction_preservation(C("A : *\na : A"), P(r"\y:(\B:*. B) A. a"))
    assert entries and all(e.ok for e in entries)


def test_simulation_normal_form_is_vacuous():
    assert check_reduction_preservation(C("A : *"), Var("A")) == []


def test_simulation_type_level_step():
    entries = check_reduction_preservation(C("B : *"), P(r"(\F:* -> *. F B) (\A:*. A -> A)"))
    assert entries and all(e.ok for e in entries)


# ---------------------------------------------------------------------------
# Substitution lemmas


def test_subst_lemma_variable_clause():
    ctx = C("A : *\nX : *")
    entries = check_subst_lemmas(ctx, Var("X"), "X", Var("A"))
    assert all(e.ok for e in entries)


def test_subst_lemma_no_occurrence():
    ctx = C("A : *\nX : *")
    entries = check_subst_lemmas(ctx, P("A -> A"), "X", Var("A"))
    assert all(e.ok for e in entries)


def test_subst_lemma_with_redex_replacement():
    ctx = C("A : *\nN : *\nX : *")
    entries = check_subst_lemmas(ctx, P("X -> X"), "X", P(r"(\y:*. y) N"))
    assert all(e.ok for e in entries)


def test_subst_lemma_term_binding():
    ctx = C("A : *\nP : A -> *\nc : A\ny : A\nh : (x:A) -> P x")
    entries = check_subst_lemmas(ctx, P("h y"), "y", Var("c"))
    assert all(e.ok for e in entries)


def test_subst_lemma_rejects_bad_hypotheses():
    ctx = C("A : *\nX : *")
    entries = check_subst_lemmas(ctx, Var("X"), "nope", Var("A"))
    assert not entries[0].ok
    entries = check_subst_lemmas(ctx, Var("X"), "X", Var("X"))
    assert not entries[0].ok


def test_subst_lemma_rejects_ill_typed_subject():
    # messages recorded before the translation stopped calling the type checker
    ctx = C("A : *\nX : *\nx : X\nN : *")
    cases = [
        ("x x", "NotAFunction: x has type X, which is not a function type"),
        ("X A", "NotAFunction: X has type *, which is not a function type"),
    ]
    for text, message in cases:
        entries = check_subst_lemmas(ctx, P(text), "X", Var("A"))
        assert render_report(entries) == f"FAIL subst-hypotheses {message}"


def test_subst_lemmas_scan_the_context_once(monkeypatch):
    from ptskit import translate

    scanned = []
    original = translate._check_context
    monkeypatch.setattr(translate, "_check_context", lambda ctx: scanned.append(ctx) or original(ctx))
    ctx = C("A : *\nP : A -> *\nX : *")
    entries = check_subst_lemmas(ctx, P("X -> X"), "X", Var("A"))
    # seven translations in one environment
    assert render_report(entries) == "PASS subst-hypotheses [A/X]\nPASS type-subst [A/X]X -> X\nPASS term-subst [A/X]X -> X"
    assert scanned == [ctx]
    # a context that binds a reserved name fails each translation alike
    del scanned[:]
    ctx = parse_context("_q : *\nA : *\nX : *", allow_reserved=True)
    entries = check_subst_lemmas(ctx, P("X -> X"), "X", Var("A"))
    assert render_report(entries).splitlines() == [
        "PASS subst-hypotheses [A/X]",
        "FAIL type-subst context binds reserved name '_q'",
        "FAIL term-subst context binds reserved name '_q'",
    ]
    assert scanned == [ctx]


def test_substitution_order_is_immaterial():
    # the two replacements in the product clause target distinct names,
    # so applying them in either order gives the same translated term
    from ptskit.syntax import subst
    from ptskit.translate import W_PREFIX

    ctx = C("A : *\nX : *")
    a = P(r"\v:X. v")
    b = Var("A")
    base = translate_term(TransEnv(ctx), a)
    tb_type = translate_type(TransEnv(ctx), b)
    tb_term = translate_term(TransEnv(ctx), b)
    one = subst(subst(base, W_PREFIX + "X", tb_term), "X", tb_type)
    two = subst(subst(base, "X", tb_type), W_PREFIX + "X", tb_term)
    assert one == two


def test_generated_subst_instances():
    for ctx, a, x, b in subst_instances(seed=5, count=20):
        entries = check_subst_lemmas(ctx, a, x, b)
        assert entries and all(e.ok for e in entries), render_report(entries)


# ---------------------------------------------------------------------------
# Generated corpus soundness


def test_translation_sound_on_generated_terms():
    ctx = typed_pool_context()
    for t in typed_terms(seed=21, count=40):
        entries = check_translation(ctx, t)
        assert entries and all(e.ok for e in entries), render_report(entries)
