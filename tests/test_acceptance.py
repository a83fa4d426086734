"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from ptskit.syntax import (
    App,
    BOX,
    CC,
    Context,
    FOMEGA,
    STAR,
    STLC,
    SYSTEM_F,
    SortE,
    Var,
    parse_context,
    parse_expr,
    print_expr,
    size,
)
from ptskit.reduction import (
    DEFAULT_FUEL,
    FuelExhausted,
    beta_eq,
    enumerate_steps,
    is_base,
    joinable,
    key_redex_of,
    key_redex_path,
    normalize,
    reachable,
    reduce_key_redex,
    reducts_within,
    step_all,
)
from ptskit.typecheck import (
    ErrorKind,
    TypeCheckError,
    check_type,
    infer_type,
    wf_context,
)
from ptskit.translate import (
    TransEnv,
    check_subst_lemmas,
    check_translation,
    translate_term,
    translate_type,
)
from ptskit.labeled import (
    LApp,
    LLam,
    LPi,
    erase,
    label_of,
    label_term,
    tight_step_all,
)
from ptskit.corpus import judgement_uses_sigma, load_corpus_dir

from generators import subst_instances, typed_terms, untyped_term

CCS = CC.with_sigma()


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if elapsed >= budget_seconds:
            raise AssertionError(f"took {elapsed:.1f}s, budget {budget_seconds}s")
    except BaseException:
        print(f"FAIL criterion {number:2d}: {name}")
        raise
    print(f"PASS criterion {number:2d}: {name} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def cc_corpus():
    return load_corpus_dir("corpus/cc")


@pytest.fixture(scope="module")
def sigma_corpus():
    return load_corpus_dir("corpus/sigma", sigma_enabled=True)


# ---------------------------------------------------------------------------


def test_criterion_1_builtin_spec_fidelity():
    with criterion(1, "built-in spec fidelity", 5):
        star, box = STAR, BOX
        sorts = frozenset({star, box})
        axioms = frozenset({(star, box)})
        assert (STLC.sorts, STLC.axioms) == (sorts, axioms)
        assert STLC.rules == frozenset({(star, star, star)})
        assert (SYSTEM_F.sorts, SYSTEM_F.axioms) == (sorts, axioms)
        assert SYSTEM_F.rules == frozenset({(star, star, star), (box, star, star)})
        assert (FOMEGA.sorts, FOMEGA.axioms) == (sorts, axioms)
        assert FOMEGA.rules == frozenset(
            {(star, star, star), (box, star, star), (box, box, box)}
        )
        assert (CC.sorts, CC.axioms) == (sorts, axioms)
        assert CC.rules == frozenset(
            {(star, star, star), (box, star, star), (box, box, box), (star, box, box)}
        )


_NEGATIVE_CASES = [
    # (spec, context text, term text, expected error kind)
    (STLC, "", "(A:*) -> A -> A", ErrorKind.NO_RULE),
    (STLC, "", r"\A:*. \x:A. x", ErrorKind.NO_RULE),
    (STLC, "", r"\x:*. x", ErrorKind.NO_RULE),
    (SYSTEM_F, "", r"\F:* -> *. F", ErrorKind.NO_RULE),
    (SYSTEM_F, "", "* -> *", ErrorKind.NO_RULE),
    (FOMEGA, "A : *", "(x:A) -> *", ErrorKind.NO_RULE),
    (FOMEGA, "A : *", r"\x:A. A", ErrorKind.NO_RULE),
    (CC, "", "#", ErrorKind.NO_AXIOM),
    (CC, "", "x", ErrorKind.UNBOUND_VARIABLE),
    (CC, "A : *", "A A", ErrorKind.NOT_A_FUNCTION),
    (CC, "A : *\nx : A", r"(\y:A -> A. y) x", ErrorKind.MISMATCH),
]


def test_criterion_2_typing_corpus(cc_corpus, sigma_corpus):
    with criterion(2, "typing corpus, positive and negative", 5):
        assert len(cc_corpus) >= 30
        for j in cc_corpus:
            assert j.ty is not None, j.name
            wf_context(CC, j.ctx)
            check_type(CC, j.ctx, j.term, j.ty)
        for j in sigma_corpus:
            wf_context(CCS, j.ctx)
            check_type(CCS, j.ctx, j.term, j.ty)
        assert len(_NEGATIVE_CASES) >= 10
        for spec, ctx_text, term_text, expected in _NEGATIVE_CASES:
            ctx = parse_context(ctx_text)
            with pytest.raises(TypeCheckError) as err:
                infer_type(spec, ctx, parse_expr(term_text))
            assert err.value.kind is expected, (term_text, err.value.kind)


def test_criterion_3_preservation(cc_corpus, sigma_corpus):
    with criterion(3, "preservation over the depth-3 reduct closure", 30):
        for spec, corpus in ((CC, cc_corpus), (CCS, sigma_corpus)):
            for j in corpus:
                original = infer_type(spec, j.ctx, j.term)
                for reduct in reducts_within(j.term, 3) - {j.term}:
                    reduct_ty = infer_type(spec, j.ctx, reduct)
                    assert beta_eq(reduct_ty, original) is True, (
                        f"{j.name}: {print_expr(reduct)}"
                    )


def test_criterion_4_confluence_at_desk_scale():
    with criterion(4, "confluence on 500 generated well-typed terms", 60):
        terms = typed_terms(seed=101, count=500, max_size=25)
        assert len(terms) == 500
        assert all(size(t) <= 25 for t in terms)
        divergent_pairs = 0
        for t in terms:
            reducts = sorted(step_all(t), key=print_expr)
            for b1, b2 in itertools.combinations(reducts, 2):
                assert joinable(b1, b2, 12), print_expr(t)
                divergent_pairs += 1
        assert divergent_pairs >= 100  # the sample genuinely diverges


def test_criterion_5_classification_trichotomy(cc_corpus, sigma_corpus):
    with criterion(5, "classification trichotomy", 5):
        box, star = SortE(BOX), SortE(STAR)
        for spec, corpus in ((CC, cc_corpus), (CCS, sigma_corpus)):
            for j in corpus:
                ty = infer_type(spec, j.ctx, j.term)
                # evaluate the three defining conditions independently
                is_kind = normalize(ty) == box
                constructor = term = False
                try:
                    sort_of_ty = normalize(infer_type(spec, j.ctx, ty))
                    constructor = sort_of_ty == box
                    term = sort_of_ty == star
                except TypeCheckError:
                    pass
                assert [is_kind, constructor, term].count(True) == 1, j.name


def test_criterion_6_translation_soundness(cc_corpus):
    with criterion(6, "translation soundness on the full corpus", 30):
        for j in cc_corpus:
            entries = check_translation(j.ctx, j.term)
            assert entries and all(e.ok for e in entries), (
                j.name,
                [e.line() for e in entries if not e.ok],
            )
        # the worked shapes, alpha-exact
        got = translate_type(TransEnv(Context()), parse_expr("(x:*) -> x -> x"))
        assert got == parse_expr("(x:*) -> _0 -> x -> x", allow_reserved=True)
        ctx = parse_context("F : (x:*) -> x -> x\nA : *")
        lhs = translate_term(TransEnv(ctx), parse_expr("F A"))
        rhs = App(
            App(
                translate_term(TransEnv(ctx), Var("F")),
                translate_type(TransEnv(ctx), Var("A")),
            ),
            translate_term(TransEnv(ctx), Var("A")),
        )
        assert lhs == rhs


def test_criterion_7_strict_reduction_simulation(cc_corpus):
    with criterion(7, "one-step reducts simulated in >= 1 translated steps", 60):
        simulated = 0
        for j in cc_corpus:
            translated = translate_term(TransEnv(j.ctx), j.term)
            for reduct in step_all(j.term):
                translated_reduct = translate_term(TransEnv(j.ctx), reduct)
                assert reachable(translated, translated_reduct, 12, min_steps=1), (
                    f"{j.name}: {print_expr(reduct)}"
                )
                simulated += 1
        assert simulated >= 8  # the corpus carries real redexes


def test_criterion_8_substitution_lemmas():
    with criterion(8, "substitution lemmas on 50 generated instances", 30):
        instances = subst_instances(seed=103, count=50)
        assert len(instances) == 50
        for ctx, a, x, b in instances:
            entries = check_subst_lemmas(ctx, a, x, b)
            assert entries and all(e.ok for e in entries), (
                print_expr(a),
                x,
                print_expr(b),
                [e.line() for e in entries if not e.ok],
            )


def test_criterion_9_key_redex_laws():
    with criterion(9, "key-redex laws on 500 generated terms", 30):
        rng = random.Random(104)
        terms = []
        while len(terms) < 500:
            t = untyped_term(rng)
            if size(t) <= 25:
                terms.append(t)
        with_key = 0
        squares = 0
        for t in terms:
            key = key_redex_of(t)
            if is_base(t):
                assert key is None, print_expr(t)
            if key is None:
                continue
            with_key += 1
            contracted = reduce_key_redex(t)
            assert contracted in step_all(t), print_expr(t)
            key_pos = key_redex_path(t)
            for pos, _, reduct in enumerate_steps(t):
                if pos == key_pos:
                    continue
                assert key_redex_of(reduct) is not None, print_expr(reduct)
                assert reachable(contracted, reduce_key_redex(reduct), 8), print_expr(t)
                squares += 1
        assert with_key >= 100 and squares >= 100


def test_criterion_10_labeled_round_trip_and_simulation(cc_corpus):
    with criterion(10, "labeled round-trip, erasure simulation, label matching", 30):
        for j in cc_corpus:
            if judgement_uses_sigma(j):
                continue
            labeled = label_term(CC, j.ctx, j.term)
            assert erase(labeled) == j.term, j.name
            plain_reducts = step_all(j.term)
            for reduct in tight_step_all(labeled):
                erased = erase(reduct)
                assert erased == j.term or erased in plain_reducts, j.name
            for app, lam in _root_beta_redexes(labeled):
                assert normalize(label_of(app)) == normalize(label_of(lam)), j.name


def _root_beta_redexes(la):
    found = []
    stack = [la]
    while stack:
        node = stack.pop()
        if isinstance(node, LApp):
            if isinstance(node.fun, LLam):
                found.append((node, node.fun))
            stack += [node.dom, node.cod, node.fun, node.arg]
        elif isinstance(node, LLam):
            stack += [node.dom, node.cod, node.body]
        elif isinstance(node, LPi):
            stack += [node.dom, node.cod]
    return found


def test_criterion_11_strong_normalization_evidence(cc_corpus, sigma_corpus):
    with criterion(11, "every well-typed corpus term normalizes in default fuel", 30):
        for j in cc_corpus + sigma_corpus:
            try:
                nf = normalize(j.term, DEFAULT_FUEL)
            except FuelExhausted:
                pytest.fail(f"{j.name} did not normalize within {DEFAULT_FUEL} steps")
            assert step_all(nf) == set()
