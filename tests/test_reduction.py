import os
import random

import pytest

from ptskit.corpus import load_corpus_dir
from ptskit.syntax import App, BVar, Lam, Pair, Proj1, Proj2, Var, parse_expr, print_expr, size
from ptskit.reduction import (
    UNDETERMINED,
    FuelExhausted,
    _Budget,
    beta_eq,
    enumerate_steps,
    key_redex_of,
    leftmost_step,
    normalize,
    reachable,
    reduce_key_redex,
    reducts_within,
    step_all,
    trace,
    whnf,
)

from generators import typed_terms, untyped_term
from metatheory import is_base, joinable, key_redex_path
from conversion_oracle import agrees_with_reference, reference_beta_eq, reference_nf


def P(text):
    return parse_expr(text, sigma_enabled=True)


# ---------------------------------------------------------------------------
# step_all


def test_step_all_single_beta():
    assert step_all(P(r"(\x:*. x) y")) == {Var("y")}


def test_step_all_two_positions():
    # hand enumeration: the root beta and the argument-internal beta
    e = P(r"(\x:*. f x x) ((\z:*. z) w)")
    assert step_all(e) == {P(r"f ((\z:*. z) w) ((\z:*. z) w)"), P(r"(\x:*. f x x) w")}
    assert len(enumerate_steps(e)) == 2


def test_step_all_alpha_deduplicates():
    # both positions of this classic example yield alpha-equal reducts,
    # so the two expected displays name one and the same element
    e = P(r"(\x:*. x) ((\z:*. z) w)")
    assert step_all(e) == {P(r"(\z:*. z) w"), P(r"(\x:*. x) w")}
    assert len(step_all(e)) == 1
    assert len(enumerate_steps(e)) == 2


def test_step_all_inside_annotations():
    e = P(r"\x:(\z:*. z) w. x")
    assert step_all(e) == {P(r"\x:w. x")}
    pi = P(r"((\z:*. z) w) -> y")
    assert step_all(pi) == {P("w -> y")}


def test_step_all_projections():
    assert step_all(P("(<a, b> : Sig x:A. B).1")) == {Var("a")}
    assert step_all(P("(<a, b> : Sig x:A. B).2")) == {Var("b")}
    # reducts inside pair components are included, the annotation is inert
    e = Pair(P(r"(\x:*. x) a"), Var("b"), P("Sig x:A. B"))
    assert step_all(e) == {Pair(Var("a"), Var("b"), P("Sig x:A. B"))}


def preorder(e):
    """The nodes of ``e`` in preorder as (class, leaf values), without recursion."""
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        out.append((type(n), *[getattr(n, f) for f, binders in n._fields if binders is None and f != "hint"]))
        todo.extend(getattr(n, f) for f, _ in reversed(n._children))
    return out


def test_step_all_under_600_levels():
    # the reducts go into a set, so this also hashes 600-level terms; they
    # are built directly, since the parser nests deeper than the walks do,
    # and compared by preorder too, which does not rely on ``==``
    star, a = P("*"), Var("a")

    def spine(head):
        for _ in range(600):
            head = App(head, a)
        return head

    def nest(body):
        for _ in range(600):
            body = Lam("x", star, body)
        return body

    redex = App(Lam("y", star, BVar(0)), a)
    for wrap in (spine, nest):
        (reduct,) = step_all(wrap(redex))
        assert preorder(reduct) == preorder(wrap(a))
        assert reduct == wrap(a)


def test_reachable_finds_a_target_600_levels_deep():
    # the search meets its target as an equal, distinct term
    def spine(e):
        for _ in range(600):
            e = App(Var("f"), e)
        return e

    redex = App(Lam("x", P("*"), BVar(0)), Var("y"))
    assert reachable(spine(redex), spine(Var("y")), 1)
    assert not reachable(spine(redex), spine(Var("z")), 1)


def test_step_all_of_normal_form_is_empty():
    for text in ["x", "x a b", "(x:*) -> x", r"\x:*. x", "*"]:
        assert step_all(P(text)) == set()


# ---------------------------------------------------------------------------
# normalize / whnf / beta_eq


def test_normalize_examples():
    assert normalize(P(r"(\x:*. x) y"), 10) == Var("y")
    assert normalize(P(r"(\A:*. \x:A. x) N M"), 10) == Var("M")
    e = P("(x:*) -> x")
    assert normalize(e, 1) == e


def test_normalize_fuel_exhaustion_carries_last_term():
    omega = P(r"(\x:*. x x) (\x:*. x x)")
    with pytest.raises(FuelExhausted) as err:
        normalize(omega, 25)
    assert err.value.last == omega  # the self-application reproduces itself


def test_normalize_result_is_normal():
    e = P(r"(\m:N. \n:N. m n) a ((\z:*. z) b)")
    nf = normalize(e, 100)
    assert step_all(nf) == set()
    assert normalize(nf, 1) == nf


def test_whnf_exposes_pi_head():
    assert whnf(P(r"(\x:*. (y:x) -> y) N")) == P("(y:N) -> y")


def test_whnf_fuel_exhaustion():
    omega = P(r"(\x:*. x x) (\x:*. x x)")
    with pytest.raises(FuelExhausted):
        whnf(omega, 5)
    # the last term is the whole term, not the head that ran out
    with pytest.raises(FuelExhausted) as info:
        whnf(P(r"((\f:*. f) (\x:*. \y:*. x)) a b"), 1)
    assert info.value.last == P(r"(\x:*. \y:*. x) a b")


def test_normalize_with_exactly_enough_fuel():
    assert normalize(P(r"(\x:*. x) y"), 1) == Var("y")


def test_whnf_leaves_subterms_alone():
    lam = P(r"\x:*. ((\y:*. y) z)")
    assert whnf(lam) == lam
    base = P("x a b")
    assert whnf(base) == base
    inner = P(r"f ((\y:*. y) z)")
    assert whnf(inner) == inner  # argument positions are not head positions


def test_whnf_is_repeated_leftmost_steps_on_the_head_spine():
    # a head that reduces under an application ("fun...") is rebuilt around
    # its weak head normal form before the application is contracted; out of
    # fuel, the last term is the one that as many leftmost steps reach
    rng = random.Random(41)
    terms = [untyped_term(rng) for _ in range(400)]
    under_an_application = exhausted = 0
    for fuel in (2, 30):
        for e in terms:
            cur, steps = e, 0
            while steps <= fuel and (s := leftmost_step(cur)) is not None and not set(s[0].split(".")) - {"", "fun"}:
                under_an_application += s[0] != ""
                steps, cur = steps + 1, s[2]
            if steps > fuel:
                exhausted += 1
                with pytest.raises(FuelExhausted) as info:
                    whnf(e, fuel)
                assert info.value.last == trace(e, fuel)[0].terms()[-1], print_expr(e)
            else:
                assert whnf(e, fuel) == cur, print_expr(e)
    assert under_an_application > 0 and exhausted > 0


def test_beta_eq_examples():
    assert beta_eq(P(r"(\x:*. x) y"), Var("y")) is True
    assert beta_eq(Var("y"), Var("z")) is False
    assert beta_eq(P(r"(\x:*. x) y"), P(r"(\z:*. z) y")) is True


def test_beta_eq_undetermined_is_loud():
    omega = P(r"(\x:*. x x) (\x:*. x x)")
    r = beta_eq(omega, Var("y"), fuel=30)
    assert r is UNDETERMINED
    with pytest.raises(TypeError):
        bool(r)


# ---------------------------------------------------------------------------
# base expressions and key redexes


def test_is_base_examples():
    assert is_base(Var("x"))
    assert is_base(P("x a b"))
    assert not is_base(P(r"(\x:*. x) y"))
    assert is_base(P("(x a).1"))
    assert is_base(P("x.1.2"))
    assert not is_base(App(Proj1(Var("x")), Var("a")))


def test_key_redex_examples():
    r = P(r"(\x:*. x) y")
    assert key_redex_of(r) == r
    assert key_redex_of(P(r"((\x:*. x) y) z")) == r
    assert key_redex_of(P("x y")) is None
    assert key_redex_of(P(r"\x:*. (\y:*. y) z")) is None  # under a binder is not the head path


def test_reduce_key_redex_examples():
    assert reduce_key_redex(P(r"((\x:*. x) y) z")) == P("y z")
    assert reduce_key_redex(P(r"(\x:*. x) y")) == Var("y")
    assert reduce_key_redex(P(r"((\x:*. x) p).1")) == P("p.1")
    with pytest.raises(ValueError):
        reduce_key_redex(P("x y"))


def test_projection_of_pair_has_no_key_redex():
    assert key_redex_of(P("(<a, b> : Sig x:A. B).1")) is None


# ---------------------------------------------------------------------------
# reachability / joinability


def test_reachable_examples():
    a = P(r"(\x:*. x) y")
    assert reachable(a, a, 0)
    assert reachable(a, Var("y"), 1)
    assert not reachable(Var("y"), a, 6)
    assert not reachable(a, a, 5, min_steps=1)  # beta is terminating here


def test_reachable_counts_min_steps():
    a = P(r"(\x:*. x) y")
    # the only path from a to y has one step
    assert reachable(a, Var("y"), 5, min_steps=1)
    assert not reachable(a, Var("y"), 5, min_steps=2)
    assert not reachable(a, Var("y"), 1, min_steps=3)
    nested = P(r"(\x:*. x) ((\x:*. x) y)")
    assert reachable(nested, Var("y"), 5, min_steps=2)
    assert not reachable(nested, Var("y"), 5, min_steps=3)
    assert not reachable(nested, Var("y"), 1, min_steps=1)
    omega = P(r"(\x:*. x x) (\x:*. x x)")
    assert reachable(omega, omega, 1, min_steps=1)
    assert reachable(omega, omega, 3, min_steps=3)


def test_joinable_examples():
    e = P(r"(\x:*. f x x) ((\z:*. z) w)")
    b1, b2 = sorted(step_all(e), key=str)
    assert joinable(b1, b2, 3)
    assert joinable(Var("a"), Var("a"), 0)
    assert not joinable(Var("y"), Var("z"), 5)


def test_trace_records_consecutive_steps():
    t, truncated = trace(P(r"(\A:*. \x:A. x) N M"), 10)
    assert not truncated
    terms = t.terms()
    assert terms[-1] == Var("M")
    for before, (_, _, after) in zip(terms, t.steps):
        assert after in step_all(before)


def test_trace_truncation_flag():
    omega = P(r"(\x:*. x x) (\x:*. x x)")
    _, truncated = trace(omega, 7)
    assert truncated


# ---------------------------------------------------------------------------
# invariants on generated terms


def _generated(seed, count, max_size=25):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = untyped_term(rng)
        if size(t) <= max_size:
            out.append(t)
    return out


def test_key_redex_laws_on_generated_terms():
    for t in _generated(11, 150):
        kr = key_redex_of(t)
        if is_base(t):
            assert kr is None
        if kr is not None:
            assert reduce_key_redex(t) in step_all(t)


def test_key_redex_commutation_small():
    # reducing anywhere but the key redex preserves it, and the contractions commute
    checked = 0
    for t in _generated(12, 120):
        if key_redex_of(t) is None:
            continue
        key_path = key_redex_path(t)
        for path, _, reduct in enumerate_steps(t):
            if path == key_path:
                continue
            assert key_redex_of(reduct) is not None
            assert reachable(reduce_key_redex(t), reduce_key_redex(reduct), 8)
            checked += 1
    assert checked > 30


def test_normalize_deterministic_up_to_strategy():
    # random-order contraction agrees with leftmost-outermost on normalizing terms
    rng = random.Random(13)
    for t in _generated(14, 60, max_size=18):
        try:
            nf = normalize(t, 200)
        except FuelExhausted:
            continue
        cur = t
        for _ in range(300):
            steps = enumerate_steps(cur)
            if not steps:
                break
            cur = rng.choice(steps)[2]
        else:
            continue
        assert cur == nf


def test_leftmost_step_is_a_step():
    for t in _generated(15, 80):
        s = leftmost_step(t)
        if s is None:
            assert step_all(t) == set()
        else:
            assert s[2] in step_all(t)


def test_reducts_within_contains_levels():
    e = P(r"(\A:*. \x:A. x) N M")
    rs = reducts_within(e, 2)
    assert e in rs and Var("M") in rs


def _church(k):
    body = "x"
    for _ in range(k):
        body = f"f ({body})"
    return P(rf"\A:*. \f:A -> A. \x:A. {body}")


def test_church_exponentiation_normalizes():
    # 2^3 computed by instantiating a numeral at the function type
    n = "(B:*) -> (B -> B) -> B -> B"
    two = r"\B:*. \f:B -> B. \x:B. f (f x)"
    three = r"\B:*. \f:B -> B. \x:B. f (f (f x))"
    exp = rf"\m:{n}. \n:{n}. \A:*. n (A -> A) (m A)"
    t = P(f"({exp}) ({two}) ({three})")
    assert normalize(t, 10000) == _church(8)


# ---------------------------------------------------------------------------
# single-pass normalize against the leftmost_step loop it replaced


def _reference_normalize(e, fuel):
    """Repeated leftmost_step from the root: the oracle for normalize."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    cur = e
    for _ in range(fuel):
        s = leftmost_step(cur)
        if s is None:
            return cur
        cur = s[2]
    if leftmost_step(cur) is None:
        return cur
    raise FuelExhausted(cur)


def _outcome(norm, e, fuel):
    try:
        return "normal", norm(e, fuel)
    except FuelExhausted as err:
        return "exhausted", err.last


def _assert_matches_reference(e, max_steps=40):
    """Same normal form or same FuelExhausted.last at every fuel up to steps + 1."""
    steps, cur = 0, e
    while steps < max_steps and (s := leftmost_step(cur)) is not None:
        steps, cur = steps + 1, s[2]
    for fuel in range(1, steps + 2):
        kind, got = _outcome(normalize, e, fuel)
        want_kind, want = _outcome(_reference_normalize, e, fuel)
        assert kind == want_kind, (print_expr(e), fuel)
        # == ignores binder hints; the printed form compares them too
        assert got == want and print_expr(got) == print_expr(want), (print_expr(e), fuel)


def test_normalize_matches_reference_on_generated_terms():
    rng = random.Random(21)
    untyped = [untyped_term(rng, budget=40) for _ in range(1000)]
    for t in untyped + typed_terms(22, 300, budget=30, max_size=40):
        _assert_matches_reference(t)


def test_normalize_matches_reference_on_corpora():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
    checked = 0
    for name, sigma in (("cc", False), ("sigma", True)):
        for j in load_corpus_dir(os.path.join(root, name), sigma):
            exprs = [j.term] + [ty for _, ty in j.ctx] + ([j.ty] if j.ty is not None else [])
            for e in exprs:
                _assert_matches_reference(e)
                checked += 1
    assert checked > 100


def test_normalize_matches_reference_on_edge_cases():
    omega = P(r"(\x:*. x x) (\x:*. x x)")
    # the annotation of a pair is never reduced, by either strategy
    annot_redex = Pair(P(r"(\y:*. y) a"), Var("b"), P(r"(\T:*. Sig x:T. T) A"))
    neutral = P(r"f ((\y:*. y) a) ((\y:*. y) b)")
    for e in [
        omega,
        annot_redex,
        Proj1(neutral),
        Proj2(neutral),
        P(r"((\p:*. p) (<(\y:*. y) a, b> : Sig x:A. A)).2"),
        P(r"(\x:(\T:*. T) A. (\y:*. y) x) ((\z:*. z) w)"),
    ]:
        _assert_matches_reference(e)
    assert normalize(annot_redex).annot is annot_redex.annot


def test_normalize_returns_unchanged_subterms_as_is():
    nf = P(r"\x:A. f x (g x)")
    assert normalize(nf) is nf
    e = P(r"f ((\y:*. y) a) (g b)")
    assert normalize(e).arg is e.arg


def _church_value(e):
    r"""k for the Church numeral \A. \f. \x. f (... (f x)); iterative, unlike ==."""
    assert isinstance(e, Lam) and isinstance(e.body, Lam) and isinstance(e.body.body, Lam)
    body, k = e.body.body.body, 0
    while isinstance(body, App) and body.fun == BVar(1):
        body, k = body.arg, k + 1
    assert body == BVar(0)
    return k


def _mult(n):
    nat = "(A:*) -> (A -> A) -> A -> A"
    c = r"\A:*. \f:A -> A. \x:A. " + "f (" * n + "x" + ")" * n
    return P(rf"(\m:{nat}. \n:{nat}. \A:*. \f:A -> A. m A (n A f)) ({c}) ({c})")


def test_normalize_deep_church_product():
    assert _church_value(normalize(_mult(25))) == 625


def test_normalize_reaches_every_product_the_reference_does():
    # the single pass must not lower the recursion ceiling of the loop it replaced
    ceiling = None
    for n in range(20, 41):
        t = _mult(n)
        try:
            want = _church_value(_reference_normalize(t, 10**5))
        except RecursionError:
            ceiling = n
            break
        assert _church_value(normalize(t, 10**5)) == want == n * n
    assert ceiling is not None


# ---------------------------------------------------------------------------
# normalization by evaluation against the substituting _nf


def _spy(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_normalize_evaluates_core_terms_without_substitution(monkeypatch):
    # without this guard the evaluator could silently stop being taken
    from ptskit import reduction, syntax

    instantiated = _spy(monkeypatch, syntax, "instantiate")
    substituted = _spy(monkeypatch, reduction, "_nf")
    assert _church_value(normalize(_mult(10))) == 100
    assert instantiated == substituted == []


def test_beta_eq_does_not_replay_an_exhausted_evaluation(monkeypatch):
    # beta_eq never reads FuelExhausted.last, so it need not be rebuilt
    from ptskit import reduction

    substituted = _spy(monkeypatch, reduction, "_nf")
    assert beta_eq(_mult(10), _church(100), fuel=33) is UNDETERMINED
    assert beta_eq(_mult(10), _church(100), fuel=34) is True
    assert beta_eq(_mult(10), _church(99), fuel=34) is False
    assert substituted == []


def test_church_product_takes_3n_plus_4_contractions():
    for n in (10, 20, 30):
        t = _mult(n)
        assert _church_value(normalize(t, 3 * n + 4)) == n * n
        with pytest.raises(FuelExhausted) as err:
            normalize(t, 3 * n + 3)
        assert _outcome(_reference_normalize, t, 3 * n + 3) == ("exhausted", err.value.last)


def test_normalize_leaves_labeled_and_sigma_terms_to_substitution(monkeypatch):
    from ptskit import reduction
    from ptskit.labeled import label_term
    from ptskit.syntax import CC, Context

    nf = reduction._nf
    substituted = _spy(monkeypatch, reduction, "_nf")
    terms = [
        label_term(CC, Context(), _mult(2)),
        # the evaluator contracts once, then meets the projection
        P(r"(\p:*. p.2) (<(\y:*. y) a, (\y:*. y) b> : Sig x:A. A)"),
        Pair(P(r"(\x:*. x x) (\x:*. x x)"), Var("b"), P("Sig x:A. A")),
    ]
    for e in terms:
        for fuel in range(1, 12):
            del substituted[:]
            kind, got = _outcome(normalize, e, fuel)
            assert substituted and substituted[0][0] is e
            want_kind, want = _outcome(lambda e, fuel: nf(e, _Budget(fuel)), e, fuel)
            assert kind == want_kind and got == want and print_expr(got) == print_expr(want), (print_expr(e), fuel)


def _open_terms():
    """Generated terms with dangling indices: untyped terms with pool names
    turned into the indices 0 and 1, and the bodies of the lambdas among
    them, which the typing walks meet under their binders."""
    from ptskit.syntax import close_binder

    out = [App(Lam("x", P("*"), App(BVar(0), BVar(1))), P(r"\y:*. (\z:*. z) y"))]  # index 1 dangles
    for seed in range(40):
        t = close_binder(close_binder(untyped_term(random.Random(seed), 16), "a"), "f", 1)
        out.append(t)
        while isinstance(t, (Lam, App)):
            t = t.body if isinstance(t, Lam) else t.fun
            if isinstance(t, Lam):
                out.append(t.body)
    return [t for t in out if t._loose]


def test_open_terms_evaluate_as_substitution_normalizes_them(monkeypatch):
    # the typing walks convert types with dangling indices; they stay off _nf
    # when the evaluator succeeds, and agree with it at every fuel
    from ptskit import reduction

    nf = reduction._nf
    substituted = _spy(monkeypatch, reduction, "_nf")

    terms = _open_terms()
    assert len(terms) > 40 and max(t._loose for t in terms) >= 2
    checked = 0
    for e, other in zip(terms, terms[1:] + terms[:1]):
        budget = _Budget(200)
        try:
            want = nf(e, budget)
        except FuelExhausted:
            continue  # no normal form within 200 contractions
        needed = 200 - budget.left
        del substituted[:]
        assert normalize(e, needed + 1) == want and print_expr(normalize(e, needed + 1)) == print_expr(want)
        assert substituted == []
        for fuel in range(1, needed + 1):
            got, expected = _outcome(normalize, e, fuel), _outcome(lambda e, fuel: nf(e, _Budget(fuel)), e, fuel)
            assert got == expected and print_expr(got[1]) == print_expr(expected[1]), (print_expr(e), fuel)
            for b in (want, other):
                assert agrees_with_reference(e, b, fuel, 1000), (print_expr(e), print_expr(b), fuel)
        checked += needed > 0
    assert checked > 20


# ---------------------------------------------------------------------------
# Lazy conversion against normalizing both sides (tests/conversion_oracle.py)


def _reference_fuel(a, b, cap):
    """The least fuel at which the reference decides ``a`` against ``b``, None above ``cap``."""
    for fuel in range(1, cap + 1):
        if reference_beta_eq(a, b, fuel) is not UNDETERMINED:
            return fuel
    return None


def _conversion_pairs():
    """Pairs that are convertible (a term and its reducts, reducts of one
    term, a term and its normal form, a reduct's type and the term's type)
    and pairs that mostly are not (neighbouring terms, ``T`` and ``T -> T``),
    over untyped and well-typed generated terms and the open terms above."""
    from ptskit.syntax import CC, Pi
    from ptskit.typecheck import infer_type
    from generators import typed_pool_context

    def related(t, u):
        reducts = sorted(step_all(t), key=print_expr)[:2]
        out = [(t, u)] + [(t, r) for r in reducts] + [tuple(reducts)] * (len(reducts) == 2)
        try:
            out.append((t, normalize(t, 200)))
        except FuelExhausted:
            pass
        return out

    rng = random.Random(33)
    untyped = [untyped_term(rng, 24) for _ in range(250)]
    opened = _open_terms()
    pairs = []
    for terms in (untyped, opened):
        for t, u in zip(terms, terms[1:] + terms[:1]):
            pairs += related(t, u)
    ctx = typed_pool_context()
    typed = typed_terms(34, 120)
    for t, u in zip(typed, typed[1:] + typed[:1]):
        ty = infer_type(CC, ctx, t)
        pairs += related(t, u) + [(ty, Pi("_", ty, ty)), (ty, infer_type(CC, ctx, u))]
        pairs += [(infer_type(CC, ctx, r), ty) for r in sorted(step_all(t), key=print_expr)[:2]]
    return pairs


def test_lazy_conversion_agrees_with_normalizing_both_sides():
    decided = {True: 0, False: 0}
    earlier = 0  # pairs lazy conversion decides at a fuel the reference does not
    for a, b in _conversion_pairs():
        need = _reference_fuel(a, b, 60)
        if need is None:
            continue
        want = reference_beta_eq(a, b, need)
        decided[want] += 1
        for fuel in range(1, need + 2):
            assert agrees_with_reference(a, b, fuel, need), (print_expr(a), print_expr(b), fuel)
        earlier += need > 1 and beta_eq(a, b, need - 1) is not UNDETERMINED
    assert decided[True] > 500 and decided[False] > 500 and earlier > 50, (decided, earlier)


def test_lazy_conversion_decides_distinct_heads_without_normal_forms():
    omega = P(r"(\x:*. x x) (\x:*. x x)")
    assert beta_eq(omega, Var("y"), 30) is UNDETERMINED  # a side that never reaches a head
    assert beta_eq(App(Var("f"), omega), App(Var("g"), omega), 1) is False
    assert beta_eq(App(Var("f"), omega), App(App(Var("f"), omega), Var("y")), 1) is False  # spine lengths
    assert beta_eq(P(r"\x:*. x"), P(r"(A:*) -> A"), 1) is False  # binder classes
    assert beta_eq(App(Var("f"), omega), App(Var("f"), Var("y")), 30) is UNDETERMINED
    # arguments are compared left to right, as normal order reads them back
    assert beta_eq(P(r"f a ((\x:*. x x) (\x:*. x x)) c"), P(r"f b ((\x:*. x x) (\x:*. x x)) c"), 30) is False
    assert beta_eq(P(r"f ((\x:*. x x) (\x:*. x x)) a c"), P(r"f ((\x:*. x x) (\x:*. x x)) b c"), 30) is UNDETERMINED
    # each side has the whole fuel: two contractions on the left, one on the right
    two, one = P(r"(\x:*. x) ((\x:*. x) (f a))"), P(r"(\x:*. x) (f a)")
    assert beta_eq(two, one, 2) is True and beta_eq(two, one, 1) is UNDETERMINED
    assert reference_beta_eq(two, one, 2) is True


def test_lazy_conversion_is_no_shallower_than_normalizing():
    def spine(n, leaf):
        e = Var(leaf)
        for _ in range(n):
            e = App(Var("f"), e)
        return e

    # normalizing both sides reads an argument spine back one frame per level
    # and stops near 990 levels; lazy conversion follows the last argument in a loop
    for depth in (990, 5000):
        x, y = spine(depth, "x"), spine(depth, "y")
        redex = App(P(r"\z:*. z"), x)
        assert (beta_eq(x, y), beta_eq(redex, x), beta_eq(x, redex)) == (False, True, True)


# ---------------------------------------------------------------------------
# _nf, weak head reduction followed by the parts, against the substituting
# normalizer with its own head loop (tests/conversion_oracle.py)


def _nf_at(e, fuel):
    from ptskit import reduction

    return reduction._nf(e, _Budget(fuel))


def _assert_nf_matches_reference(e, fuels=range(1, 12)):
    """``_nf`` and ``normalize`` reach the reference's normal form, or its
    ``FuelExhausted.last``, at every fuel; returns the pairs compared."""
    for fuel in fuels:
        want = _outcome(lambda e, fuel: reference_nf(e, _Budget(fuel)), e, fuel)
        for norm in (_nf_at, normalize):
            got = _outcome(norm, e, fuel)
            assert got[0] == want[0] and got[1] == want[1], (print_expr(e), fuel, norm.__name__)
            assert print_expr(got[1]) == print_expr(want[1]), (print_expr(e), fuel, norm.__name__)
    return len(fuels)


def test_nf_matches_the_reference_on_labeled_terms_and_their_tight_reducts():
    # reducts that step inside an application's labels but not its lambda's
    # block a tight-beta until the labels are normal
    from ptskit.labeled import label_term, tight_step_all
    from ptskit.syntax import CC
    from generators import typed_pool_context

    ctx, checked = typed_pool_context(), 0
    for t in typed_terms(7, 600):
        labeled = label_term(CC, ctx, t)
        for e in [labeled, *sorted(tight_step_all(labeled), key=print_expr)]:
            checked += _assert_nf_matches_reference(e)
    assert checked > 15000


def test_nf_matches_the_reference_on_plain_and_sigma_terms():
    # below the fuel a plain term needs, normalize replays it through _nf
    exprs = typed_terms(7, 600)
    root = os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "sigma")
    for j in load_corpus_dir(root, True):
        exprs += [j.term] + [ty for _, ty in j.ctx] + ([j.ty] if j.ty is not None else [])
    assert sum(map(_assert_nf_matches_reference, exprs)) > 7000


_LABEL = r"((\[X : * -> *] X : * . X) @[X : * -> *] A)"  # (\X:*. X) A, labeled
_ID = r"(\[u : A -> A] u : A . u)"


def test_nf_reduces_a_stuck_head_before_the_labels():
    from ptskit.syntax import parse_labeled

    e = parse_labeled(rf"(g @[x : A -> A] ((\[y : A -> A] y : A . y) @[y : A -> A] a)) @[z : {_LABEL} -> A] b")
    with pytest.raises(FuelExhausted) as err:
        _nf_at(e, 1)
    assert print_expr(err.value.last) == rf"g @[x : A -> A] a @[z : {_LABEL[1:-1]} -> A] b"
    assert print_expr(_nf_at(e, 2)) == "g @[x : A -> A] a @[z : A -> A] b"
    _assert_nf_matches_reference(e)


def test_nf_fires_a_tight_beta_once_its_labels_are_normal():
    from ptskit.syntax import parse_labeled

    e = parse_labeled(rf"(\[y : A -> A] y : A . y) @[y : {_LABEL} -> A] a")
    with pytest.raises(FuelExhausted) as err:
        _nf_at(e, 1)
    assert print_expr(err.value.last) == r"(\[y : A -> A] y : A . y) @[y : A -> A] a"
    assert print_expr(_nf_at(e, 2)) == "a"
    _assert_nf_matches_reference(e)


def test_nf_fires_the_parent_of_an_unblocked_head_before_the_contractum_parts():
    # the inner tight-beta fires once its label is normal, to a lambda whose
    # body holds the redex the substitution made; the outer application fires
    # on that lambda next, as in leftmost-outermost order, and only then the
    # redex in its body. Normalizing the lambda first would change .last
    from ptskit.syntax import parse_labeled

    fun = r"(\[y : A -> ((w : A) -> A)] y : A . (\[z : A -> A] z : A . (y @[u : A -> A] z)))"
    inner = rf"({fun} @[y : {_LABEL} -> ((w : A) -> A)] {_ID})"
    lasts = [
        r"(\[y : A -> A -> A] y : A . \[z : A -> A] z : A . y @[u : A -> A] z) @[y : A -> A -> A] (\[u : A -> A] u : A . u) @[z : A -> A] b",
        r"(\[z : A -> A] z : A . (\[u : A -> A] u : A . u) @[u : A -> A] z) @[z : A -> A] b",
        r"(\[u : A -> A] u : A . u) @[u : A -> A] b",
    ]
    for text, prefix in ((rf"{inner} @[z : A -> A] b", ""), (rf"h @[v : A -> A] ({inner} @[z : A -> A] b)", "h @[v : A -> A] ")):
        e = parse_labeled(text)
        for fuel, last in enumerate(lasts, start=1):
            with pytest.raises(FuelExhausted) as err:
                _nf_at(e, fuel)
            assert print_expr(err.value.last) == (f"{prefix}({last})" if prefix else last)
        assert print_expr(_nf_at(e, 4)) == f"{prefix}b"
        _assert_nf_matches_reference(e)
    # a parent whose labels still block it normalizes them first, then fires;
    # a head that fires to a stuck application is normalized before the rest
    stuck = rf"(\[y : (A -> A) -> A] y : (A -> A) . (g @[x : A -> A] (y @[u : A -> A] a))) @[y : ((w : {_LABEL}) -> A) -> A] {_ID}"
    for text in (rf"({inner} @[z : {_LABEL} -> A] b) @[q : A -> A] c", rf"({stuck}) @[z : A -> A] ({_ID} @[u : A -> A] b)"):
        _assert_nf_matches_reference(parse_labeled(text))


def test_nf_reduces_each_node_of_a_spine_once(monkeypatch):
    # _whnf leaves the head chain weak head normal: reducing each head again
    # would walk the spine once per argument, 81,401 _whnf calls here
    from ptskit import reduction
    from ptskit.syntax import SortE

    r = App(Lam("y", SortE("*"), BVar(0)), Var("a"))
    e, want = Var("f"), Var("f")
    for _ in range(400):
        e, want = App(e, r), App(want, Var("a"))
    calls = _spy(monkeypatch, reduction, "_whnf")
    assert reduction._nf(e, _Budget()) == want
    assert 0 < len(calls) <= size(e) == 2401


def test_nf_takes_one_frame_per_level_at_the_default_recursion_limit():
    # the ceilings are ~993 on each shape; a frame per level more would halve them
    from test_delayed_types import _probe

    _probe(
        900,
        "from ptskit.reduction import _Budget, _nf\n"
        "r, a = App(Lam('y', SortE('*'), BVar(0)), Var('a')), Var('a')\n"
        "shapes = [(Var('f'), Var('f')), (r, a), (r, a)]\n"
        "for i in range(d):\n"
        "    (l, nl), (s, ns), (n, nn) = shapes\n"
        "    shapes = [(App(l, r), App(nl, a)), (App(Var('f'), s), App(Var('f'), ns)), (Lam(f'x{i}', Var('A'), n), Lam(f'x{i}', Var('A'), nn))]\n"
        "assert all(_nf(e, _Budget()) == want for e, want in shapes)",
    )
