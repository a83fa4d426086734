import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ptskit import syntax
from ptskit.labeled import label_term
from ptskit.syntax import (
    App,
    BOUND,
    BOX,
    STAR,
    BVar,
    LApp,
    LBVar,
    LLam,
    LPi,
    LSort,
    LVar,
    Lam,
    Node,
    Pair,
    ParseError,
    Pi,
    Proj1,
    Proj2,
    PtsSpec,
    Sigma,
    SortE,
    Var,
    close_binder,
    free_vars,
    open_binder,
    parse_context,
    parse_expr,
    parse_labeled,
    print_context,
    print_expr,
    print_labeled,
    subst,
    BUILTIN_SPECS,
    CC,
    FOMEGA,
    STLC,
    SYSTEM_F,
)

from generators import typed_pool_context, typed_terms, untyped_term
from metatheory import alpha_eq


def P(text, sigma=False):
    return parse_expr(text, sigma_enabled=sigma)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_lambda():
    assert P(r"\x:*. x") == Lam("x", SortE(STAR), BVar(0))


def test_parse_arrow_sugar_is_nondependent_pi():
    e = P("(x:*) -> x -> x")
    assert e == Pi("x", SortE(STAR), Pi("_", BVar(0), BVar(1)))


def test_parse_projection():
    e = parse_expr("p.1", sigma_enabled=True)
    assert e == Proj1(Var("p"))


def test_application_left_associative_binds_tighter_than_arrow():
    assert P("f a b") == App(App(Var("f"), Var("a")), Var("b"))
    assert P("A -> B -> C") == Pi("_", Var("A"), Pi("_", Var("B"), Var("C")))
    assert P("f a -> B") == Pi("_", App(Var("f"), Var("a")), Var("B"))


def test_lambda_body_extends_right():
    assert P(r"\x:*. f x") == Lam("x", SortE(STAR), App(Var("f"), BVar(0)))


def test_box_is_hash():
    assert P("#") == SortE(BOX)
    assert print_expr(SortE(BOX)) == "#"


def test_parse_errors_have_position():
    with pytest.raises(ParseError) as err:
        P("(x:*) ->")
    assert err.value.line == 1


def test_parse_error_position_tracks_lines():
    with pytest.raises(ParseError) as err:
        P("(x:*) ->\n   ??")
    assert err.value.line == 2
    assert err.value.col == 4


def test_sigma_forms_rejected_without_extension():
    for bad in ["Sig x:A. B", "<a, b> : T", "p.1"]:
        with pytest.raises(ParseError):
            P(bad)


def test_reserved_identifiers_rejected_by_default():
    with pytest.raises(ParseError):
        P("_0")
    assert parse_expr("_w$x _0", allow_reserved=True) == App(Var("_w$x"), Var("_0"))


def test_dependent_pi_argument_needs_parens():
    with pytest.raises(ParseError):
        P("f (x:A) -> B")
    assert P("f ((x:A) -> B)") == App(Var("f"), Pi("x", Var("A"), Var("B")))


def test_parse_context_lines():
    ctx = parse_context("A : *\nx : A")
    assert ctx.bindings == (("A", SortE(STAR)), ("x", Var("A")))
    assert print_context(ctx) == "A : *\nx : A"


def test_an_error_in_a_binding_type_is_placed_in_its_line():
    # one position: the line of the binding and the column in that line
    for text, line, col, message in (
        ("x:y@z", 1, 4, "unexpected trailing input '@'"),
        ("A : *\n  x :  A @", 2, 10, "unexpected trailing input '@'"),
        ("x : (", 1, 6, "expected an expression, found 'end of input'"),
    ):
        with pytest.raises(ParseError) as info:
            parse_context(text)
        assert (info.value.line, info.value.col) == (line, col), text
        assert str(info.value) == f"{line}:{col}: in binding 'x': {message}"


def test_a_malformed_binding_is_placed_at_its_first_non_blank_column():
    for text, line, col, message in (
        ("  1x : *", 1, 3, "bad binding name '1x'"),
        ("A : *\n\t Sig : *", 2, 3, "bad binding name 'Sig'"),
        ("   x", 1, 4, "expected 'name : type'"),
        ("A : *\n  : *", 2, 3, "expected 'name : type'"),
        ("1x : *", 1, 1, "bad binding name '1x'"),
    ):
        with pytest.raises(ParseError) as info:
            parse_context(text)
        assert str(info.value) == f"{line}:{col}: {message}", text


def test_binding_names_follow_the_tokenizer():
    # 'Sig' is a keyword, so no term could refer to a binding of that name
    for sigma in (False, True):
        with pytest.raises(ParseError, match=r"^2:1: bad binding name 'Sig'$"):
            parse_context("A : *\nSig : *", sigma_enabled=sigma)
    assert parse_context("Sigma : *\nSig' : *").bindings == (("Sigma", SortE(STAR)), ("Sig'", SortE(STAR)))
    with pytest.raises(ParseError, match="bad binding name '_x'"):
        parse_context("_x : *")
    assert parse_context("_x : *", allow_reserved=True).bindings == (("_x", SortE(STAR)),)


def test_parsing_passes_10000_levels_at_the_default_recursion_limit():
    # the parser keeps a stack of its own and binds names through a dict,
    # so depth costs memory, not interpreter frames, and stays linear
    src = os.path.dirname(os.path.dirname(os.path.abspath(syntax.__file__)))
    probe = """\
import sys
from ptskit.syntax import parse_expr, parse_labeled, size
d = 10_000
for parse, text, n in (
    (parse_expr, "f (" * d + "x" + ")" * d, 2 * d + 1),
    (parse_expr, r"\\A:*. " + "".join(rf"\\x{i}:A. " for i in range(d)) + "x0", 2 * d + 3),
    (parse_expr, "A -> " * d + "A", 2 * d + 1),
    (parse_expr, "(" * d + "x" + ")" * d, 1),
    (parse_labeled, "f @[y : A -> A] (" * d + "x" + ")" * d, 4 * d + 1),
    (parse_labeled, r"\\[x : A -> A] x : A . " * d + "x", 3 * d + 1),
):
    assert size(parse(text)) == n, text[:40]
print(sys.getrecursionlimit())
"""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1000"]


def test_term_queries_pass_10000_levels_at_the_default_recursion_limit():
    # free_vars, size and the sigma scan keep stacks of their own, so no
    # depth reaches the interpreter's limit
    src = os.path.dirname(os.path.dirname(os.path.abspath(syntax.__file__)))
    probe = """\
import sys
from ptskit.corpus import Judgement, judgement_uses_sigma
from ptskit.syntax import App, BVar, Context, Lam, Proj1, SortE, Var, free_vars, size
d = 10_000

def spine(t):
    for _ in range(d):
        t = App(Var("f"), t)
    return t

def nest(annot, t):
    for i in range(d):
        t = Lam(f"x{i}", annot, t)
    return t

for t, fv, n, sigma in (
    (spine(Var("x")), {"f", "x"}, 2 * d + 1, False),
    (spine(Proj1(Var("p"))), {"f", "p"}, 2 * d + 2, True),
    (nest(Var("A"), Var("a")), {"A", "a"}, 2 * d + 1, False),
    (nest(SortE("*"), BVar(d - 1)), set(), 2 * d + 1, False),
    (nest(Var("A"), Proj1(BVar(0))), {"A"}, 2 * d + 2, True),
):
    assert free_vars(t) == fv
    assert size(t) == n
    assert judgement_uses_sigma(Judgement("deep", Context(), t, None)) is sigma
    assert judgement_uses_sigma(Judgement("deep", Context((("y", t),)), Var("y"), None)) is sigma
print(sys.getrecursionlimit())
"""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1000"]


# ---------------------------------------------------------------------------
# Printing


def test_print_examples():
    assert print_expr(Lam("x", SortE(STAR), BVar(0))) == r"\x:*. x"
    assert print_expr(P("(x:*) -> x")) == "(x:*) -> x"
    assert print_expr(P(r"(\x:*. x) y")) == r"(\x:*. x) y"


def test_print_freshens_captured_hints():
    # a binder hint colliding with a free variable must be renamed
    e = Lam("y", SortE(STAR), Var("y"))
    s = print_expr(e)
    assert parse_expr(s) == e
    assert s == r"\y':*. y"


def test_parse_print_parse_fixed_point():
    texts = [
        r"\x:*. x",
        "(x:*) -> x -> x",
        r"(\A:*. \x:A. x) N M",
        "(A -> B) -> C",
        "f p.1",
        "Sig x:A. P x",
        "<a, b> : Sig x:A. B",
        r"\f:(x:A) -> P x. f a",
    ]
    for text in texts:
        e = parse_expr(text, sigma_enabled=True)
        assert parse_expr(print_expr(e), sigma_enabled=True) == e


# ---------------------------------------------------------------------------
# Substitution and binding


def test_subst_identity_on_variable():
    assert subst(Var("x"), "x", Var("b")) == Var("b")


def test_subst_shadowed_binder():
    e = Lam("x", SortE(STAR), BVar(0))
    assert subst(e, "x", Var("b")) == e


def test_subst_avoids_capture():
    # [y/x](\y:*. x) keeps the substituted y free
    e = Lam("y", SortE(STAR), Var("x"))
    got = subst(e, "x", Var("y"))
    assert got == Lam("anything", SortE(STAR), Var("y"))
    assert "y'" in print_expr(got)


def test_alpha_eq_examples():
    assert alpha_eq(P(r"\x:*. x"), P(r"\y:*. y"))
    assert not alpha_eq(P(r"\x:*. x"), P(r"\x:*. *"))
    assert alpha_eq(P("(x:*) -> x"), P("(z:*) -> z"))


def test_free_vars():
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(P(r"\x:A. x")) == {"A"}
    assert free_vars(P("(x:A) -> B x")) == {"A", "B"}


# ---------------------------------------------------------------------------
# Property tests

_names = st.sampled_from(["a", "b", "c", "x", "y"])


@st.composite
def exprs(draw, max_depth=3):
    if max_depth == 0:
        return draw(st.one_of(st.builds(Var, _names), st.just(SortE(STAR)), st.just(SortE(BOX))))
    sub = exprs(max_depth=max_depth - 1)

    def lam(name, annot, body):
        return Lam(name, annot, close_binder(body, name))

    def pi(name, dom, cod):
        return Pi(name, dom, close_binder(cod, name))

    return draw(
        st.one_of(
            st.builds(Var, _names),
            st.just(SortE(STAR)),
            st.builds(lam, _names, sub, sub),
            st.builds(pi, _names, sub, sub),
            st.builds(App, sub, sub),
        )
    )


@given(exprs())
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip(e):
    assert parse_expr(print_expr(e)) == e


@st.composite
def sigma_exprs(draw, max_depth=3):
    if max_depth == 0:
        return draw(st.one_of(st.builds(Var, _names), st.just(SortE(STAR))))
    sub = sigma_exprs(max_depth=max_depth - 1)

    def sig(name, first, second):
        from ptskit.syntax import Sigma

        return Sigma(name, first, close_binder(second, name))

    from ptskit.syntax import Pair, Proj2

    return draw(
        st.one_of(
            st.builds(Var, _names),
            st.builds(sig, _names, sub, sub),
            st.builds(Pair, sub, sub, sub),
            st.builds(Proj1, sub),
            st.builds(Proj2, sub),
            st.builds(App, sub, sub),
        )
    )


@given(sigma_exprs())
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip_with_sigma(e):
    assert parse_expr(print_expr(e), sigma_enabled=True) == e


@given(exprs(), _names)
@settings(max_examples=80, deadline=None)
def test_subst_var_for_itself_is_identity(e, x):
    assert subst(e, x, Var(x)) == e


@given(exprs(), _names, exprs())
@settings(max_examples=80, deadline=None)
def test_subst_noop_without_free_occurrence(e, x, b):
    if x not in free_vars(e):
        assert subst(e, x, b) == e


@given(exprs(), exprs(), exprs())
@settings(max_examples=80, deadline=None)
def test_subst_composition(e, b, c):
    # [c/y][b/x]e == [([c/y]b)/x][c/y]e  when x != y and x not free in c
    x, y = "x", "y"
    if x in free_vars(c):
        return
    lhs = subst(subst(e, x, b), y, c)
    rhs = subst(subst(e, y, c), x, subst(b, y, c))
    assert lhs == rhs


@given(exprs(), _names)
@settings(max_examples=80, deadline=None)
def test_open_close_inverse(e, x):
    if x in free_vars(e):
        return
    body = close_binder(e, x)
    assert open_binder(body, x) == e


# ---------------------------------------------------------------------------
# Built-in specifications


def test_builtin_specs_exact_sets():
    star, box = STAR, BOX
    for spec in (STLC, SYSTEM_F, FOMEGA, CC):
        assert spec.sorts == {star, box}
        assert spec.axioms == {(star, box)}
    assert STLC.rules == {(star, star, star)}
    assert SYSTEM_F.rules == STLC.rules | {(box, star, star)}
    assert FOMEGA.rules == SYSTEM_F.rules | {(box, box, box)}
    assert CC.rules == FOMEGA.rules | {(star, box, box)}
    assert BUILTIN_SPECS == {"stlc": STLC, "f": SYSTEM_F, "fomega": FOMEGA, "cc": CC}


def test_spec_lookups_agree_with_a_scan():
    from ptskit.typecheck import parse_spec_text

    parsed = parse_spec_text("sort *\nsort #\nsort a,b\naxiom * #\naxiom # a,b\nrule * * *\nrule # * a,b\nrule a,b # #\n")
    for spec in [*BUILTIN_SPECS.values(), parsed]:
        for s in sorted(spec.sorts) + ["?"]:
            assert spec.axiom_for(s) == next((s2 for s1, s2 in spec.axioms if s1 == s), None)
            for s2 in sorted(spec.sorts) + ["?"]:
                assert spec.rule_for(s, s2) == next((r3 for r1, r2, r3 in spec.rules if (r1, r2) == (s, s2)), None)
    assert parsed.axiom_for("a,b") is None and parsed.rule_for("a,b", "#") == "#" and parsed.rule_for("*", "#") is None


def test_spec_rejects_undeclared_sorts():
    with pytest.raises(ValueError):
        PtsSpec(frozenset({"*"}), frozenset({("*", "#")}), frozenset())


def test_spec_rejects_two_axioms_for_one_sort():
    # axiom_for would answer by set order, which follows the hash seed
    with pytest.raises(ValueError, match=r"several axioms for sort \*"):
        PtsSpec(frozenset({"*", "#"}), frozenset({("*", "#"), ("*", "*")}), frozenset({("*", "*", "*")}))


def test_spec_rejects_two_rules_for_one_pair():
    rules = frozenset({("*", "*", "*"), ("*", "*", "#"), ("#", "*", "*")})
    with pytest.raises(ValueError, match=r"several rules for sorts \(\*,\*\)$"):
        PtsSpec(frozenset({"*", "#"}), frozenset({("*", "#")}), rules)
    # one rule per pair is functional, whatever the third sorts
    PtsSpec(frozenset({"*", "#"}), frozenset({("*", "#")}), frozenset({("*", "*", "*"), ("#", "*", "*")}))
    # pairs are compared as pairs, not as printed: a sort name may hold a comma
    PtsSpec(frozenset({"a,b", "c", "a", "b,c"}), frozenset(), frozenset({("a,b", "c", "c"), ("a", "b,c", "c")}))


# ---------------------------------------------------------------------------
# Node protocol: construction, repr, match args, ==, hash, immutability

A, B = Var("A"), Var("b")
T = LVar("T")

# one node of each class, with the repr and __match_args__ of the
# dataclasses these classes replaced
NODES = [
    (SortE("*"), "SortE(name='*')", ("name",)),
    (BVar(0), "BVar(index=0)", ("index",)),
    (A, "Var(name='A')", ("name",)),
    (Pi("x", A, BVar(0)), "Pi(hint='x', dom=Var(name='A'), cod=BVar(index=0))", ("hint", "dom", "cod")),
    (Lam("x", A, BVar(0)), "Lam(hint='x', annot=Var(name='A'), body=BVar(index=0))", ("hint", "annot", "body")),
    (App(A, B), "App(fun=Var(name='A'), arg=Var(name='b'))", ("fun", "arg")),
    (Sigma("y", A, A), "Sigma(hint='y', first=Var(name='A'), second=Var(name='A'))", ("hint", "first", "second")),
    (
        Pair(A, B, Sigma("_", A, A)),
        "Pair(first=Var(name='A'), second=Var(name='b'), "
        "annot=Sigma(hint='_', first=Var(name='A'), second=Var(name='A')))",
        ("first", "second", "annot"),
    ),
    (Proj1(Var("p")), "Proj1(pair=Var(name='p'))", ("pair",)),
    (Proj2(Var("p")), "Proj2(pair=Var(name='p'))", ("pair",)),
    (LSort("*"), "LSort(name='*')", ("name",)),
    (LBVar(1), "LBVar(index=1)", ("index",)),
    (T, "LVar(name='T')", ("name",)),
    (LPi("x", T, LBVar(0)), "LPi(hint='x', dom=LVar(name='T'), cod=LBVar(index=0))", ("hint", "dom", "cod")),
    (
        LLam("x", T, T, LBVar(0)),
        "LLam(hint='x', dom=LVar(name='T'), cod=LVar(name='T'), body=LBVar(index=0))",
        ("hint", "dom", "cod", "body"),
    ),
    (
        LApp("x", T, T, LVar("f"), LVar("a")),
        "LApp(hint='x', dom=LVar(name='T'), cod=LVar(name='T'), fun=LVar(name='f'), arg=LVar(name='a'))",
        ("hint", "dom", "cod", "fun", "arg"),
    ),
]


def ref_eq(a, b):
    """Hint-blind structural equality, recursive: the oracle for ``==``."""
    if type(a) is not type(b):
        return False
    for name in type(a).__match_args__:
        x, y = getattr(a, name), getattr(b, name)
        if name != "hint" and not (ref_eq(x, y) if isinstance(x, Node) else x == y):
            return False
    return True


def rehint(e):
    """``e`` with every binder hint renamed: an alpha-variant."""
    if e._role is not None:
        return e
    names = e.__match_args__
    return type(e)(*[getattr(e, f) + "'" if f == "hint" else rehint(getattr(e, f)) for f in names])


def perturbations(e):
    """``e`` with one leaf changed, for each leaf in turn."""
    if e._role == BOUND:
        return [type(e)(e.index + 1)]
    if e._role is not None:
        return [type(e)(e.name + "'")]
    fields = [getattr(e, f) for f in e.__match_args__]
    out = []
    for i, v in enumerate(fields):
        if isinstance(v, Node):
            out += [type(e)(*fields[:i], p, *fields[i + 1 :]) for p in perturbations(v)]
    return out


def test_node_repr_and_match_args():
    classes = {c for c in vars(syntax).values() if isinstance(c, type) and "_shape" in c.__dict__}
    assert len(classes) == 16 and {type(node) for node, _, _ in NODES} == classes
    for node, text, match_args in NODES:
        assert repr(node) == text
        assert type(node).__match_args__ == match_args
        assert type(node)(*[getattr(node, f) for f in match_args]) == node
        assert copy.deepcopy(node) == node and repr(pickle.loads(pickle.dumps(node))) == text


def test_eq_and_hash_are_hint_blind_and_class_aware():
    hinted = [node for node, _, match_args in NODES if "hint" in match_args]
    assert len(hinted) == 6
    for node in hinted:
        variant = rehint(node)
        assert variant.hint != node.hint
        assert variant == node and hash(variant) == hash(node)
    assert Lam("x", A, BVar(0)) == Lam("y", A, BVar(0))
    assert Pi("x", A, B) != Lam("x", A, B) and Var("x") != LVar("x")
    assert BVar(0) != LBVar(0) and SortE("*") != LSort("*")
    # binders and applications over the same children hash apart
    assert len({hash(Pi("x", A, B)), hash(Lam("x", A, B)), hash(Sigma("x", A, B)), hash(App(A, B))}) == 4
    assert len({hash(Var("x")), hash(LVar("x")), hash(SortE("x"))}) == 3
    assert Var("x") != "x" and (Var("x") == "x") is False


def test_nodes_are_immutable():
    for node, _, match_args in NODES:
        for name in (*match_args, "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, A)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert not hasattr(node, "__dict__")


def test_eq_and_hash_agree_with_the_reference():
    ctx = typed_pool_context()
    rng = random.Random(6)
    terms = typed_terms(44, 60) + [untyped_term(rng) for _ in range(60)]
    labeled = [label_term(CC, ctx, t) for t in terms[:60]]
    pairs = []
    for t in terms:
        pairs += [(t, parse_expr(print_expr(t))), (t, rehint(t))]
        pairs += [(t, p) for p in perturbations(t)]
    for la in labeled:
        pairs += [(la, parse_labeled(print_labeled(la))), (la, rehint(la))]
        pairs += [(la, p) for p in perturbations(la)]
    pairs += list(zip(terms, terms[1:])) + list(zip(labeled, labeled[1:])) + list(zip(terms, labeled))
    equal = 0
    for a, b in pairs:
        expected = ref_eq(a, b)
        assert (a == b) is expected and (b == a) is expected and (a != b) is not expected
        if expected:
            assert hash(a) == hash(b)
            equal += 1
    assert equal >= 2 * (len(terms) + len(labeled)) and len(pairs) - equal > 1000


def test_hash_of_10000_levels():
    # the hash is fixed at construction, so hashing never recurses
    spine, nest = A, A
    for _ in range(10000):
        spine = App(spine, B)
        nest = Lam("x", SortE("*"), nest)
    assert hash(spine) != hash(nest)
    assert len({spine, nest, spine, nest}) == 2


def test_eq_on_10000_levels():
    # == walks equal, distinct terms with an explicit stack, never recursing
    def spine(leaf):
        e = leaf
        for _ in range(10000):
            e = App(Var("f"), App(e, B))
        return e

    def nest(leaf, hint):
        e = leaf
        for _ in range(10000):
            e = Lam(hint, Pi(hint, SortE("*"), BVar(0)), e)
        return e

    for build in (spine, lambda leaf: nest(leaf, "x")):
        a, b, c = build(A), build(A), build(Var("c"))
        assert a is not b
        assert (a == b) is True and (b == a) is True and (a != b) is False
        assert (a == c) is False and (a != c) is True
    assert (nest(A, "x") == nest(A, "y")) is True and hash(nest(A, "x")) == hash(nest(A, "y"))


def test_eq_on_350_levels():
    def spine():
        e = A
        for _ in range(350):
            e = App(e, Var("b"))
        return e

    assert spine() == spine() and spine() != App(spine(), B)
