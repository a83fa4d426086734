"""The binder-stack translation against the named one in translation_oracle.

Every comparison is on ``==`` and on the printed text, which reads the
binder hints that ``==`` ignores (the ``_y`` numbers and the ``_w$``
names chosen by ``fresh_name``).
"""

import pytest

from ptskit import translate
from ptskit.corpus import load_corpus_dir
from ptskit.reduction import step_all
from ptskit.syntax import CC, Context, parse_context, parse_expr, print_context, print_expr
from ptskit.translate import TransEnv, check_subst_lemmas, is_cc_kind, translate_context, translate_term, translate_type
from ptskit.typecheck import infer_type

from generators import church_numeral, lambda_nest, subst_instances, typed_pool_context, typed_terms
import translation_oracle as oracle


def outcome(f, *args):
    """``f(*args)`` as comparable data: the result and its printed form, or the error."""
    try:
        result = f(*args)
    except (ValueError, KeyError) as err:
        return type(err).__name__, str(err)
    return result, print_context(result) if isinstance(result, Context) else print_expr(result)


def assert_same_translations(ctx, subjects):
    """Translate each ``(term, type)`` in ``ctx`` with both walks: the term,
    its reducts in report order and its type, each run on one environment,
    as ``run_report`` does; then the type, and the term where type-level."""
    assert outcome(translate_context, ctx) == outcome(oracle.translate_context, ctx)
    for a, ty in subjects:
        env, named_env = TransEnv(ctx), TransEnv(ctx)
        reducts = sorted(step_all(a), key=print_expr)
        for e in (a, *reducts):
            assert outcome(translate_term, env, e) == outcome(oracle.translate_term, named_env, e), print_expr(e)
        types = [ty, a] if is_cc_kind(a) or oracle._is_constructor(ctx, a) else [ty]
        for e in types:
            assert outcome(translate_type, env, e) == outcome(oracle.translate_type, named_env, e), print_expr(e)


def typed(ctx, terms):
    return [(a, infer_type(CC, ctx, a)) for a in terms]


def test_typed_terms_and_their_reducts_translate_as_the_named_walk():
    pool = typed_pool_context()
    assert_same_translations(pool, typed(pool, typed_terms(seed=7, count=600)))


def test_corpus_translates_as_the_named_walk():
    for j in load_corpus_dir("corpus/cc"):
        assert_same_translations(j.ctx, typed(j.ctx, [j.term]))


def test_benchmark_nests_and_numerals_translate_as_the_named_walk():
    assert lambda_nest(4) == parse_expr(r"\A:*. \x0:A. \x1:A. \x2:A. \x3:A. x0")
    assert church_numeral(3) == parse_expr(r"\A:*. \f:A -> A. \x:A. f (f (f x))")
    subjects = [lambda_nest(d) for d in (16, 24, 32, 64, 128, 256)] + [church_numeral(n) for n in (40, 80, 120, 160)]
    for a in subjects:
        env, named_env = TransEnv(Context()), TransEnv(Context())
        got, want = translate_term(env, a), oracle.translate_term(named_env, a)
        assert got == want
        assert print_expr(got) == print_expr(want)
        ty = infer_type(CC, Context(), a)
        assert outcome(translate_type, env, ty) == outcome(oracle.translate_type, named_env, ty)


# Binders that fresh_name renames: the name picked sets the _w$ hint, and a
# term binder's name is in the message when it survives a type translation.
RENAMING = [
    ("", r"\A:*. \A:*. \x:A. x"),
    ("A : *", r"\A:*. \x:A. x"),
    ("A : *\nA' : *", r"\A:*. \x:A. x"),
    ("A : *", r"\B:A. \B:*. \x:B. x"),
    ("A : *\na : A", r"\a:A. \A:*. \a:*. \x:a. x"),
    ("", r"\A:*. \F:A -> *. \A:*. \F:A -> *. \x:A. x"),
    ("", r"(A:*) -> (A:*) -> (\B:*. \A:*. A) A A"),
    ("", r"\X:*. (A:*) -> (x:X) -> (\A:*. \y:A. X) X x"),
    ("x : *", r"\x:*. \x:x. x"),
]


@pytest.mark.parametrize("ctx_text, text", RENAMING)
def test_renamed_binders_translate_as_the_named_walk(ctx_text, text):
    ctx, a = parse_context(ctx_text), parse_expr(text)
    assert_same_translations(ctx, typed(ctx, [a]))


@pytest.mark.parametrize(
    "text",
    [r"\x:A. x", r"\x:A. \y:A. F (y x)", r"\r:A. \r:A. F r", r"\A:*. \x:A. \y:x. A", r"(\r:A. r) a", "(x:A) -> F x"],
)
def test_type_translation_errors_match_the_named_walk(text):
    ctx = parse_context("A : *\na : A\nF : * -> *\nC : *")
    a = parse_expr(text)
    assert outcome(translate_type, TransEnv(ctx), a) == outcome(oracle.translate_type, TransEnv(ctx), a)


def test_subst_lemmas_match_the_named_walk(monkeypatch):
    instances = subst_instances(seed=5, count=60)
    got = [[e.line() for e in check_subst_lemmas(*instance)] for instance in instances]
    monkeypatch.setattr(translate, "translate_term", oracle.translate_term)
    monkeypatch.setattr(translate, "translate_type", oracle.translate_type)
    assert [[e.line() for e in check_subst_lemmas(*instance)] for instance in instances] == got
    assert sum(len(lines) for lines in got) > 150
