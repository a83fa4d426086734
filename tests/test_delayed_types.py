"""Typing under delayed substitution: the walk's open types stay closures and
delayed products until a caller needs the term, so the results, the errors
and the fuel they cost must be those of the substituting walk, and the work
must grow linearly on binder nests."""

import os
import subprocess
import sys

import pytest

from ptskit import syntax
from ptskit.reduction import step_all
from ptskit.syntax import CC, FOMEGA, STAR, Context, Node, SortE, parse_context, parse_expr, print_expr
from ptskit.translate import _translate_judgement, check_translation
from ptskit.typecheck import ErrorKind, TypeCheckError, check_type, classify, infer_type
from ptskit.corpus import load_corpus_dir

import typing_oracle as oracle
from generators import church_numeral, lambda_nest, typed_pool_context, typed_terms

CCS = CC.with_sigma()


def P(text):
    return parse_expr(text)


def _judgements():
    """``(spec, ctx, term)`` for the comparison: 600 generated terms and their
    one-step reducts, both corpora, lambda nests and Church numerals."""
    pool = typed_pool_context()
    out = []
    for t in typed_terms(seed=7, count=600):
        out.append((CC, pool, t))
        out += [(CC, pool, r) for r in sorted(step_all(t), key=print_expr)]
    out += [(CC, j.ctx, j.term) for j in load_corpus_dir("corpus/cc")]
    out += [(CCS, j.ctx, j.term) for j in load_corpus_dir("corpus/sigma", sigma_enabled=True)]
    out += [(CC, Context(), lambda_nest(d)) for d in (16, 32, 64, 128, 256)]
    out += [(CC, Context(), church_numeral(n)) for n in (40, 80, 160)]
    return out


def _same_outcomes(spec, ctx, term, fuel, *declared):
    """Compare ``infer_type``, ``classify`` and ``check_type`` against each
    ``declared`` type with the substituting walk's: each result by ``==``
    and by its printed form, which shows the binder hints ``==`` ignores,
    and each error by its kind and message."""
    for walk, reference, args in (
        (infer_type, oracle.infer_type, (spec, ctx, term, fuel)),
        (classify, oracle.classify, (ctx, term, fuel, spec)),
    ):
        assert oracle.outcome(walk, *args) == oracle.outcome(reference, *args), (walk.__name__, fuel, print_expr(term))
    for ty in declared:
        got = oracle.outcome(check_type, spec, ctx, term, ty, fuel)
        assert got == oracle.outcome(oracle.check_type, spec, ctx, term, ty, fuel), (fuel, print_expr(term))


@pytest.mark.parametrize("fuel", [10000, 3])
def test_the_delayed_walk_matches_the_substituting_walk(fuel):
    # also when the term is checked against its type and against *; then
    # the F-omega judgements the translation makes of the typed ones
    fomega = []
    for spec, ctx, term in _judgements():
        inferred = oracle.outcome(oracle.infer_type, spec, ctx, term)
        types = ([inferred[1]] if inferred[0] == "ok" else []) + [SortE(STAR)]
        _same_outcomes(spec, ctx, term, fuel, *types)
        if spec is CC and inferred[0] == "ok":
            _, tctx, ta, t_ty = _translate_judgement(ctx, term, inferred[1])
            fomega.append((tctx, ta, t_ty))
    assert len(fomega) > 1000
    for tctx, ta, t_ty in fomega:
        _same_outcomes(FOMEGA, tctx, ta, fuel, t_ty)


# delayed types where the evaluator stops short: sigma nodes, a fuel limit, a
# product whose head waits on an argument, and conversions that reduce
EDGE_CTX = "A : *\nC : *\nD : *\nc : C\ng : C -> D\nh : A -> A\na : A"
EDGES = [
    (True, r"\A:*. \p:Sig x:A. A. p p"),
    (True, r"\A:*. \p:Sig x:A. A. \q:p. q"),
    (True, r"\A:*. \p:Sig x:A. A. p.2"),
    (True, r"\B:*. \b:B. <b, b> : Sig x:B. B"),
    (True, r"\B:*. \p:Sig x:B. B. (\q:Sig x:B. B. q) p"),
    (False, r"\B:*. \f:(\X:*. X) ((\X:*. X) (B -> B)). \b:B. f b"),
    (False, r"((\A:*. \B:*. \f:A -> B. f) C D g) c"),
    (False, r"(\F:* -> *. \x:F A. x) (\X:*. X -> X) h a"),
    (False, r"(\F:* -> *. \x:F A. x) (\X:*. X -> X) h c"),
    (False, r"\B:*. (\F:* -> *. \x:F B. x) (\X:*. X -> X)"),
    (False, r"(\B:*. \b:B. b) A a a"),
    (False, r"\B:*. \P:B -> *. \b:B. \p:P b. (\Q:B -> *. \q:Q b. q) (\y:B. P y) p"),
    (False, r"\B:*. \P:B -> *. \b:B. \p:P b. (\Q:B -> *. \q:Q b. q) (\y:B. B) p"),
    (False, r"\B:*. \F:B -> B -> *. \b:B. \x:F b b. \y:(\z:B. F z z) b. (\u:F b b. u) y"),
]


@pytest.mark.parametrize("sigma, text", EDGES)
def test_delayed_types_the_evaluator_leaves_match_the_substituting_walk(sigma, text):
    spec, ctx, term = CC.with_sigma(sigma), parse_context(EDGE_CTX), parse_expr(text, sigma)
    for fuel in (10000, 1, 2):
        _same_outcomes(spec, ctx, term, fuel, SortE(STAR))


# ---------------------------------------------------------------------------
# Conversion keeps beta_eq's contract

# the type of x is the annotation, two redexes deep, under the binder B
DEEP = r"(\X:*. X) ((\X:*. X) B)"
SUBJECT = rf"\B:*. \x:{DEEP}. x"


@pytest.mark.parametrize("fuel", [1, 2, 3])
def test_equal_delayed_types_convert_without_fuel(fuel):
    # the inferred type is a delayed product, equal to the declared type as
    # a term but needing 4 contractions to normalize: equal sides cost nothing
    declared = P(rf"(B:*) -> ({DEEP}) -> {DEEP}")
    check_type(CC, Context(), P(SUBJECT), declared, fuel)
    assert infer_type(CC, Context(), P(SUBJECT), fuel) == declared


@pytest.mark.parametrize("fuel", [1, 2, 3])
def test_unequal_delayed_types_that_run_out_of_fuel_are_undecided(fuel):
    with pytest.raises(TypeCheckError) as info:
        check_type(CC, Context(), P(SUBJECT), P(r"(B:*) -> B -> B"), fuel)
    assert info.value.kind is ErrorKind.FUEL_EXHAUSTED
    assert info.value.message == rf"conversion undecided in checking {SUBJECT}"
    check_type(CC, Context(), P(SUBJECT), P(r"(B:*) -> B -> B"), 4)


# ---------------------------------------------------------------------------
# Linear work on nests


def _nodes_built(monkeypatch, term):
    """How many nodes ``check_translation`` builds on ``term``, counted at
    every node class's ``__init__``."""
    count = [0]
    for cls in {c for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, Node) and "_shape" in c.__dict__}:
        def init(self, *args, original=cls.__init__):
            count[0] += 1
            original(self, *args)

        monkeypatch.setattr(cls, "__init__", init)
    assert all(entry.ok for entry in check_translation(Context(), term))
    monkeypatch.undo()
    return count[0]


def test_translation_check_builds_nodes_linearly(monkeypatch):
    # an application's type pushes its argument and a lambda's delays its
    # product, so no open type is rebuilt per binder (13.9x, 3.5x when every
    # application instantiated its codomain)
    nest_64, nest_256 = (_nodes_built(monkeypatch, lambda_nest(d)) for d in (64, 256))
    assert nest_256 <= 6 * nest_64, (nest_64, nest_256)
    numeral_40, numeral_160 = (_nodes_built(monkeypatch, church_numeral(n)) for n in (40, 160))
    assert numeral_160 <= 4.5 * numeral_40, (numeral_40, numeral_160)


# ---------------------------------------------------------------------------
# Depth at the default recursion limit


def _probe(depth, calls):
    """Run ``calls`` in a fresh interpreter at the default recursion limit on
    two directly built nests: ``\\x0:A. ... a`` in ``ctx`` (``A : *``, ``a :
    A``), whose types are closed, and ``\\A:*. \\x0:P A. ... x0`` in ``pctx``
    (``P : * -> *``), whose types are delayed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(syntax.__file__)))
    probe = (
        "import sys\n"
        "from ptskit.syntax import CC, App, BVar, Lam, SortE, Var, parse_context\n"
        "from ptskit.typecheck import classify, infer_type\n"
        "from ptskit.translate import check_translation\n"
        f"d = {depth}\n"
        "ctx, pctx, nest, body = parse_context('A : *\\na : A'), parse_context('P : * -> *'), Var('a'), BVar(d - 1)\n"
        "for i in range(d):\n"
        "    nest = Lam(f'x{i}', Var('A'), nest)\n"
        "for i in reversed(range(d)):\n"
        "    body = Lam(f'x{i}', App(Var('P'), BVar(i)), body)\n"
        "pnest = Lam('A', SortE('*'), body)\n"
        f"{calls}\n"
        "print(sys.getrecursionlimit())\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1000"]


def test_a_300_deep_nest_checks_its_translation_at_the_default_recursion_limit():
    # the walk takes three frames per source binder on the translated term
    # (the first failing depth is between 300 and 350)
    _probe(300, "assert all(e.ok for c, t in ((ctx, nest), (pctx, pnest)) for e in check_translation(c, t))")


def test_a_975_deep_nest_infers_and_classifies_at_the_default_recursion_limit():
    # one frame per binder: a delayed type is read back in a loop
    _probe(975, "for c, t in ((ctx, nest), (pctx, pnest)):\n    infer_type(CC, c, t), classify(c, t)")
