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
from ptskit.syntax import CC, FOMEGA, STAR, App, BVar, Context, Node, Pi, SortE, parse_context, parse_expr, print_expr
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
# An application whose function's type is a product reads it directly


def _outcome(walk, *args):
    """``oracle.outcome``, with a ``ValueError`` (fuel below 1) as a result too."""
    try:
        return oracle.outcome(walk, *args)
    except ValueError as err:
        return "ValueError", str(err)


@pytest.mark.parametrize("text", oracle.APPLICATIONS)
def test_applications_match_the_substituting_walk_at_every_fuel(text):
    # each head the App case reads directly or leaves to _fun_head, and each
    # error it reports, as typing, classification, checking and elaboration
    from ptskit.labeled import label_term

    ctx, term = parse_context(oracle.APP_CTX), P(text)
    inferred = oracle.outcome(oracle.infer_type, CC, ctx, term)
    declared = ([inferred[1]] if inferred[0] == "ok" else []) + [SortE(STAR)]
    for fuel in (0, 1, 10000):
        calls = [
            (infer_type, oracle.infer_type, (CC, ctx, term, fuel)),
            (classify, oracle.classify, (ctx, term, fuel, CC)),
            (label_term, oracle.label_term, (CC, ctx, term, fuel)),
        ] + [(check_type, oracle.check_type, (CC, ctx, term, ty, fuel)) for ty in declared]
        for walk, reference, args in calls:
            got = _outcome(walk, *args)
            assert got == _outcome(reference, *args), (walk.__name__, fuel)
            assert fuel or got == ("ValueError", "fuel must be >= 1"), walk.__name__


def _head_kind(ty):
    """What a function's type is at its head: "product" for a ``Pi`` or a
    closure of one, "delayed product" for a lambda's ``_Prod``, else None."""
    from ptskit.typecheck import _Prod

    if type(ty) is Pi or type(ty) is tuple and type(ty[0]) is Pi:
        return "product"
    return "delayed product" if type(ty) is _Prod else None


def _calls_from_applications(monkeypatch, run):
    """``(name, head kind)`` (see ``_head_kind``) for each ``_whnf``,
    ``_beta_eq`` and ``_fun_head`` call that ``run()`` makes from the App rule
    of typing or the App case of ``_elaborate``: the innermost frame of a
    typing rule or of ``_elaborate`` is an application's."""
    from ptskit import labeled, typecheck

    walks = {rule.__code__: "e" for rule in typecheck._RULES.values()}
    walks[labeled._elaborate.__code__] = "a"
    calls = []

    def spy(name, original):
        def call(*args):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in walks:
                frame = frame.f_back
            if frame is not None and type(frame.f_locals[walks[frame.f_code]]) is App:
                calls.append((name, _head_kind(frame.f_locals["fun_ty"])))
            return original(*args)

        return call

    for name in ("_whnf", "_beta_eq", "_fun_head"):
        monkeypatch.setattr(typecheck, name, spy(name, getattr(typecheck, name)))
    run()
    monkeypatch.undo()
    return calls


def test_applications_of_products_neither_reduce_their_type_nor_call_conversion(monkeypatch):
    # the benchmark's 150-deep spine f (f (... x)), typed, elaborated and
    # checked with its translation, and the translation checks of nest 32 and
    # numeral 160, whose translated lambdas have delayed products as types
    from ptskit.labeled import label_term

    ctx, spine = parse_context("A : *\nf : A -> A\nx : A"), P("f (" * 149 + "f x" + ")" * 149)
    runs = [
        lambda: infer_type(CC, ctx, spine),
        lambda: label_term(CC, ctx, spine),
        lambda: check_translation(ctx, spine),
        lambda: check_translation(Context(), lambda_nest(32)),
        lambda: check_translation(Context(), church_numeral(160)),
    ]
    for run in runs:
        assert [call for call in _calls_from_applications(monkeypatch, run) if call[1]] == []
    # the spy sees the calls of an application whose head is a redex
    redex = lambda: infer_type(CC, parse_context(oracle.APP_CTX), P("k a"))
    assert _calls_from_applications(monkeypatch, redex) == [("_fun_head", None), ("_whnf", None)]


def test_delayed_product_heads_are_typed_in_place(monkeypatch):
    # the translation applies \_y:_0. \x:A. ..., whose type is a _Prod: one
    # call to expose it per translated lambda (32 on nest 32, 3 on numeral
    # 160) when only closed and closure products were read directly
    for term in (lambda_nest(32), church_numeral(160)):
        calls = _calls_from_applications(monkeypatch, lambda: check_translation(Context(), term))
        assert ("_fun_head", "delayed product") not in calls
    # at fuel 1 too (below 1, see the test of oracle.APPLICATIONS above)
    calls = _calls_from_applications(monkeypatch, lambda: check_translation(Context(), lambda_nest(32), 1))
    assert ("_fun_head", "delayed product") not in calls


def _index_typed(ty):
    """Whether a type is an index: a plain ``BVar`` or a closure of one."""
    return type(ty) is BVar or type(ty) is tuple and type(ty[0]) is BVar


def _conversions_of_indices(monkeypatch, run):
    """How many ``_convertible`` calls ``run()`` makes from an application
    between two index-typed sides: the argument's type and the domain."""
    from ptskit import typecheck

    calls, original = [0], typecheck._convertible

    def spy(scope, a, b, *rest):
        frame = sys._getframe(1)
        if frame.f_code is typecheck._RULES[App].__code__ and type(frame.f_locals["e"]) is App:
            calls[0] += _index_typed(a) and _index_typed(b)
        return original(scope, a, b, *rest)

    monkeypatch.setattr(typecheck, "_convertible", spy)
    try:
        run()
    except TypeCheckError:
        pass
    monkeypatch.undo()
    return calls[0]


# an argument whose type is a bound variable other than the domain's (f y with
# f : A -> A and y : B, then with the levels the other way round), the same
# term with the argument's type corrected, and the mismatch reported
LEVEL_MISMATCH = r"\A:*. \B:*. \f:A -> A. \y:B. f y"
LEVEL_MISMATCHES = [
    (LEVEL_MISMATCH, r"\A:*. \B:*. \f:A -> A. \y:A. f y", "argument of f: B is not convertible with A"),
    (r"\A:*. \B:*. \f:B -> B. \y:A. f y", r"\A:*. \B:*. \f:B -> B. \y:B. f y", "argument of f: A is not convertible with B"),
]


def test_index_typed_arguments_of_one_level_make_no_conversion(monkeypatch):
    # numeral 160's translation check made 320 such calls: 318 between
    # closures over an index and 2 between a plain index and a closure
    run = lambda: check_translation(Context(), church_numeral(160))
    assert _conversions_of_indices(monkeypatch, run) == 0
    assert _conversions_of_indices(monkeypatch, lambda: infer_type(CC, Context(), church_numeral(160))) == 0
    # two levels that differ still go to _convertible, which the spy sees
    run = lambda: infer_type(CC, Context(), P(LEVEL_MISMATCH))
    assert _conversions_of_indices(monkeypatch, run) == 1


def _level_cases():
    """``(call, args)`` for the differential test: CC typing of the
    generated terms, of numerals 1..40 and of the applications of
    ``typing_oracle``, and the numerals' translation checks."""
    pool, app_ctx = typed_pool_context(), parse_context(oracle.APP_CTX)
    cases = [(infer_type, (CC, pool, t)) for t in typed_terms(seed=7, count=600)]
    for n in range(1, 41):
        cases.append((infer_type, (CC, Context(), church_numeral(n))))
        cases.append((check_translation, (Context(), church_numeral(n))))
    cases += [(infer_type, (CC, app_ctx, P(text))) for text in oracle.APPLICATIONS]
    cases += [(infer_type, (CC, Context(), P(bad))) for bad, _, _ in LEVEL_MISMATCHES]
    return cases


def _case_outcome(call, *args):
    if call is check_translation:
        return [(e.ok, e.name, e.detail) for e in check_translation(*args)]
    return oracle.outcome(call, *args)


def test_the_level_shortcut_agrees_with_conversion(monkeypatch):
    # wherever an application settles its argument by level, the two types
    # stand for the same term; and every outcome, at fuel 1, 3 and 10000, is
    # the one the walk gives when each of those arguments goes to _convertible
    from ptskit import typecheck

    original, settled = typecheck._level, [0]

    def spy(scope, t):
        frame = sys._getframe(1)
        arg_ty, dom = frame.f_locals["arg_ty"], frame.f_locals["dom"]
        level = original(scope, arg_ty)
        if t is arg_ty and level is not None and level == original(scope, dom):
            assert typecheck._term(scope, arg_ty) == typecheck._term(scope, dom), (frame.f_locals["e"], level)
            settled[0] += 1
        return original(scope, t)

    cases = _level_cases()
    for fuel in (1, 3, 10000):
        monkeypatch.setattr(typecheck, "_level", spy)
        got = [_case_outcome(call, *args, fuel) for call, args in cases]
        monkeypatch.setattr(typecheck, "_level", lambda scope, t: None)
        want = [_case_outcome(call, *args, fuel) for call, args in cases]
        monkeypatch.undo()
        assert got == want, fuel
    assert settled[0] > 3 * 2 * sum(range(1, 41))  # each numeral's applications, typed and translated


@pytest.mark.parametrize("fuel", [1, 3, 10000])
def test_index_typed_arguments_of_different_levels_are_a_mismatch(fuel):
    # typed directly, in CC and F-omega, and as a translation re-check: the
    # ill-typed term's translation checked against the well-typed one's type
    from ptskit.reduction import _Budget
    from ptskit.translate import _check_translated

    for text, good, message in LEVEL_MISMATCHES:
        bad = P(text)
        for spec in (CC, FOMEGA):
            assert oracle.outcome(infer_type, spec, Context(), bad, fuel) == ("error", ErrorKind.MISMATCH, message)
        [entry] = check_translation(Context(), bad, fuel)
        assert (entry.ok, entry.name, entry.detail) == (False, "translation", f"setup failed: Mismatch: {message}")
        good_ty = infer_type(CC, Context(), P(good))
        env, tctx, ta, t_ty = _translate_judgement(Context(), bad, good_ty)
        [entry] = _check_translated(env, bad, good_ty, tctx, ta, t_ty, _Budget(fuel))
        assert (entry.ok, entry.name) == (False, "term-translation")
        assert entry.detail.endswith(f" (Mismatch: {message})")


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
