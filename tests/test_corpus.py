import pickle

import pytest

from ptskit.syntax import CC, FOMEGA, STLC, SYSTEM_F, ParseError, parse_context, print_expr
from ptskit.reduction import beta_eq, reducts_within
from ptskit.typecheck import TypeCheckError, check_type, infer_type
from ptskit.translate import TransEnv
from ptskit.corpus import (
    Judgement,
    judgement_uses_sigma,
    load_corpus_dir,
    parse_judgement,
    run_report,
)

CCS = CC.with_sigma()


@pytest.fixture(scope="module")
def cc_corpus():
    return load_corpus_dir("corpus/cc")


def test_parse_judgement_sections():
    j = parse_judgement("ctx:\nA : *\n\nterm:\nA\n\ntype:\n*\n", name="demo")
    assert j.ctx.bindings[0][0] == "A"
    assert print_expr(j.term) == "A"
    assert print_expr(j.ty) == "*"


def test_parse_judgement_multiline_term():
    j = parse_judgement("ctx:\n\nterm:\n\\A:*.\n\\x:A. x\n")
    assert print_expr(j.term) == r"\A:*. \x:A. x"
    assert j.ty is None


def test_parse_judgement_requires_term():
    with pytest.raises(ParseError):
        parse_judgement("ctx:\nA : *\n")


def test_corpus_sigma_detection(cc_corpus):
    assert not any(judgement_uses_sigma(j) for j in cc_corpus)
    sigma = load_corpus_dir("corpus/sigma", sigma_enabled=True)
    assert all(judgement_uses_sigma(j) for j in sigma)


def test_spec_monotonicity_over_corpus(cc_corpus):
    # rule sets are nested, so typeability only grows along the chain
    chain = [STLC, SYSTEM_F, FOMEGA, CC]
    for j in cc_corpus:
        typeable = []
        for spec in chain:
            try:
                infer_type(spec, j.ctx, j.term)
                typeable.append(True)
            except TypeCheckError:
                typeable.append(False)
        assert typeable[-1], j.name  # everything here is CC-typeable
        first = typeable.index(True)
        assert all(typeable[first:]), (j.name, typeable)


def test_inference_agreement_over_corpus(cc_corpus):
    # inferred types are themselves well-formed and check back
    for j in cc_corpus:
        ty = infer_type(CC, j.ctx, j.term)
        check_type(CC, j.ctx, j.term, ty)
        if j.ty is not None:
            assert beta_eq(ty, j.ty) is True, j.name


def test_run_report_flags_bad_judgements(tmp_path):
    (tmp_path / "broken.judg").write_text("ctx:\n\nterm:\nmissing var\n")
    judgements = load_corpus_dir(str(tmp_path))
    entries = run_report(judgements)
    assert any(not e.ok for e in entries)


def test_run_report_skips_translation_for_sigma():
    sigma = load_corpus_dir("corpus/sigma", sigma_enabled=True)
    entries = run_report(sigma, CCS)
    assert all(e.ok for e in entries)
    assert not any(e.name in ("term-translation", "simulation") for e in entries)


def test_report_looks_for_sigma_nodes_only_when_sigma_is_on(monkeypatch, cc_corpus):
    # without sigma, wf_context and typing reject every sigma node first
    from ptskit import corpus

    walked = []
    original = corpus._mentions_sigma
    monkeypatch.setattr(corpus, "_mentions_sigma", lambda e: walked.append(e) or original(e))
    assert all(e.ok for e in run_report(cc_corpus))
    assert walked == []
    run_report(load_corpus_dir("corpus/sigma", sigma_enabled=True), CCS)
    assert walked


def test_run_report_runs_cc_checks_only_under_cc_axioms():
    # CC's sorts and rules with one more axiom (# : *) type judgements CC
    # rejects, so the CC-only checks must not run on them
    from ptskit.typecheck import parse_spec_text

    spec = parse_spec_text(
        "sort *\nsort #\naxiom * #\naxiom # *\nrule * * *\nrule * # #\nrule # * *\nrule # # #\n"
    )
    judgements = [
        parse_judgement("term:\n(\\x:*. x) #\n", name="01.judg"),
        parse_judgement("ctx:\nA : *\n\nterm:\n\\y:#. A\n", name="02.judg"),
    ]
    entries = run_report(judgements, spec)
    assert [(e.ok, e.name) for e in entries] == 2 * [
        (True, "ctx-wf"), (True, "typing"), (True, "preservation"), (True, "normalizes")
    ]


def test_run_report_fail_lines_name_their_cause():
    bad_ctx = parse_judgement("ctx:\nx : y\n\nterm:\nx\n", name="ctx.judg")
    assert [e.line() for e in run_report([bad_ctx])] == [
        "FAIL ctx-wf ctx.judg: x (IllFormedContext: binding x : y is ill-formed "
        "(UnboundVariable: unbound variable y))"
    ]
    slow = parse_judgement("ctx:\nA : *\na : A\n\nterm:\n(\\x:A. x) ((\\y:A. y) a)\n", name="nf.judg")
    lines = [e.line() for e in run_report([slow], fuel=1)]
    assert r"FAIL normalizes nf.judg: (\x:A. x) ((\y:A. y) a) (no normal form within 1 steps)" in lines


def test_preservation_tells_an_undecided_conversion_from_a_changed_type(monkeypatch):
    from ptskit import corpus

    j = parse_judgement("ctx:\nA : *\n\nterm:\n\\y:(\\X:*. X) ((\\X:*. X) A). y\n", name="p.judg")
    term = print_expr(j.term)
    # every reduct is checked; the line names the failing one that prints first
    first = r"\y:(\X:*. X) A. y"
    assert first == min(print_expr(r) for r in reducts_within(j.term, 3) - {j.term})

    def preservation(fuel):
        [entry] = [e for e in run_report([j], fuel=fuel) if e.name == "preservation"]
        return entry

    assert preservation(10000).ok
    for fuel in (1, 2, 3):
        why = f"type conversion undecided within {fuel} steps"
        assert preservation(fuel).line() == f"FAIL preservation p.judg: {term} ({why} across {term} ~>* {first})", fuel
    monkeypatch.setattr(corpus, "beta_eq", lambda a, b, fuel: False)
    assert preservation(10000).line() == f"FAIL preservation p.judg: {term} (type changed across {term} ~>* {first})"


def test_preservation_names_the_first_reduct_whose_typing_fails(monkeypatch):
    from ptskit import corpus
    from ptskit.typecheck import ErrorKind

    j = parse_judgement("ctx:\nA : *\n\nterm:\n\\y:(\\X:*. X) ((\\X:*. X) A). y\n", name="p.judg")
    reducts = reducts_within(j.term, 3) - {j.term}
    first = min(print_expr(r) for r in reducts)
    infer = corpus.infer_type

    def failing(spec, ctx, e, fuel):
        if e in reducts:
            raise TypeCheckError(ErrorKind.MISMATCH, f"cannot type {print_expr(e)}")
        return infer(spec, ctx, e, fuel)

    monkeypatch.setattr(corpus, "infer_type", failing)
    [entry] = [e for e in run_report([j]) if e.name == "preservation"]
    assert entry.line() == f"FAIL preservation p.judg: {print_expr(j.term)} (Mismatch: cannot type {first})"


def test_report_does_each_job_once(monkeypatch):
    """One judgement's report types its term and checks its context once,
    translates its term once, and prints nothing but the simulation's
    ordering keys until a detail is read."""
    from ptskit import corpus, labeled, reduction, syntax, translate, typecheck
    from ptskit.reduction import step_all
    from ptskit.syntax import Lam
    from generators import typed_pool_context, typed_terms

    ctx = typed_pool_context()
    term = next(t for t in typed_terms(1, 100) if isinstance(t, Lam) and step_all(t))
    j = Judgement("lam", ctx, term, infer_type(CC, ctx, term))
    calls = {}

    def spy(name):
        original = getattr(typecheck, name, None) or getattr(translate, name, None) or getattr(syntax, name)
        calls[name] = []

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        for mod in (syntax, reduction, typecheck, translate, labeled, corpus):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)

    for name in ("_infer", "wf_context", "_trans_term", "print_expr"):
        spy(name)
    entries = run_report([j])
    assert all(e.ok for e in entries) and "simulation" in {e.name for e in entries}
    assert sum(args[1] is term for args in calls["_infer"]) == 1
    assert sum(args[1] is ctx for args in calls["wf_context"]) == 1
    assert sum(args[1] is term for args in calls["_trans_term"]) == 1
    printed = [args[0] for args in calls["print_expr"]]
    assert len(printed) == len(step_all(term)) and set(printed) == step_all(term)
    assert [e.line() for e in entries][0] == f"PASS ctx-wf lam: {print_expr(term)}"
    assert len(calls["print_expr"]) > len(printed)


def test_report_builds_each_context_index_once(monkeypatch):
    # every scope over a context shares the index the context keeps; only
    # the prefix walks, which grow the names they see, keep one of their own
    from ptskit.syntax import Context, Lam
    from ptskit.reduction import step_all
    from generators import typed_pool_context, typed_terms

    ctx = typed_pool_context()
    term = next(t for t in typed_terms(1, 100) if isinstance(t, Lam) and step_all(t))
    built, index = [], Context.index

    def spy(self):
        if self._index is None:
            built.append(self)
        return index(self)

    monkeypatch.setattr(Context, "index", spy)
    entries = run_report([Judgement("lam", ctx, term, None)])
    assert all(e.ok for e in entries) and "simulation" in {e.name for e in entries}
    assert sum(c is ctx for c in built) == 1
    assert all(c.index() == dict(reversed(c.bindings)) for c in built)
    # the index is no field: equality, hash, repr and pickling skip it
    fresh = Context(ctx.bindings)
    assert (ctx, hash(ctx), repr(ctx)) == (fresh, hash(fresh), repr(fresh))
    assert pickle.loads(pickle.dumps(ctx))._index is None


def test_report_scans_each_context_for_reserved_names_once(monkeypatch, cc_corpus):
    from ptskit import translate

    scanned = []
    original = translate._check_context
    monkeypatch.setattr(translate, "_check_context", lambda ctx: scanned.append(ctx) or original(ctx))
    translated = 0
    for j in cc_corpus:
        del scanned[:]
        entries = run_report([j])
        if any(e.name == "term-translation" for e in entries):
            translated += 1
            assert sum(ctx is j.ctx for ctx in scanned) == 1, j.name
    assert translated == len(cc_corpus)
    # called directly, both entry points still scan
    bad = parse_context("_q : *", allow_reserved=True)
    for entry in (translate.translate_context, TransEnv):
        with pytest.raises(translate.ReservedNameError, match="^context binds reserved name '_q'$"):
            entry(bad)
    with pytest.raises(translate.ReservedNameError, match="^input mentions reserved names: _q$"):
        TransEnv(parse_context("x : _q", allow_reserved=True))


def test_report_on_a_context_the_translation_rejects():
    from ptskit.syntax import parse_context, parse_expr

    ctx = parse_context("_q : *\nx : _q", allow_reserved=True)
    lines = [e.line() for e in run_report([Judgement("r", ctx, parse_expr("x"), None)])]
    assert lines[5:7] == [
        "FAIL translation setup failed: context binds reserved name '_q'",
        "FAIL simulation setup failed: context binds reserved name '_q'",
    ]
    assert [line.split()[:2] for line in lines[7:]] == [["PASS", "labeled-roundtrip"], ["PASS", "tight-erasure"]]


def test_normalizes_check_reports_exhaustion_without_the_replay(monkeypatch):
    # the check reads no FuelExhausted.last, so the evaluator's exhaustion is
    # reported without replaying it by substitution
    from ptskit import reduction
    from ptskit.syntax import parse_expr

    substituted = []
    nf = reduction._nf
    monkeypatch.setattr(reduction, "_nf", lambda *args: substituted.append(args) or nf(*args))
    j = Judgement("n", parse_context("A : *"), parse_expr(r"(\X:*. X) ((\X:*. X) A)"), None)
    lines = [e.line() for e in run_report([j], CC, fuel=1)]
    assert r"FAIL normalizes n: (\X:*. X) ((\X:*. X) A) (no normal form within 1 steps)" in lines
    assert substituted == []
    assert r"PASS normalizes n: (\X:*. X) ((\X:*. X) A)" in [e.line() for e in run_report([j], CC, fuel=2)]
