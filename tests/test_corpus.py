import pytest

from ptskit.syntax import CC, FOMEGA, STLC, SYSTEM_F, ParseError, print_expr
from ptskit.reduction import beta_eq, reducts_within
from ptskit.typecheck import TypeCheckError, check_type, infer_type
from ptskit.translate import (
    TransEnv,
    check_canonical_inhabitants,
    render_report,
    translate_term,
)
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


def test_canonical_inhabitants_over_corpus(cc_corpus):
    for j in cc_corpus:
        env = TransEnv(j.ctx)
        translate_term(env, j.term)
        entries = check_canonical_inhabitants(env)
        assert all(e.ok for e in entries), (j.name, render_report(entries))


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
    reducts = reducts_within(j.term, 3) - {j.term}

    def details(why):
        # which reduct is named first depends on set order
        return {f"p.judg: {term} ({why} across {term} ~>* {print_expr(r)})" for r in reducts}

    def preservation(fuel):
        [entry] = [e for e in run_report([j], fuel=fuel) if e.name == "preservation"]
        return entry

    assert preservation(10000).ok
    for fuel in (1, 2, 3):
        entry = preservation(fuel)
        assert not entry.ok and entry.detail in details(f"type conversion undecided within {fuel} steps"), fuel
    monkeypatch.setattr(corpus, "beta_eq", lambda a, b, fuel: False)
    entry = preservation(10000)
    assert not entry.ok and entry.detail in details("type changed")
