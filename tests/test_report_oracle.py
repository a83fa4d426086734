"""``run_report`` against the battery as it was before one scope served each judgement."""

import os

import pytest

from ptskit.syntax import CC, App, BVar, Lam, Pi, parse_context, parse_expr
from ptskit.reduction import DEFAULT_DEPTH
from ptskit.typecheck import infer_type
from ptskit.corpus import Judgement, load_corpus_dir, run_report

import report_oracle
import typing_oracle
from generators import typed_pool_context, typed_terms

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _suites():
    """``(spec, depth, judgements)``: both corpora; generated terms with their
    ``(\\x:T -> T. x) t`` rejects; every CC typing case (more generated terms
    and rejects, the corpus terms untyped, and the nests); and, at depth 1,
    a labeled typing failure that names a binder whose hint is the name of
    a context variable the term does not reach."""
    pool = typed_pool_context()
    generated = []
    for i, t in enumerate(typed_terms(7, 150)):
        ty = infer_type(CC, pool, t)
        generated += [Judgement(f"t{i}", pool, t, None), Judgement(f"r{i}", pool, App(Lam("x", Pi("_", ty, ty), BVar(0)), t), None)]
    cases = dict.fromkeys((ctx, term) for system, ctx, term, _ in typing_oracle.typing_cases() if system == "cc")
    shadow = Judgement(
        "shadow",
        parse_context("A : *\nP : A -> *\nk : (y:A) -> P y -> A\nu : A"),
        parse_expr(r"\u:A. \q:(\X:*. X) ((\X:*. X) (P u)). k u q"),
        None,
    )
    return [
        (CC, DEFAULT_DEPTH, load_corpus_dir(os.path.join(CORPUS, "cc"))),
        (CC.with_sigma(), DEFAULT_DEPTH, load_corpus_dir(os.path.join(CORPUS, "sigma"), sigma_enabled=True)),
        (CC, DEFAULT_DEPTH, generated),
        (CC, DEFAULT_DEPTH, [Judgement(f"case{i}", ctx, term, None) for i, (ctx, term) in enumerate(cases)]),
        (CC, 1, [shadow]),
    ]


@pytest.fixture(scope="module")
def suites():
    return _suites()


@pytest.mark.parametrize("fuel", [10000, 3, 1])
def test_report_matches_oracle(suites, fuel):
    for spec, depth, judgements in suites:
        expected = [e.line() for e in report_oracle.run_report(judgements, spec, fuel, depth)]
        assert [e.line() for e in run_report(judgements, spec, fuel, depth)] == expected


def test_oracle_suites_reach_the_labeled_typing_failure(suites):
    *_, (spec, depth, [shadow]) = suites
    [entry] = [e for e in run_report([shadow], spec, 3, depth) if e.name == "tight-erasure"]
    assert not entry.ok and "u'" in entry.detail
