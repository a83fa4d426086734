"""Reducts' translations reuse the translation of the judgement's term.

The simulation check translates each one-step reduct of a term it has
translated already.  The term's translation records, on its
``TransEnv``, the translation of each closed compound subterm, and a
reduct's translation takes a recorded one for any equal closed subterm
(``translate._trans_reused``).  The translation so made must be ``==`` to
one made on a fresh walk with no table, for every closed subterm and for
every reduct; the printed translation of the term must not change; and
only the code that runs the simulation may keep a table.
"""

from __future__ import annotations

import os

import pytest

from ptskit import translate
from ptskit.syntax import CC, App, BVar, Lam, SortE, Var, STAR, parse_context, parse_expr, print_expr
from ptskit.reduction import step_all
from ptskit.typecheck import infer_type
from ptskit.translate import TransEnv, check_reduction_preservation, check_translation, translate_term
from ptskit.corpus import Judgement, judgement_uses_sigma, load_corpus_dir, run_report

from generators import typed_pool_context, typed_terms

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _nested_redexes(d: int):
    """``\\A:*. \\a:A. (\\x:B. x) (... ((\\y:A. b) a))`` with ``d`` closed identity redexes
    around an open one, in the context ``B : *, b : B``."""
    body = App(Lam("y", BVar(1), Var("b")), BVar(0))
    for _ in range(d):
        body = App(Lam("x", Var("B"), BVar(0)), body)
    return Lam("A", SortE(STAR), Lam("a", BVar(0), body))


@pytest.fixture(scope="module")
def cases():
    """(ctx, term): typed_terms(7, 600), both corpora without sigma nodes, nested redexes under
    lambdas, and a term whose reduct would take a wrong translation if open subterms were shared."""
    pool = typed_pool_context()
    out = [(pool, t) for t in typed_terms(7, 600)]
    for sub, sigma in (("cc", False), ("sigma", True)):
        out += [(j.ctx, j.term) for j in load_corpus_dir(os.path.join(CORPUS, sub), sigma) if not judgement_uses_sigma(j)]
    out += [(parse_context("B : *\nb : B"), _nested_redexes(d)) for d in range(1, 6)]
    # an open subterm, h a w, that the term has under a product and the reduct under a lambda
    out.append((parse_context("A : *\nP : A -> *\na : A\nh : A -> A -> A"), parse_expr(r"\p:(w:A) -> P (h a w). (\x:A. \z:A. h x z) a")))
    return out


def _spy_reused(monkeypatch):
    """Record ``(a, result)`` for each outermost call of ``_trans_reused`` and
    ``(a, result, taken from the table)`` for each call on a closed subterm."""
    outermost, closed, nesting = [], [], [0]
    original = translate._trans_reused

    def spy(w, a, depth):
        nesting[0] += 1
        try:
            t = original(w, a, depth)
        finally:
            nesting[0] -= 1
        if nesting[0] == 0:
            outermost.append((a, t))
        if not a._loose:
            closed.append((a, t, w.env._table.get(a) is t))
        return t

    monkeypatch.setattr(translate, "_trans_reused", spy)
    return outermost, closed


def test_reducts_translate_as_on_a_fresh_walk(cases, monkeypatch):
    outermost, closed = _spy_reused(monkeypatch)
    reducts = taken = 0
    for ctx, term in cases:
        del outermost[:], closed[:]
        check_reduction_preservation(ctx, term, 1)
        assert {a for a, _ in outermost} == step_all(term) and len(outermost) == len(step_all(term))
        for a, t in outermost:
            assert t == translate_term(TransEnv(ctx), a), print_expr(a)
        # every closed subterm translates alike wherever it sits, table or not
        for a, t, from_table in closed:
            assert t == translate_term(TransEnv(ctx), a), print_expr(a)
            taken += from_table
        reducts += len(outermost)
    assert reducts > 500 and taken > reducts, (reducts, taken)


def test_battery_reducts_translate_as_on_a_fresh_walk(cases, monkeypatch):
    outermost, _ = _spy_reused(monkeypatch)
    checked = 0
    for ctx, term in cases[::3]:
        del outermost[:]
        entries = run_report([Judgement("j", ctx, term, None)])
        assert any(e.name == "simulation" for e in entries) or not step_all(term)
        for a, t in outermost:
            assert t == translate_term(TransEnv(ctx), a), print_expr(a)
            checked += 1
    assert checked > 200


def test_term_translation_detail_is_printed_as_without_a_table(cases):
    for ctx, term in cases[::5]:
        [entry] = [e for e in run_report([Judgement("j", ctx, term, None)]) if e.name == "term-translation"]
        [alone] = [e for e in check_translation(ctx, term) if e.name == "term-translation"]
        assert entry.detail == alone.detail
        assert entry.detail.startswith(f"|- {print_expr(translate_term(TransEnv(ctx), term))} : ")


@pytest.mark.parametrize("text", [r"(\x:A. x) (g (g a))", r"k ((\x:A. x) a) (g (g a))"])
def test_battery_does_not_walk_a_shared_closed_argument_again(text, monkeypatch):
    ctx = parse_context("A : *\ng : A -> A\na : A\nk : A -> A -> A")
    term, shared = parse_expr(text), parse_expr("g (g a)")
    walked = []
    original = translate._trans_term
    monkeypatch.setattr(translate, "_trans_term", lambda w, a, depth: walked.append(a) or original(w, a, depth))
    entries = run_report([Judgement("j", ctx, term, infer_type(CC, ctx, term))])
    assert [e.ok for e in entries if e.name == "simulation"] == [True]
    assert sum(a == shared for a in walked) == 1  # in the term's translation only
    assert sum(a == term for a in walked) == 1


def test_only_the_simulation_keeps_a_table(monkeypatch, capsys):
    from ptskit.cli import main

    envs, calls = [], []
    init = TransEnv.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        envs.append(self)

    monkeypatch.setattr(TransEnv, "__init__", spy_init)
    for name in ("_trans_recorded", "_trans_reused"):
        original = getattr(translate, name)
        monkeypatch.setattr(translate, name, lambda *args, original=original: calls.append(args) or original(*args))
    ctx = parse_context("A : *\ng : A -> A\na : A")
    term = parse_expr(r"(\x:A. x) (g (g a))")
    check_translation(ctx, term)
    assert main(["translate", "--bind", "A : *", "--bind", "g : A -> A", "--bind", "a : A", r"(\x:A. x) (g a)"]) == 0
    capsys.readouterr()
    assert len(envs) == 2 and all(env._table is None for env in envs) and calls == []
    check_reduction_preservation(ctx, term)
    assert envs[-1]._table and calls
    del envs[:]
    run_report([Judgement("j", ctx, term, None)])
    assert [env._table is not None for env in envs] == [True]
