"""Erasure as a table walk, and erasure compared without being built.

``erase`` reads each labeled class's ``_erasure`` table, and the battery
decides ``erase(l) == p`` with ``labeled._erases_to``, which builds
nothing.  ``report_oracle.erase`` is the hand-written ``erase`` they
replaced; both must agree with it on every elaborated generated and
corpus term, on each of their tight steps, and on near misses.
"""

from __future__ import annotations

import os

import pytest

from ptskit.syntax import CC, App, LabeledExpr, LApp, LLam, LSort, LVar, Lam, SortE, Var, STAR
from ptskit.reduction import step_all
from ptskit.typecheck import TypeCheckError, infer_type
from ptskit.labeled import _erases_to, erase, label_term, tight_step_all
from ptskit.corpus import load_corpus_dir

from generators import typed_pool_context, typed_terms
from report_oracle import erase as oracle_erase

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


@pytest.fixture(scope="module")
def elaborated():
    """``(plain term, its elaboration)`` for typed_terms(7, 600) and every corpus term that elaborates."""
    pool = typed_pool_context()
    pairs = [(pool, t) for t in typed_terms(7, 600)]
    for sub, sigma in (("cc", False), ("sigma", True)):
        pairs += [(j.ctx, j.term) for j in load_corpus_dir(os.path.join(CORPUS, sub), sigma_enabled=sigma)]
    out = []
    for ctx, t in pairs:
        try:
            out.append((t, label_term(CC, ctx, t)))
        except TypeCheckError:
            continue  # a sigma term, or one CC does not type
    assert len(out) > 600
    return out


def test_erase_matches_the_hand_written_erase(elaborated):
    for t, la in elaborated:
        for l in (la, *tight_step_all(la)):
            got, want = erase(l), oracle_erase(l)
            assert got == want and repr(got) == repr(want)  # hints too
        assert erase(la) == t


def test_erases_to_decides_erase_equality(elaborated):
    compared = tight = 0
    for t, la in elaborated:
        plain = step_all(t)
        assert _erases_to(la, t)
        for p in plain:
            assert _erases_to(la, p) == (oracle_erase(la) == p)
        for r in tight_step_all(la):
            tight += 1
            for p in (t, *plain):
                assert _erases_to(r, p) == (oracle_erase(r) == p)
                compared += 1
    assert tight > 300 and compared > tight


def _leaves_changed(la: LabeledExpr):
    """``la`` with each leaf in turn replaced: a variable renamed, a sort swapped."""
    match la:
        case LVar(name):
            yield LVar(name + "'")
        case LSort(name):
            yield LSort("#" if name == STAR else STAR)
        case _ if la._role is None:
            names = la.__match_args__
            for i, field in enumerate(names):
                child = getattr(la, field)
                if isinstance(child, LabeledExpr):
                    for changed in _leaves_changed(child):
                        values = [getattr(la, f) for f in names]
                        values[i] = changed
                        yield type(la)(*values)


def test_erases_to_on_near_misses(elaborated):
    misses = 0
    for t, la in elaborated[:200]:
        for changed in _leaves_changed(la):
            # a changed leaf the erasure keeps: unequal, unless it sat in a dropped label
            assert _erases_to(changed, t) == (oracle_erase(changed) == t)
            misses += not _erases_to(changed, t)
    assert misses > 500

    lam = LLam("x", LVar("A"), LVar("A"), LVar("a"))
    plain = Lam("x", Var("A"), Var("a"))
    assert _erases_to(lam, plain)
    assert _erases_to(lam, Lam("y", Var("A"), Var("a")))  # a differing hint: equal, as in ==
    assert _erases_to(LLam("x", LVar("A"), LVar("B"), LVar("a")), plain)  # erasure drops cod
    assert not _erases_to(lam, Lam("x", Var("B"), Var("a")))
    app = LApp("x", LVar("A"), LVar("A"), lam, LVar("a"))
    assert _erases_to(app, App(plain, Var("a")))
    # a class mismatch, at the root and below it
    assert not _erases_to(lam, App(Var("A"), Var("a")))
    assert not _erases_to(LVar("a"), SortE("a"))
    assert not _erases_to(app, App(plain, SortE("a")))


def test_erase_rejects_plain_input():
    for bad in (Var("a"), Lam("x", Var("A"), Var("a")), "a", None):
        with pytest.raises(TypeError, match="^not a labeled expression: "):
            erase(bad)


def test_battery_compares_erasures_without_building_them(monkeypatch):
    from ptskit import corpus, labeled
    from ptskit.corpus import Judgement, run_report

    built = []
    monkeypatch.setattr(labeled, "erase", lambda la: built.append(la) or erase(la))
    pool = typed_pool_context()
    js = [Judgement(f"t{i}", pool, t, infer_type(CC, pool, t)) for i, t in enumerate(typed_terms(7, 40))]
    entries = run_report(js)
    assert [e.name for e in entries].count("tight-erasure") == len(js) and all(e.ok for e in entries)
    assert built == [] and not hasattr(corpus, "erase")
