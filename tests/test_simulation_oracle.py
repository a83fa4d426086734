"""The simulation check against the root-only search it replaced.

``check_reduction_preservation`` decides each source step by the
simulation lemma's construction alone: it follows key redexes in the
subterms where the two translations differ, and it never searches.  The
copy below is the check as it was before, verbatim apart from returning
plain tuples: one breadth-first search from the root per source step.
The two must pass the same entries, in the same order, at every depth;
an entry the construction does not pass is UNDECIDED where its path was
cut by the depth, and a FAIL only where the root search finds no path
either.
"""

from __future__ import annotations

import pytest

from ptskit import reduction, translate, typecheck
from ptskit.corpus import judgement_uses_sigma, load_corpus_dir
from ptskit.reduction import reachable, step_all
from ptskit.syntax import parse_context, parse_expr, print_expr
from ptskit.translate import TransEnv, check_reduction_preservation, translate_term

from generators import typed_pool_context, typed_terms


def root_bfs_simulation(ctx, a, max_depth):
    try:
        ta = translate_term(TransEnv(ctx), a)
    except (ValueError, KeyError) as err:
        return [(False, "simulation", f"setup failed: {err}")]
    entries = []
    for reduct in sorted(step_all(a), key=print_expr):
        detail = f"{print_expr(a)} ~> {print_expr(reduct)}"
        try:
            t_reduct = translate_term(TransEnv(ctx), reduct)
        except (ValueError, KeyError) as err:
            entries.append((False, "simulation", f"{detail} ({err})"))
            continue
        ok = reachable(ta, t_reduct, max_depth, min_steps=1)
        entries.append((ok, "simulation", detail))
    return entries


@pytest.fixture(scope="module")
def cases():
    """(ctx, term) for typed_terms seeds 1-3 and every core judgement of corpus/cc."""
    ctx = typed_pool_context()
    out = [(ctx, t) for seed in (1, 2, 3) for t in typed_terms(seed, 600)]
    out += [(j.ctx, j.term) for j in load_corpus_dir("corpus/cc") if not judgement_uses_sigma(j)]
    return out


# UNDECIDED entries per depth on ``cases``, whose 2,189 directed paths all take 2 steps or more
UNDECIDED = {1: 2189, 2: 427, 3: 386, 4: 0, 12: 0}


@pytest.mark.parametrize("depth", sorted(UNDECIDED))
def test_directed_simulation_matches_the_root_search(cases, depth):
    undecided = failed = steps = 0
    for ctx, term in cases:
        entries = check_reduction_preservation(ctx, term, depth)
        got = [(e.ok, e.name, e.detail) for e in entries]
        assert got == root_bfs_simulation(ctx, term, depth), (print_expr(term), depth)
        for i, e in enumerate(entries):
            if not e.ok and not e.undecided:  # a FAIL: the root search finds no path at depth 12 either
                assert not root_bfs_simulation(ctx, term, 12)[i][0], (print_expr(term), e.detail)
        undecided += sum(e.undecided for e in entries)
        failed += sum(not e.ok for e in entries)
        steps += len(entries)
    assert steps == 2189
    assert failed == undecided == UNDECIDED[depth]  # every entry not passed is UNDECIDED


def _no_search(monkeypatch):
    """Make every reachability search raise, wherever it was imported."""

    def refuse(*args, **kwargs):
        raise AssertionError("the simulation check searched")

    assert not hasattr(translate, "_search")
    monkeypatch.setattr(reduction, "_search", refuse)
    monkeypatch.setattr(typecheck, "_search", refuse)


def test_the_construction_passes_every_step_without_search(cases, monkeypatch):
    _no_search(monkeypatch)
    steps = 0
    for ctx, term in cases:
        entries = check_reduction_preservation(ctx, term, 12)
        assert all(e.ok for e in entries), print_expr(term)
        steps += len(entries)
    assert steps == 2189


@pytest.mark.parametrize("n", [10, 40])
def test_a_cut_under_many_binders_is_undecided_without_search(monkeypatch, n):
    # each lambda adds a _y redex beside the step; the annotation step takes 4 steps
    _no_search(monkeypatch)
    ctx = parse_context("A : *\na : A")
    term = parse_expr("".join(rf"\x{i}:A. " for i in range(n)) + r"\y:(\X:*. X) A. a")
    [entry] = check_reduction_preservation(ctx, term, 3)
    assert entry.undecided and entry.line().startswith("UNDECIDED simulation ")
    [entry] = check_reduction_preservation(ctx, term, 4)
    assert entry.ok
