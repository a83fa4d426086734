"""The directed simulation search against the root-only search it replaced.

``check_reduction_preservation`` follows key redexes in the subterms
where the two translations differ before it searches from the whole
translated term.  The copy below is the check as it was before,
verbatim apart from returning plain tuples: one breadth-first search
from the root per source step.  Both must give the same entries, in the
same order, at every depth.
"""

from __future__ import annotations

import pytest

from ptskit import translate
from ptskit.corpus import judgement_uses_sigma, load_corpus_dir
from ptskit.reduction import reachable, step_all
from ptskit.syntax import print_expr
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


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 12])
def test_directed_simulation_matches_the_root_search(cases, depth):
    fails = 0
    for ctx, term in cases:
        got = [(e.ok, e.name, e.detail) for e in check_reduction_preservation(ctx, term, depth)]
        assert got == root_bfs_simulation(ctx, term, depth), (print_expr(term), depth)
        fails += sum(not ok for ok, _, _ in got)
    if depth == 1:
        assert fails  # the comparison covers FAIL entries too


def test_few_steps_need_the_root_search(cases, monkeypatch):
    """Directed paths find nearly every simulated step without a search."""
    roots = []  # the translated term of the source term being checked
    root_hits = 0

    def spy(a, b, max_depth, min_steps=0):
        nonlocal root_hits
        hit = reachable(a, b, max_depth, min_steps)
        root_hits += hit and a == roots[-1]
        return hit

    monkeypatch.setattr(translate, "reachable", spy)
    steps = 0
    for ctx, term in cases:
        roots.append(translate_term(TransEnv(ctx), term))
        entries = check_reduction_preservation(ctx, term, 12)
        assert all(e.ok for e in entries), print_expr(term)
        steps += len(entries)
    assert steps > 2000
    assert root_hits <= steps // 10, (root_hits, steps)
