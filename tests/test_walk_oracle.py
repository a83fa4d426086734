"""The binder walks against copies of themselves that walk every node.

Each node records ``_loose`` (1 + its largest dangling index, 0 if none)
and ``_fv`` (a mask of its free names), and the walks of ``syntax``
return unchanged every subterm these summaries show they cannot change.
The copies below are the walks as they were before the summaries,
verbatim: the pruned walks must give equal results on the same inputs,
and every node's summaries must equal a recomputation from scratch.
"""

from __future__ import annotations

import functools
import os
import random

from hypothesis import given, settings

from ptskit import syntax
from ptskit.corpus import load_corpus_dir
from ptskit.labeled import label_context, label_term
from ptskit.syntax import BOUND, FREE, BVar, LBVar, LVar, Node, Var, App, LApp, LPi, Pi

from generators import typed_pool_context, typed_terms, untyped_term
from test_syntax import exprs, sigma_exprs

# ---------------------------------------------------------------------------
# The unpruned walks


def free_vars(e: Node) -> frozenset[str]:
    out: set[str] = set()
    _free_vars(e, out)
    return frozenset(out)


def _free_vars(e: Node, out: set[str]) -> None:
    role = e._role
    if role is None:
        for name, _ in e._children:
            _free_vars(getattr(e, name), out)
    elif role == FREE:
        out.add(e.name)


def _shift(e: Node, by: int, cutoff: int) -> Node:
    """Add ``by`` to every dangling index >= cutoff."""
    role = e._role
    if role is None:
        args = []
        for name, binders in e._fields:
            v = getattr(e, name)
            args.append(v if binders is None else _shift(v, by, cutoff + binders))
        return type(e)(*args)
    if role == BOUND and e.index >= cutoff:
        return type(e)(e.index + by)
    return e


def instantiate(body: Node, arg: Node, depth: int = 0) -> Node:
    """Remove the innermost binder of ``body``, replacing its variable by ``arg``."""
    role = body._role
    if role is None:
        args = []
        for name, binders in body._fields:
            v = getattr(body, name)
            args.append(v if binders is None else instantiate(v, arg, depth + binders))
        return type(body)(*args)
    if role == BOUND:
        i = body.index
        if i == depth:
            return _shift(arg, depth, 0) if depth else arg
        if i > depth:
            return type(body)(i - 1)
    return body


def close_binder(e: Node, name: str, depth: int = 0) -> Node:
    """Abstract free occurrences of ``name`` into the binder being built.

    ``e`` must not contain dangling indices of its own.
    """
    role = e._role
    if role is None:
        args = []
        for f, binders in e._fields:
            v = getattr(e, f)
            args.append(v if binders is None else close_binder(v, name, depth + binders))
        return type(e)(*args)
    if role == FREE and e.name == name:
        return e._bound(depth)
    return e


def subst(target: Node, name: str, replacement: Node) -> Node:
    """Capture-avoiding substitution of ``replacement`` for free ``name``.

    Capture is impossible by construction: bound variables are indices,
    and the free variables of ``replacement`` stay free.
    """
    role = target._role
    if role is None:
        args = []
        for f, binders in target._fields:
            v = getattr(target, f)
            args.append(v if binders is None else subst(v, name, replacement))
        return type(target)(*args)
    if role == FREE and target.name == name:
        return replacement
    return target


def _mentions_bound(e: Node, depth: int = 0) -> bool:
    role = e._role
    if role is None:
        for name, binders in e._children:
            if _mentions_bound(getattr(e, name), depth + binders):
                return True
        return False
    return role == BOUND and e.index == depth


# ---------------------------------------------------------------------------
# The summaries from scratch


def dangling(e: Node, depth: int = 0) -> set[int]:
    """The dangling indices of ``e``, as seen from its root."""
    if e._role == BOUND:
        return {e.index - depth} if e.index >= depth else set()
    out: set[int] = set()
    for name, binders in e._children:
        out |= dangling(getattr(e, name), depth + binders)
    return out


def loose_range(e: Node) -> int:
    return 1 + max(dangling(e), default=-1)


def name_mask(e: Node) -> int:
    mask = 0
    for name in free_vars(e):
        h = hash(name)
        mask |= 1 << (h & 63) | 1 << (h >> 6 & 63)
    return mask


def subterms(e: Node) -> list[Node]:
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        out.append(e)
        todo.extend(getattr(e, f) for f, _ in e._children)
    return out


@functools.cache
def collider(name: str) -> str:
    """Another name with the mask bits of ``name``: the pruned walks must
    look inside subterms whose mask only seems to hold it."""
    bits = syntax._name_bits(name)
    for i in range(1_000_000):
        other = f"{name}{i}"
        if syntax._name_bits(other) == bits:
            return other
    raise AssertionError("no colliding name found")


def same(a: Node, b: Node) -> bool:
    """Equal, binder hints included."""
    return a == b and repr(a) == repr(b)


def check_walks(term: Node) -> int:
    """Compare every pruned walk with its copy above on each subterm of
    ``term``; returns the number of subterms checked."""
    names = sorted(free_vars(term))
    probes = names[:3] + ["zz"] + [collider(n) for n in names[:2]]
    nodes = subterms(term)
    for e in nodes:
        assert e._loose == loose_range(e), repr(e)
        assert e._fv == name_mask(e), repr(e)
        fv = free_vars(e)
        assert syntax.free_vars(e) == fv
        leaf = LVar if isinstance(e, syntax.LabeledExpr) else Var
        bound = LBVar if leaf is LVar else BVar
        app = LApp if leaf is LVar else App
        args = [leaf("a"), bound(0), app(*(["h", leaf("T"), leaf("T")] if leaf is LVar else []), bound(1), leaf("b"))]
        for depth in range(3):
            assert syntax._mentions_bound(e, depth) == _mentions_bound(e, depth)
            for by in (1, 2):
                assert same(syntax._shift(e, by, depth), _shift(e, by, depth))
            for arg in args:
                assert same(syntax.instantiate(e, arg, depth), instantiate(e, arg, depth))
        for name in probes:
            assert syntax.occurs(name, e) == (name in fv), (name, repr(e))
            for depth in (0, 1):
                assert same(syntax.close_binder(e, name, depth), close_binder(e, name, depth))
            for replacement in args[:1] + args[2:]:
                assert same(syntax.subst(e, name, replacement), subst(e, name, replacement))
    return len(nodes)


def test_pruned_walks_match_the_full_walks_on_generated_terms():
    pool = typed_pool_context()
    checked = 0
    for seed in range(1, 4):
        rng = random.Random(seed)
        for term in typed_terms(seed=seed, count=30):
            checked += check_walks(term)
            checked += check_walks(label_term(syntax.CC, pool, term))
            checked += check_walks(untyped_term(rng))
    for _, ty in label_context(syntax.CC, pool):
        checked += check_walks(ty)
    assert checked > 3000


def test_pruned_walks_match_the_full_walks_on_the_corpus():
    root = os.path.join(os.path.dirname(__file__), "..", "corpus")
    for sub, sigma in (("cc", False), ("sigma", True)):
        for j in load_corpus_dir(os.path.join(root, sub), sigma):
            for node in [j.term, *(ty for _, ty in j.ctx)] + ([j.ty] if j.ty is not None else []):
                check_walks(node)


@given(exprs())
@settings(max_examples=50, deadline=None)
def test_pruned_walks_match_the_full_walks_on_expressions(e):
    check_walks(e)
    # a body with dangling indices of its own, as opened binders see it
    check_walks(Pi("x", e, syntax.close_binder(App(e, Var("y")), "y", 1)))


@given(sigma_exprs())
@settings(max_examples=50, deadline=None)
def test_pruned_walks_match_the_full_walks_with_sigma(e):
    check_walks(e)


def test_summaries_of_labeled_products():
    # one binder scopes over the codomain, none over the domain
    p = LPi("x", LBVar(3), LBVar(0))
    assert (p._loose, p._fv) == (4, 0)
    assert LPi("x", LVar("a"), LBVar(2))._loose == 2
