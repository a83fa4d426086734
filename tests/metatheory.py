"""Metatheory predicates that only the tests use: alpha-equality, base
expressions, the key redex's position and bounded joinability.  They are
stated over ``ptskit``'s terms and its bounded search, and the acceptance
gate and the examples in ``test_reduction``, ``test_labeled`` and
``test_syntax`` check them."""

from ptskit.reduction import _Budget, _search, reducts_within
from ptskit.syntax import BOUND, FREE, Expr, Node


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Equality up to bound-variable names (structural under the hood)."""
    return a == b


def is_base(e: Node) -> bool:
    """True for a variable applied to any arguments, or projections of such."""
    while e._head == "pair":
        e = e.pair
    while e._head == "fun":
        e = e.fun
    return e._role in (FREE, BOUND)


def key_redex_path(e: Node) -> str | None:
    """Position path of the key redex inside ``e`` (for step filtering)."""
    path = []
    while e._head is not None:
        if e._head == "fun" and e._fires():
            return ".".join(path)
        path.append(e._head)
        e = getattr(e, e._head)
    return None


def joinable(a: Node, b: Node, max_depth: int) -> bool:
    """Do the bounded reduct sets of a and b intersect (up to alpha)?"""
    return _search(a, _Budget(depth=max_depth), reducts_within(b, max_depth))[0]
