"""Expected answers for the benchmark's verdicts, computed without ptskit.

The walkers here read terms only through their class names and field
names (the ones ``match`` statements in ptskit use), never through a
ptskit function, so a bug in ptskit cannot make its own output look
right.  Every walker is a loop, not a recursion, because the terms it
checks (a Church numeral n*n, a 150-deep application spine) are as deep
as the program's own recursion ceiling.
"""

from __future__ import annotations

import hashlib


class Mismatch(Exception):
    """A verdict differs from the oracle's answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _kind(e) -> str:
    return type(e).__name__


def _is(e, kind: str, **fields) -> bool:
    return _kind(e) == kind and all(getattr(e, k) == v for k, v in fields.items())


def church_value(e) -> int:
    """k when ``e`` is ``\\A:*. \\f:A -> A. \\x:A. f (f (... x))`` with k f's."""
    expect(_is(e, "Lam") and _is(e.annot, "SortE", name="*"), "numeral: no \\A:*")
    f = e.body
    expect(
        _is(f, "Lam") and _is(f.annot, "Pi") and _is(f.annot.dom, "BVar", index=0)
        and _is(f.annot.cod, "BVar", index=1),
        "numeral: no \\f:A -> A",
    )
    x = f.body
    expect(_is(x, "Lam") and _is(x.annot, "BVar", index=1), "numeral: no \\x:A")
    body, k = x.body, 0
    while _is(body, "App") and _is(body.fun, "BVar", index=1):
        body, k = body.arg, k + 1
    expect(_is(body, "BVar", index=0), "numeral: spine does not end in x")
    return k


def arrow_chain(ty, arrows: int, pi: str = "Pi", sort: str = "SortE", bvar: str = "BVar") -> None:
    """``ty`` is ``(A:*) -> A -> ... -> A`` with ``arrows`` arrows after ``A``.

    The class names default to the plain syntax; pass ``LPi``, ``LSort``
    and ``LBVar`` for a labeled type.
    """
    expect(_is(ty, pi) and _is(ty.dom, sort, name="*"), "type does not start with (A:*)")
    ty = ty.cod
    for depth in range(arrows):
        expect(_is(ty, pi) and _is(ty.dom, bvar, index=depth), f"arrow {depth} is not A -> ...")
        ty = ty.cod
    expect(_is(ty, bvar, index=arrows), "type does not end in A")


def labeled_nest(la, binders: int) -> None:
    """``la`` is the elaboration of ``\\A:*. \\x0:A. ... x0`` (``binders`` x's)."""
    expect(_is(la, "LLam") and _is(la.dom, "LSort", name="*"), "labeled: no \\A:*")
    la = la.body
    for depth in range(binders):
        expect(_is(la, "LLam") and _is(la.dom, "LBVar", index=depth), f"labeled: binder x{depth}")
        la = la.body
    expect(_is(la, "LBVar", index=binders - 1), "labeled: body is not x0")


def spine(e, depth: int, app: str, var: str) -> None:
    """``e`` is ``f (f (... x))`` with ``depth`` applications of ``f``.

    ``app``/``var`` name the node classes: ``App``/``Var`` for plain
    terms, ``LApp``/``LVar`` for labeled ones.
    """
    for level in range(depth):
        expect(_is(e, app) and _is(e.fun, var, name="f"), f"spine level {level} is not f applied")
        e = e.arg
    expect(_is(e, var, name="x"), "spine does not end in x")


def entries_pass(entries, names: list[str]) -> int:
    """Every check entry passes and the entries are exactly ``names``."""
    got = [(e.ok, e.name) for e in entries]
    expect(got == [(True, n) for n in names], f"checks {got}, expected all PASS {names}")
    return len(entries)


# ---------------------------------------------------------------------------
# Input digests


_CHILDREN = {
    "SortE": ("name",),
    "Var": ("name",),
    "BVar": ("index",),
    "Pi": ("dom", "cod"),
    "Lam": ("annot", "body"),
    "App": ("fun", "arg"),
    "Sigma": ("first", "second"),
    "Pair": ("first", "second", "annot"),
    "Proj1": ("pair",),
    "Proj2": ("pair",),
}


def serialize(e) -> str:
    """A structural prefix rendering of a term; binder hints are left out."""
    out: list[str] = []
    todo = [e]
    while todo:
        node = todo.pop()
        if isinstance(node, (str, int)):
            out.append(repr(node))
            continue
        kind = _kind(node)
        out.append(kind)
        todo.extend(getattr(node, f) for f in reversed(_CHILDREN[kind]))
    return " ".join(out)


class Digest:
    """sha256 over everything a workload generates from its seed."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            data = part if isinstance(part, bytes) else str(part).encode()
            self._h.update(len(data).to_bytes(8, "little"))
            self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
