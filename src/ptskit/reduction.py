"""Beta reduction: single steps, normalization, conversion, key redexes.

Reduction is defined on raw syntax and never consults a PTS
specification; ill-typed terms reduce too, which is why every bounded
operation distinguishes "ran out of fuel" from a definite answer.

``leftmost_step``, ``trace`` and ``normalize`` follow the
leftmost-outermost (normal-order) strategy.  ``leftmost_step`` contracts
one redex and ``trace`` repeats it from the root; ``normalize`` makes
the same contractions in one pass, contracting a term's head redexes
first and then normalizing its components left to right.  Its fuel
counts contractions, and on exhaustion ``FuelExhausted.last`` is the
whole term after exactly ``fuel`` of them, the term ``trace`` shows
after that many steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    App,
    BVar,
    Expr,
    Lam,
    Pair,
    Pi,
    Proj1,
    Proj2,
    Sigma,
    SortE,
    Var,
    instantiate,
)

DEFAULT_FUEL = 10000


class FuelExhausted(Exception):
    """Raised when a bounded reduction runs out of steps.

    Carries the last intermediate term so callers can resume or report.
    """

    def __init__(self, last: Expr):
        super().__init__("fuel exhausted")
        self.last = last


class _Undetermined:
    """Tri-state result for bounded conversion; never a silent False."""

    def __bool__(self):
        raise TypeError("Undetermined is neither True nor False; compare with 'is UNDETERMINED'")

    def __repr__(self):
        return "UNDETERMINED"


UNDETERMINED = _Undetermined()


def enumerate_steps(e: Expr) -> list[tuple[str, str, Expr]]:
    """All single-step reducts with their position path and redex kind.

    Positions are dotted field paths ("fun.arg", "" for the root);
    kinds are "beta", "proj1", "proj2".  The result may repeat
    alpha-equal terms reached at different positions.
    """
    out: list[tuple[str, str, Expr]] = []
    _steps(e, "", out)
    return out


def _at(path: str, field: str) -> str:
    return f"{path}.{field}" if path else field


def _steps(e: Expr, path: str, out: list[tuple[str, str, Expr]]) -> None:
    match e:
        case SortE() | Var() | BVar():
            pass
        case Pi(h, dom, cod):
            for p, k, r in enumerate_steps(dom):
                out.append((_at(path, "dom") + (f".{p}" if p else ""), k, Pi(h, r, cod)))
            for p, k, r in enumerate_steps(cod):
                out.append((_at(path, "cod") + (f".{p}" if p else ""), k, Pi(h, dom, r)))
        case Lam(h, annot, body):
            for p, k, r in enumerate_steps(annot):
                out.append((_at(path, "annot") + (f".{p}" if p else ""), k, Lam(h, r, body)))
            for p, k, r in enumerate_steps(body):
                out.append((_at(path, "body") + (f".{p}" if p else ""), k, Lam(h, annot, r)))
        case App(fun, arg):
            if isinstance(fun, Lam):
                out.append((path, "beta", instantiate(fun.body, arg)))
            for p, k, r in enumerate_steps(fun):
                out.append((_at(path, "fun") + (f".{p}" if p else ""), k, App(r, arg)))
            for p, k, r in enumerate_steps(arg):
                out.append((_at(path, "arg") + (f".{p}" if p else ""), k, App(fun, r)))
        case Sigma(h, first, second):
            for p, k, r in enumerate_steps(first):
                out.append((_at(path, "fst") + (f".{p}" if p else ""), k, Sigma(h, r, second)))
            for p, k, r in enumerate_steps(second):
                out.append((_at(path, "snd") + (f".{p}" if p else ""), k, Sigma(h, first, r)))
        case Pair(first, second, annot):
            for p, k, r in enumerate_steps(first):
                out.append((_at(path, "fst") + (f".{p}" if p else ""), k, Pair(r, second, annot)))
            for p, k, r in enumerate_steps(second):
                out.append((_at(path, "snd") + (f".{p}" if p else ""), k, Pair(first, r, annot)))
        case Proj1(p0):
            if isinstance(p0, Pair):
                out.append((path, "proj1", p0.first))
            for p, k, r in enumerate_steps(p0):
                out.append((_at(path, "pair") + (f".{p}" if p else ""), k, Proj1(r)))
        case Proj2(p0):
            if isinstance(p0, Pair):
                out.append((path, "proj2", p0.second))
            for p, k, r in enumerate_steps(p0):
                out.append((_at(path, "pair") + (f".{p}" if p else ""), k, Proj2(r)))
        case _:
            raise TypeError(f"not an expression: {e!r}")


def step_all(e: Expr) -> set[Expr]:
    """The set of one-step reducts, deduplicated up to alpha-equality."""
    return {r for _, _, r in enumerate_steps(e)}


def leftmost_step(e: Expr) -> tuple[str, str, Expr] | None:
    """Contract the leftmost-outermost redex; None if e is normal."""
    match e:
        case SortE() | Var() | BVar():
            return None
        case App(fun, arg):
            if isinstance(fun, Lam):
                return "", "beta", instantiate(fun.body, arg)
            if (s := leftmost_step(fun)) is not None:
                p, k, r = s
                return _at("fun", p) if p else "fun", k, App(r, arg)
            if (s := leftmost_step(arg)) is not None:
                p, k, r = s
                return _at("arg", p) if p else "arg", k, App(fun, r)
            return None
        case Pi(h, dom, cod):
            if (s := leftmost_step(dom)) is not None:
                p, k, r = s
                return _at("dom", p) if p else "dom", k, Pi(h, r, cod)
            if (s := leftmost_step(cod)) is not None:
                p, k, r = s
                return _at("cod", p) if p else "cod", k, Pi(h, dom, r)
            return None
        case Lam(h, annot, body):
            if (s := leftmost_step(annot)) is not None:
                p, k, r = s
                return _at("annot", p) if p else "annot", k, Lam(h, r, body)
            if (s := leftmost_step(body)) is not None:
                p, k, r = s
                return _at("body", p) if p else "body", k, Lam(h, annot, r)
            return None
        case Sigma(h, first, second):
            if (s := leftmost_step(first)) is not None:
                p, k, r = s
                return _at("fst", p) if p else "fst", k, Sigma(h, r, second)
            if (s := leftmost_step(second)) is not None:
                p, k, r = s
                return _at("snd", p) if p else "snd", k, Sigma(h, first, r)
            return None
        case Pair(first, second, annot):
            if (s := leftmost_step(first)) is not None:
                p, k, r = s
                return _at("fst", p) if p else "fst", k, Pair(r, second, annot)
            if (s := leftmost_step(second)) is not None:
                p, k, r = s
                return _at("snd", p) if p else "snd", k, Pair(first, r, annot)
            return None
        case Proj1(p0):
            if isinstance(p0, Pair):
                return "", "proj1", p0.first
            if (s := leftmost_step(p0)) is not None:
                p, k, r = s
                return _at("pair", p) if p else "pair", k, Proj1(r)
            return None
        case Proj2(p0):
            if isinstance(p0, Pair):
                return "", "proj2", p0.second
            if (s := leftmost_step(p0)) is not None:
                p, k, r = s
                return _at("pair", p) if p else "pair", k, Proj2(r)
            return None
        case _:
            raise TypeError(f"not an expression: {e!r}")


@dataclass(frozen=True)
class StepTrace:
    """A reduction sequence with one (position, kind, result) per step."""

    start: Expr
    steps: tuple[tuple[str, str, Expr], ...]

    def terms(self) -> list[Expr]:
        return [self.start] + [r for _, _, r in self.steps]


def trace(e: Expr, fuel: int = DEFAULT_FUEL) -> tuple[StepTrace, bool]:
    """Leftmost-outermost trace; the flag reports truncation by fuel."""
    steps: list[tuple[str, str, Expr]] = []
    cur = e
    for _ in range(fuel):
        s = leftmost_step(cur)
        if s is None:
            return StepTrace(e, tuple(steps)), False
        steps.append(s)
        cur = s[2]
    truncated = leftmost_step(cur) is not None
    return StepTrace(e, tuple(steps)), truncated


def normalize(e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """Leftmost-outermost (normal-order) normalization in one pass.

    A term's head redexes are contracted first, in the order ``whnf``
    uses; then its components are normalized left to right, in the
    order ``leftmost_step`` visits them (the annotation of a pair is
    left untouched).  Once a term is in weak head normal form no
    reduction inside it can create a head redex, so this is exactly the
    contraction sequence of repeated ``leftmost_step`` from the root,
    without the re-descent after every step.

    ``fuel`` bounds the number of contractions (beta and projection
    steps) over the whole term.  A term that needs at most ``fuel`` of
    them is returned in normal form; otherwise ``FuelExhausted.last``
    is the whole term after exactly ``fuel`` contractions.  Subterms
    that need no contraction are returned as the same objects.
    """
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    return _nf(e, [fuel])


def _nf(e: Expr, budget: list[int], stop_at: type | None = None) -> Expr:
    """Normal form of ``e``, one frame per term level.

    With ``stop_at`` (``Lam`` for the function of an application,
    ``Pair`` for the subject of a projection) a weak head normal form of
    that class is returned as it is, because the redex above it comes
    next in leftmost-outermost order.  Head redexes are contracted in a
    loop at this level, so successive contractions at the root do not
    deepen the stack.  On fuel exhaustion each frame rebuilds its own
    node around the partial child before re-raising.
    """
    while True:
        match e:
            case SortE() | Var() | BVar():
                return e
            case App(fun, arg):
                try:
                    f = _nf(fun, budget, Lam)
                except FuelExhausted as exc:
                    exc.last = App(exc.last, arg)
                    raise
                if isinstance(f, Lam):
                    if budget[0] <= 0:
                        raise FuelExhausted(e if f is fun else App(f, arg))
                    budget[0] -= 1
                    e = instantiate(f.body, arg)
                    continue
                try:
                    a = _nf(arg, budget)
                except FuelExhausted as exc:
                    exc.last = App(f, exc.last)
                    raise
                return e if f is fun and a is arg else App(f, a)
            case Proj1(p) | Proj2(p):
                try:
                    q = _nf(p, budget, Pair)
                except FuelExhausted as exc:
                    exc.last = type(e)(exc.last)
                    raise
                if isinstance(q, Pair):
                    if budget[0] <= 0:
                        raise FuelExhausted(e if q is p else type(e)(q))
                    budget[0] -= 1
                    e = q.first if isinstance(e, Proj1) else q.second
                    continue
                return e if q is p else type(e)(q)
            case _ if type(e) is stop_at:
                return e
            case Pi(h, dom, cod) | Lam(h, dom, cod) | Sigma(h, dom, cod):
                try:
                    d = _nf(dom, budget)
                except FuelExhausted as exc:
                    exc.last = type(e)(h, exc.last, cod)
                    raise
                try:
                    c = _nf(cod, budget)
                except FuelExhausted as exc:
                    exc.last = type(e)(h, d, exc.last)
                    raise
                return e if d is dom and c is cod else type(e)(h, d, c)
            case Pair(first, second, annot):
                try:
                    a = _nf(first, budget)
                except FuelExhausted as exc:
                    exc.last = Pair(exc.last, second, annot)
                    raise
                try:
                    b = _nf(second, budget)
                except FuelExhausted as exc:
                    exc.last = Pair(a, exc.last, annot)
                    raise
                return e if a is first and b is second else Pair(a, b, annot)
            case _:
                raise TypeError(f"not an expression: {e!r}")


def whnf(e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """Reduce until the head is no beta/projection redex; spine only."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    budget = [fuel]
    return _whnf(e, budget)


def _whnf(e: Expr, budget: list[int]) -> Expr:
    match e:
        case App(fun, arg):
            fun = _whnf(fun, budget)
            if isinstance(fun, Lam):
                if budget[0] <= 0:
                    raise FuelExhausted(App(fun, arg))
                budget[0] -= 1
                return _whnf(instantiate(fun.body, arg), budget)
            return App(fun, arg)
        case Proj1(p):
            p = _whnf(p, budget)
            if isinstance(p, Pair):
                if budget[0] <= 0:
                    raise FuelExhausted(Proj1(p))
                budget[0] -= 1
                return _whnf(p.first, budget)
            return Proj1(p)
        case Proj2(p):
            p = _whnf(p, budget)
            if isinstance(p, Pair):
                if budget[0] <= 0:
                    raise FuelExhausted(Proj2(p))
                budget[0] -= 1
                return _whnf(p.second, budget)
            return Proj2(p)
        case _:
            return e


def beta_eq(a: Expr, b: Expr, fuel: int = DEFAULT_FUEL):
    """Bounded beta-conversion: True, False, or UNDETERMINED.

    Sound and complete on strongly normalizing terms with enough fuel;
    fuel exhaustion is reported, never conflated with inequality.
    """
    if a == b:
        return True
    try:
        na = normalize(a, fuel)
        nb = normalize(b, fuel)
    except FuelExhausted:
        return UNDETERMINED
    return na == nb


# ---------------------------------------------------------------------------
# Base expressions and key redexes


def is_base(e: Expr) -> bool:
    """True for a variable applied to any arguments, or projections of such."""
    match e:
        case Proj1(p) | Proj2(p):
            return is_base(p)
        case _:
            head = e
            while isinstance(head, App):
                head = head.fun
            return isinstance(head, (Var, BVar))


def key_redex_of(e: Expr) -> Expr | None:
    """The unavoidable head redex, if any.

    A beta redex is its own key redex; an application shares its
    function's key redex; projections share their subject's.
    """
    match e:
        case App(fun, _) if isinstance(fun, Lam):
            return e
        case App(fun, _):
            return key_redex_of(fun)
        case Proj1(p) | Proj2(p):
            return key_redex_of(p)
        case _:
            return None


def key_redex_path(e: Expr) -> str | None:
    """Position path of the key redex inside ``e`` (for step filtering)."""
    match e:
        case App(fun, _) if isinstance(fun, Lam):
            return ""
        case App(fun, _):
            p = key_redex_path(fun)
            return None if p is None else (_at("fun", p) if p else "fun")
        case Proj1(p0) | Proj2(p0):
            p = key_redex_path(p0)
            return None if p is None else (_at("pair", p) if p else "pair")
        case _:
            return None


def reduce_key_redex(e: Expr) -> Expr:
    """Contract exactly the key redex, in place."""
    match e:
        case App(fun, arg) if isinstance(fun, Lam):
            return instantiate(fun.body, arg)
        case App(fun, arg):
            return App(reduce_key_redex(fun), arg)
        case Proj1(p):
            return Proj1(reduce_key_redex(p))
        case Proj2(p):
            return Proj2(reduce_key_redex(p))
        case _:
            raise ValueError(f"no key redex in {e}")


# ---------------------------------------------------------------------------
# Bounded reachability and joinability


def reachable(a: Expr, b: Expr, max_depth: int, min_steps: int = 0) -> bool:
    """Is there a reduction path a ~>* b of length in [min_steps, max_depth]?

    Breadth-first over step_all with alpha-deduplication of the frontier.
    """
    if min_steps == 0 and a == b:
        return True
    visited = {a}
    frontier = {a}
    for _ in range(max_depth):
        nxt: set[Expr] = set()
        for t in frontier:
            nxt.update(step_all(t))
        if b in nxt:
            return True
        frontier = nxt - visited
        if not frontier:
            return False
        visited |= frontier
    return False


def reducts_within(e: Expr, depth: int) -> set[Expr]:
    """All terms reachable from e in at most ``depth`` steps (e included)."""
    visited = {e}
    frontier = {e}
    for _ in range(depth):
        nxt: set[Expr] = set()
        for t in frontier:
            nxt.update(step_all(t))
        frontier = nxt - visited
        if not frontier:
            break
        visited |= frontier
    return visited


def joinable(a: Expr, b: Expr, max_depth: int) -> bool:
    """Do the bounded reduct sets of a and b intersect (up to alpha)?"""
    seen_a = {a}
    seen_b = {b}
    if not seen_a.isdisjoint(seen_b):
        return True
    front_a, front_b = {a}, {b}
    for _ in range(max_depth):
        if not front_a and not front_b:
            return False
        if front_a:
            nxt: set[Expr] = set()
            for t in front_a:
                nxt.update(step_all(t))
            front_a = nxt - seen_a
            seen_a |= front_a
            if not seen_a.isdisjoint(seen_b):
                return True
        if front_b:
            nxt = set()
            for t in front_b:
                nxt.update(step_all(t))
            front_b = nxt - seen_b
            seen_b |= front_b
            if not seen_a.isdisjoint(seen_b):
                return True
    return False
