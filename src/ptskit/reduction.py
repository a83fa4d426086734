"""Beta reduction: single steps, normalization, conversion, key redexes.

Reduction is defined on raw syntax and never consults a PTS
specification; ill-typed terms reduce too, which is why every bounded
operation distinguishes "ran out of fuel" from a definite answer.

Every walk here but the evaluator (``enumerate_steps``,
``leftmost_step``, ``_nf``, ``whnf``, the key-redex functions and the
bounded search) reads the shape tables of ``syntax.Node``, so each
serves labeled terms, with tight reduction, as well as plain ones.

``leftmost_step``, ``trace`` and ``normalize`` follow the
leftmost-outermost (normal-order) strategy.  ``leftmost_step`` contracts
one redex and ``trace`` repeats it from the root; ``normalize`` makes
the same contractions in one pass, contracting a term's head redexes
first and then normalizing its components left to right.  Its fuel
counts contractions, and on exhaustion ``FuelExhausted.last`` is the
whole term after exactly ``fuel`` of them, the term ``trace`` shows
after that many steps.  On labeled terms ``leftmost_step`` visits an
application's labels before its function, so there ``normalize``
contracts in another order than ``trace`` but reaches the same tight
normal form.

``normalize`` and ``beta_eq`` evaluate plain core terms to closures and
read them back (``_eval``, ``_quote``), call-by-name without sharing:
each occurrence of an argument is reduced on its own, as substitution
copies it, so the contractions and their order are normal order's.  A
dangling index is a read-back level, as the typing walks' open types
need.  The substituting ``_nf`` stays for labeled terms (tight-beta
compares labels), pairs and projections, and ``FuelExhausted.last``.
"""

from __future__ import annotations

from .syntax import BOUND, FREE, App, BVar, Expr, Lam, Node, Pi, Record, SortE, Var, _set

DEFAULT_FUEL = 10000
DEFAULT_DEPTH = 12  # bound on the steps of a reduction-path search (``reachable``)


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


def enumerate_steps(e: Node) -> list[tuple[str, str, Node]]:
    """All single-step reducts with their position path and redex kind.

    Positions are dotted field paths ("fun.arg", "" for the root);
    kinds are "beta", "proj1", "proj2", and "tight-beta" on labeled
    terms.  The root comes first, then each step position of the shape
    table in order.  The result may repeat alpha-equal terms reached at
    different positions.
    """
    out: list[tuple[str, str, Node]] = []
    if e._redex is not None and e._fires():
        out.append(("", e._redex, e._contract()))
    for name, pos in e._positions:
        for p, k, r in enumerate_steps(getattr(e, name)):
            out.append((f"{pos}.{p}" if p else pos, k, _rebuild(e, name, r)))
    return out


def _rebuild(e: Node, name: str, child: Node) -> Node:
    """``e`` with its field ``name`` replaced by ``child``."""
    return type(e)(*[child if f == name else getattr(e, f) for f, _ in e._fields])


def step_all(e: Node) -> set[Node]:
    """The set of one-step reducts, deduplicated up to alpha-equality.

    On labeled terms these are the tight steps: the root beta fires only
    on equal labels.
    """
    return {r for _, _, r in enumerate_steps(e)}


def leftmost_step(e: Node) -> tuple[str, str, Node] | None:
    """Contract the leftmost-outermost redex; None if e is normal."""
    if e._redex is not None and e._fires():
        return "", e._redex, e._contract()
    for name, pos in e._positions:
        s = leftmost_step(getattr(e, name))
        if s is not None:
            p, k, r = s
            return (f"{pos}.{p}" if p else pos), k, _rebuild(e, name, r)
    return None


class StepTrace(Record):
    """A reduction sequence with one (position, kind, result) per step."""

    __slots__ = __match_args__ = ("start", "steps")

    def __init__(self, start: Expr, steps: tuple[tuple[str, str, Expr], ...]):
        _set(self, "start", start)
        _set(self, "steps", steps)

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
    """Leftmost-outermost (normal-order) normalization.

    A term's head redexes are contracted first, in the order ``whnf``
    uses; then its components are normalized left to right, in the
    order ``leftmost_step`` visits them (the annotation of a pair is
    left untouched).  Once a term is in weak head normal form no
    reduction inside it can create a head redex, so this is exactly the
    contraction sequence of repeated ``leftmost_step`` from the root,
    without the re-descent after every step.

    Plain core terms are evaluated and read back, which makes the same
    contractions (see the module docstring); other terms go to ``_nf``.

    ``fuel`` bounds the number of contractions (beta and projection
    steps) over the whole term.  A term that needs at most ``fuel`` of
    them is returned in normal form; otherwise ``FuelExhausted.last``
    is the whole term after exactly ``fuel`` contractions, which ``_nf``
    rebuilds when the evaluator ran out.  Subterms that need no
    contraction are returned as the same objects.
    """
    try:
        return _normal_form(e, fuel)
    except FuelExhausted as exc:
        if exc.last is not None:
            raise
    return _nf(e, [fuel])  # the evaluator keeps no partial term: replay its steps


def _normal_form(e: Node, fuel: int) -> Node:
    """``normalize`` whose ``FuelExhausted.last`` is None when the evaluator ran out."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    if e._role is not None:
        return e
    if isinstance(e, Expr):
        env = None
        for level in range(e._loose):  # a dangling index i stands for level _loose - 1 - i
            env = (level, env)
        try:
            return _quote(e, env, e._loose, [fuel], e._loose)
        except _Unsupported:
            pass
    return _nf(e, [fuel])


def _nf(e: Node, budget: list[int], stop_at: type | None = None) -> Node:
    """Normal form of ``e`` by substitution, one frame per term level.

    An elimination form first brings its head to normal form, stopping
    at a weak head normal form of its ``_intro`` class (``Lam`` for the
    function of an application, ``Pair`` for the subject of a
    projection), because the redex above it comes next in
    leftmost-outermost order.  With ``stop_at`` such a term is returned
    as it is.  Head redexes are contracted in a loop at this level, so
    successive contractions at the root do not deepen the stack; then
    the other step positions are normalized in table order.  A head that
    stopped at an introduction form that does not fire (tight-beta on
    unequal labels) is normalized with them, and the node is checked
    again, since normal labels may agree.  On fuel exhaustion each frame
    rebuilds its own node around the partial child before re-raising.
    """
    while True:
        if e._role is not None:
            return e
        head = skip = e._head
        if head is None:
            if type(e) is stop_at:
                return e
        else:
            h = getattr(e, head)
            try:
                f = _nf(h, budget, e._intro)
            except FuelExhausted as exc:
                exc.last = _rebuild(e, head, exc.last)
                raise
            if f is not h:
                e = _rebuild(e, head, f)
            if e._fires():
                if budget[0] <= 0:
                    raise FuelExhausted(e)
                budget[0] -= 1
                e = e._contract()
                continue
            if type(f) is e._intro:
                skip = None  # a tight-beta blocked by labels: see below
        for name, _ in e._positions:
            if name == skip:
                continue
            v = getattr(e, name)
            try:
                r = _nf(v, budget)
            except FuelExhausted as exc:
                exc.last = _rebuild(e, name, exc.last)
                raise
            if r is not v:
                e = _rebuild(e, name, r)
        if skip is not None or head is None or not e._fires():
            return e


class _Unsupported(Exception):
    """The evaluator met a node it leaves to ``_nf``: a Sigma, a pair or a projection."""


def _eval(t: Expr, env: tuple | None, budget: list[int]):
    """The weak head normal form of ``t`` under ``env``: a level (an int), a
    ``Var`` or ``SortE``, a closure ``(term, env)`` of a ``Lam`` or ``Pi``, or a
    stuck application ``(app, env, fun)`` whose function's value ``fun`` is no
    lambda.  An environment links ``(entry, rest)``, None at the end; the entry,
    index 0, is the level of a binder the read-back entered or an unevaluated
    argument ``(term, env)``."""
    while True:
        cls = type(t)
        if cls is App:
            f = _eval(t.fun, env, budget)
            if type(f) is not tuple or type(f[0]) is not Lam:
                return t, env, f
            if budget[0] <= 0:
                raise FuelExhausted(None)
            budget[0] -= 1
            t, env = f[0].body, ((t.arg, env), f[1])
        elif cls is BVar:
            for _ in range(t.index):
                env = env[1]
            if type(env[0]) is int:
                return env[0]
            t, env = env[0]
        elif cls is Lam or cls is Pi:
            return t, env
        elif cls is Var or cls is SortE:
            return t
        else:
            raise _Unsupported


def _quote(t: Expr, env: tuple | None, depth: int, budget: list[int], own: int = 0) -> Expr:
    """The normal form of ``t`` under ``env``, read back under ``depth`` binders
    (Coquand, SCP 1996; Abel, 2013).  Binders are entered with levels, and
    annotations, domains and arguments read back in ``_positions`` order; a
    subterm comes back as the same object when its children do.  The innermost
    ``own`` entries of ``env`` are the levels of the binders this read-back
    entered, so an index below ``own`` stands for itself, without a lookup."""
    while True:
        cls = type(t)
        if cls is Lam or cls is Pi:
            x, y = (t.annot, t.body) if cls is Lam else (t.dom, t.cod)
            a = _quote(x, env, depth, budget, own)
            b = _quote(y, (depth, env), depth + 1, budget, own + 1)
            return t if a is x and b is y else cls(t.hint, a, b)
        if cls is Var or cls is SortE:
            return t
        if cls is BVar:
            if t.index < own:
                return t
            link = env
            for _ in range(t.index):
                link = link[1]
            if type(link[0]) is not int:
                (t, env), own = link[0], 0  # an argument: read back its term
                continue
            i = depth - 1 - link[0]
            return t if i == t.index else BVar(i)
        v = _eval(t, env, budget)
        spine = []
        while type(v) is tuple and len(v) == 3:
            spine.append(v)
            t, v = v[0].fun, v[2]  # t: the term the head's value came from
        if type(v) is int:  # a variable the read-back bound: t if it is that one
            i = depth - 1 - v
            f = t if type(t) is BVar and t.index == i else BVar(i)
        elif type(v) is not tuple:
            f = v
        elif spine:  # a product applied
            f = _quote(*v, depth, budget)
        else:  # a closure: read back its binder
            (t, env), own = v, 0
            continue
        for app, arg_env, _ in reversed(spine):
            a = _quote(app.arg, arg_env, depth, budget, own if arg_env is env else 0)
            f = app if f is app.fun and a is app.arg else App(f, a)
        return f


def whnf(e: Node, fuel: int = DEFAULT_FUEL) -> Node:
    """Reduce until the head is no beta/projection redex; spine only.

    On fuel exhaustion ``FuelExhausted.last`` is the whole term after
    exactly ``fuel`` contractions, as in ``normalize``."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    return _whnf(e, [fuel])


def _whnf(e: Node, budget: list[int]) -> Node:
    while e._head is not None:
        h = getattr(e, e._head)
        try:
            f = _whnf(h, budget)
        except FuelExhausted as exc:
            exc.last = _rebuild(e, e._head, exc.last)
            raise
        if f is not h:
            e = _rebuild(e, e._head, f)
        if not e._fires():
            break
        if budget[0] <= 0:
            raise FuelExhausted(e)
        budget[0] -= 1
        e = e._contract()
    return e


def beta_eq(a: Expr, b: Expr, fuel: int = DEFAULT_FUEL):
    """Bounded beta-conversion: True, False, or UNDETERMINED.

    Sound and complete on strongly normalizing terms with enough fuel;
    fuel exhaustion is reported, never conflated with inequality.
    """
    if a == b:
        return True
    try:
        na = _normal_form(a, fuel)
        nb = _normal_form(b, fuel)
    except FuelExhausted:
        return UNDETERMINED
    return na == nb


# ---------------------------------------------------------------------------
# Base expressions and key redexes


def is_base(e: Node) -> bool:
    """True for a variable applied to any arguments, or projections of such."""
    while e._head == "pair":
        e = e.pair
    while e._head == "fun":
        e = e.fun
    return e._role in (FREE, BOUND)


def key_redex_of(e: Node) -> Node | None:
    """The unavoidable head redex, if any.

    A beta redex (tight-beta on labeled terms) is its own key redex; an
    application shares its function's key redex; projections share
    their subject's.
    """
    while e._head is not None:
        if e._head == "fun" and e._fires():
            return e
        e = getattr(e, e._head)
    return None


def key_redex_path(e: Node) -> str | None:
    """Position path of the key redex inside ``e`` (for step filtering)."""
    path = []
    while e._head is not None:
        if e._head == "fun" and e._fires():
            return ".".join(path)
        path.append(e._head)
        e = getattr(e, e._head)
    return None


def reduce_key_redex(e: Node) -> Node:
    """Contract exactly the key redex, in place."""
    head = e._head
    if head is None:
        raise ValueError(f"no key redex in {e}")
    if head == "fun" and e._fires():
        return e._contract()
    return _rebuild(e, head, reduce_key_redex(getattr(e, head)))


# ---------------------------------------------------------------------------
# Bounded reachability and joinability


def _search(
    start: Node, max_depth: int, targets: set[Node] | frozenset[Node], min_steps: int = 0
) -> tuple[bool, set[Node]]:
    """The bounded breadth-first search behind every reachability question.

    Follows ``step_all`` for at most ``max_depth`` steps from ``start``.
    A search state is a term together with min(steps taken,
    ``min_steps``): the first ``min_steps`` levels are kept whole, and
    only from then on is a term already seen skipped.  Returns
    ``(hit, seen)``: ``hit`` is whether a path of at least ``min_steps``
    steps reaches a term in ``targets``; ``seen`` holds the terms such
    paths reached before the search stopped (``start`` included when
    ``min_steps`` is 0).
    """
    seen = {start} if min_steps == 0 else set()
    if not targets.isdisjoint(seen):
        return True, seen
    frontier = {start}
    for steps in range(1, max_depth + 1):
        nxt: set[Node] = set()
        for t in frontier:
            nxt.update(step_all(t))
        if steps < min_steps:
            frontier = nxt
        else:
            if not targets.isdisjoint(nxt):
                return True, seen
            frontier = nxt - seen
            seen |= frontier
        if not frontier:
            break
    return False, seen


def reachable(a: Node, b: Node, max_depth: int, min_steps: int = 0) -> bool:
    """Is there a reduction path a ~>* b of length in [min_steps, max_depth]?

    ``min_steps`` is the fewest steps a path may take: 0 counts ``a``
    itself, 1 asks for at least one step (so a term reaches itself only
    through a cycle), and so on.  Breadth-first over ``step_all`` with
    alpha-deduplication of the frontier; works on plain and labeled
    terms alike.
    """
    return _search(a, max_depth, {b}, min_steps)[0]


def reducts_within(e: Node, depth: int) -> set[Node]:
    """All terms reachable from e in at most ``depth`` steps (e included)."""
    return _search(e, depth, frozenset())[1]


def joinable(a: Node, b: Node, max_depth: int) -> bool:
    """Do the bounded reduct sets of a and b intersect (up to alpha)?"""
    return _search(a, max_depth, reducts_within(b, max_depth))[0]
