"""Beta reduction: single steps, normalization, conversion, key redexes.

Reduction is defined on raw syntax and never consults a PTS
specification; ill-typed terms reduce too, which is why every bounded
operation distinguishes "ran out of fuel" from a definite answer.

Every walk here but the evaluator (``enumerate_steps``,
``leftmost_step``, ``_whnf``, ``_parts``, the key-redex functions and
the bounded search) reads the shape tables of ``syntax.Node``, so each
serves labeled terms, with tight reduction, as well as plain ones.

``leftmost_step``, ``trace`` and ``normalize`` follow the
leftmost-outermost (normal-order) strategy.  ``leftmost_step`` contracts
one redex and ``trace`` repeats it from the root; ``normalize`` makes
the same contractions in one pass.  Its fuel counts contractions, and on
exhaustion ``FuelExhausted.last`` is the whole term after exactly
``fuel`` of them, the term ``trace`` shows after that many steps.  On
labeled terms ``leftmost_step`` visits an application's labels before
its function, so there ``normalize`` contracts in another order than
``trace`` but reaches the same tight normal form.

``normalize`` makes its contractions on one of two paths.  Plain core
terms are evaluated to closures and read back (``_eval``, ``_quote``),
call-by-name without sharing: each occurrence of an argument is reduced
on its own, as substitution copies it.  A dangling index is a read-back
level, as the typing walks' open types need.  Labeled terms (tight-beta
compares labels), pairs and projections, and ``FuelExhausted.last``,
take ``_nf``, which substitutes: ``_whnf``, then the parts (``_parts``),
as ``_eval`` and then ``_quote`` do on closures.  ``beta_eq``
converts lazily (Coquand, SCP 1996; Grégoire & Leroy, ICFP 2002): it
compares weak head values and descends only while their heads agree, so
distinct rigid heads are a definite False (Church-Rosser) before either
side is normal.  Each side counts its own fuel.

Each public entry point makes one ``_Budget`` from its ``fuel`` and
``max_depth`` arguments, refusing fuel below 1; the private functions of
every module take the budget, not a bound of their own.
"""

from __future__ import annotations

from .syntax import App, BVar, Expr, Lam, Node, Pi, Record, SortE, Var, _set

DEFAULT_FUEL = 10000
DEFAULT_DEPTH = 12  # bound on the steps of a reduction path (``reachable``, the simulation check)


class FuelExhausted(Exception):
    """Raised when a bounded reduction runs out of steps, with the last
    intermediate term so callers can resume or report.  Only the evaluator
    raises it with ``last`` None, and no public call lets that out:
    ``normalize`` replays its steps; ``_normal_form``'s callers read no ``last``."""

    def __init__(self, last: Expr | None):
        super().__init__("fuel exhausted")
        self.last = last


class _Budget:
    """The bounds of one operation.  Each bounded call (a normalization, a
    weak head normalization) may make ``fuel`` contractions, and ``left`` is
    what the current one has left.  A reduction path is at most ``depth``
    steps long; ``_search`` sets ``cut`` when it stopped there with a
    frontier left, and ``_directed_steps`` with a key redex left, so a miss
    proves nothing.  The simulation check clears it before each reduct."""

    __slots__ = ("fuel", "left", "depth", "cut")

    def __init__(self, fuel: int = DEFAULT_FUEL, depth: int = DEFAULT_DEPTH):
        if fuel < 1:
            raise ValueError("fuel must be >= 1")
        self.fuel, self.left, self.depth, self.cut = fuel, fuel, depth, False


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
    left untouched).  Once a plain term is in weak head normal form no
    reduction inside it can create a head redex, so this is exactly the
    contraction sequence of repeated ``leftmost_step`` from the root,
    without the re-descent after every step.  The evaluator and ``_nf``
    both make these contractions (see the module docstring).

    ``fuel`` bounds the number of contractions (beta and projection
    steps) over the whole term.  A term that needs at most ``fuel`` of
    them is returned in normal form; otherwise ``FuelExhausted.last``
    is the whole term after exactly ``fuel`` contractions, which ``_nf``
    rebuilds when the evaluator ran out.  Subterms that need no
    contraction are returned as the same objects.
    """
    budget = _Budget(fuel)
    try:
        return _normal_form(e, budget)
    except FuelExhausted as exc:
        if exc.last is not None:
            raise
    budget.left = fuel  # the evaluator keeps no partial term: replay its steps
    return _nf(e, budget)


def _normal_form(e: Node, budget: _Budget) -> Node:
    """``normalize`` with the whole of ``budget``'s fuel, whose
    ``FuelExhausted.last`` is None when the evaluator ran out."""
    if e._role is not None:
        return e
    budget.left = budget.fuel
    if isinstance(e, Expr):
        env = None
        for level in range(e._loose):  # a dangling index i stands for level _loose - 1 - i
            env = (level, env)
        try:
            return _quote(e, env, e._loose, budget, e._loose)
        except _Unsupported:
            budget.left = budget.fuel
    return _nf(e, budget)


def _nf(e: Node, budget: _Budget) -> Node:
    """Normal form of ``e`` by substitution: its weak head normal form, then
    its parts, again while a tight-beta fires once its labels are normal."""
    while True:
        e = _parts(_whnf(e, budget), budget)
        if e._redex is None or not e._fires():
            return e


def _parts(e: Node, budget: _Budget) -> Node:
    """The weak head normal form ``e`` with its step positions normalized,
    one frame per term level.  The head goes first, as it is: ``_whnf``
    left its whole head chain weak head normal.  The others follow in table
    order, each as ``_parts(_whnf(child))``.  A head of the ``_intro`` class
    is a tight-beta its labels block: then all positions go in table order,
    and ``e`` comes back a redex if it fires once they are normal, for the
    caller to contract; a parent whose head it is fires next if it can,
    before the contractum's parts, as in leftmost-outermost order.  On fuel
    exhaustion each frame rebuilds its own node around the partial child."""
    while True:
        head = skip = e._head
        if head is not None:
            h = getattr(e, head)
            if type(h) is e._intro:
                skip = None
            elif h._role is None:
                try:
                    f = _parts(h, budget)
                    if f is not h and f._redex is not None and f._fires():
                        e = _rebuild(e, head, _whnf(f, budget))
                        if e._fires():
                            return e
                        continue
                except FuelExhausted as exc:
                    exc.last = _rebuild(e, head, exc.last)
                    raise
                if f is not h:
                    e = _rebuild(e, head, f)
        for name, _ in e._positions:
            v = getattr(e, name)
            if name != skip and v._role is None:
                try:
                    r = _parts(_whnf(v, budget), budget)
                    while r is not v and r._redex is not None and r._fires():
                        r = _parts(_whnf(r, budget), budget)
                except FuelExhausted as exc:
                    exc.last = _rebuild(e, name, exc.last)
                    raise
                if r is not v:
                    e = _rebuild(e, name, r)
        return e


class _Unsupported(Exception):
    """The evaluator met a node it leaves to ``_nf``: a Sigma, a pair, a projection or a labeled node."""


def _eval(t: Expr, env: tuple | None, budget: _Budget):
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
            if budget.left <= 0:
                raise FuelExhausted(None)
            budget.left -= 1
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


def _quote(t: Expr, env: tuple | None, depth: int, budget: _Budget, own: int = 0) -> Expr:
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
    return _whnf(e, _Budget(fuel))


def _whnf(e: Node, budget: _Budget) -> Node:
    """``whnf`` with what is ``left`` of ``budget``'s fuel."""
    while (head := e._head) is not None:
        h = getattr(e, head)
        try:
            f = h if h._head is None else _whnf(h, budget)
        except FuelExhausted as exc:
            exc.last = _rebuild(e, head, exc.last)
            raise
        if f is not h:
            e = _rebuild(e, head, f)
        if not e._fires():
            break
        if budget.left <= 0:
            raise FuelExhausted(e)
        budget.left -= 1
        e = e._contract()
    return e


def beta_eq(a: Expr, b: Expr, fuel: int = DEFAULT_FUEL):
    """Bounded beta-conversion: True, False, or UNDETERMINED.

    Lazy on plain core terms (see the module docstring); sigma and labeled
    terms are normalized whole.  Each side may make ``fuel`` contractions of
    its own; running out before the answer is known is UNDETERMINED, never
    False.  Sound and complete on strongly normalizing terms with enough fuel.
    """
    return _beta_eq(a, b, _Budget(fuel))


def _beta_eq(a: Expr, b: Expr, budget: _Budget):
    if a == b:
        return True
    env, n = None, max(a._loose, b._loose)
    for level in range(n):  # a dangling index i is level n - 1 - i on both sides
        env = (level, env)
    budget.left = budget.fuel
    try:
        try:
            return _same(a, env, b, env, n, budget, _Budget(budget.fuel))
        except _Unsupported:  # sigma and labeled terms
            na, nb = _normal_form(a, budget), _normal_form(b, budget)
    except FuelExhausted:
        return UNDETERMINED
    return na == nb


def _same(s: Expr, se: tuple | None, t: Expr, te: tuple | None, depth: int, sb: _Budget, tb: _Budget) -> bool:
    """Do ``s`` under ``se`` and ``t`` under ``te`` have one normal form under ``depth``
    binders?  Their weak head values (each side on its own budget) must be one level,
    ``Var`` or ``SortE``, or closures of one class, under spines of one length.  Their
    parts follow in ``_quote``'s order, so each side makes a prefix of its normal order."""
    while True:
        x, y = _eval(s, se, sb), _eval(t, te, tb)
        parts = []  # what is left to compare, the last first
        while type(x) is tuple and len(x) == 3 and type(y) is tuple and len(y) == 3:  # from the last argument
            parts.append((x[0].arg, x[1], y[0].arg, y[1], depth))
            x, y = x[2], y[2]
        if type(x) is tuple and type(y) is tuple and len(x) == len(y) == 2 and type(x[0]) is type(y[0]):
            (s, se), (t, te) = x, y  # closures of a Lam or a Pi
            x1, x2, y1, y2 = (s.annot, s.body, t.annot, t.body) if type(s) is Lam else (s.dom, s.cod, t.dom, t.cod)
            parts += (x2, (depth, se), y2, (depth, te), depth + 1), (x1, se, y1, te, depth)
        elif type(x) is tuple or x != y:  # a spine against no spine, or unlike heads
            return False
        while len(parts) > 1:
            if not _same(*parts.pop(), sb, tb):
                return False
        if not parts:
            return True
        s, se, t, te, depth = parts[0]


# ---------------------------------------------------------------------------
# Key redexes


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


def reduce_key_redex(e: Node) -> Node:
    """Contract exactly the key redex, in place."""
    head = e._head
    if head is None:
        raise ValueError(f"no key redex in {e}")
    if head == "fun" and e._fires():
        return e._contract()
    return _rebuild(e, head, reduce_key_redex(getattr(e, head)))


# ---------------------------------------------------------------------------
# Bounded reachability


def _search(start: Node, budget: _Budget, targets: set[Node] | frozenset[Node], min_steps: int = 0) -> tuple[bool, set[Node]]:
    """The bounded breadth-first search behind every reachability question.

    Follows ``step_all`` for at most ``budget.depth`` steps from ``start``.
    A search state is a term together with min(steps taken,
    ``min_steps``): the first ``min_steps`` levels are kept whole, and
    only from then on is a term already seen skipped.  Returns
    ``(hit, seen)``: ``hit`` is whether a path of at least ``min_steps``
    steps reaches a term in ``targets``; ``seen`` holds the terms such
    paths reached before the search stopped (``start`` included when
    ``min_steps`` is 0).  A miss with a frontier left sets ``budget.cut``.
    """
    seen = {start} if min_steps == 0 else set()
    if not targets.isdisjoint(seen):
        return True, seen
    frontier = {start}
    for steps in range(1, budget.depth + 1):
        nxt = set().union(*map(step_all, frontier))
        if steps < min_steps:
            frontier = nxt
        else:
            if not targets.isdisjoint(nxt):
                return True, seen
            frontier = nxt - seen
            seen |= frontier
        if not frontier:
            return False, seen
    budget.cut = True
    return False, seen


def reachable(a: Node, b: Node, max_depth: int, min_steps: int = 0) -> bool:
    """Is there a reduction path a ~>* b of length in [min_steps, max_depth]?

    ``min_steps`` is the fewest steps a path may take: 0 counts ``a``
    itself, 1 asks for at least one step (so a term reaches itself only
    through a cycle), and so on.  Breadth-first over ``step_all`` with
    alpha-deduplication of the frontier; works on plain and labeled
    terms alike.
    """
    return _search(a, _Budget(depth=max_depth), {b}, min_steps)[0]


def reducts_within(e: Node, depth: int) -> set[Node]:
    """All terms reachable from e in at most ``depth`` steps (e included)."""
    return _search(e, _Budget(depth=depth), frozenset())[1]
