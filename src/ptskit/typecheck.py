"""Syntax-directed inference and checking for an arbitrary PTS.

Conversion is folded into the application and checking sites via
bounded beta-equality; with confluence and normalization of well-typed
terms this recovers the declarative conversion rule for the built-in
systems.

One walk types plain and labeled terms.  Labeled lambdas and
applications check their labels and decide conversion by directed
search: one side must reduce to the other.

An open plain type travels up the walk under delayed substitution
(Abadi, Cardelli, Curien & Lévy, JFP 1991), as Coquand types terms
(SCP 1996): a variable's type is its binder's annotation with the
environment it was entered in, and an application's type is its
function's codomain with the argument pushed onto that environment, so
neither shifts nor instantiates anything.  A lambda's type keeps such a
codomain delayed inside its product (``_Prod``).  Conversion and sorts
evaluate these types where they are; the term one stands for, the one
``instantiate`` and ``_shift`` would have built, is built once
(``_term``), at the boundary of the walk or to print an error.
"""

from __future__ import annotations

import enum
import os

from .syntax import (
    BOX,
    STAR,
    App,
    BVar,
    Context,
    Expr,
    Lam,
    LApp,
    LBVar,
    LLam,
    LPi,
    LSort,
    LVar,
    Node,
    Pair,
    Pi,
    Proj1,
    Proj2,
    PtsSpec,
    Record,
    Sigma,
    SortE,
    Var,
    BUILTIN_SPECS,
    Scope,
    instantiate,
    print_expr,
    BOUND,
    _set,
    _shift,
)
from .reduction import (
    DEFAULT_DEPTH,
    DEFAULT_FUEL,
    UNDETERMINED,
    FuelExhausted,
    _Unsupported,
    _eval,
    _normal_form,
    _quote,
    beta_eq,
    reachable,
    whnf,
)


class ErrorKind(enum.Enum):
    UNBOUND_VARIABLE = "UnboundVariable"
    NO_AXIOM = "NoAxiom"
    NO_RULE = "NoRule"
    NOT_A_FUNCTION = "NotAFunction"
    MISMATCH = "Mismatch"
    ILL_FORMED_CONTEXT = "IllFormedContext"
    SORT_UNTYPEABLE = "SortUntypeable"
    FUEL_EXHAUSTED = "FuelExhausted"
    SIGMA_DISABLED = "SigmaDisabled"
    DIRECTED_CONVERSION_UNDETERMINED = "DirectedConversionUndetermined"


class TypeCheckError(Exception):
    def __init__(self, kind: ErrorKind, message: str):
        super().__init__(f"{kind.value}: {message}")
        self.kind = kind
        self.message = message


def _fail(kind: ErrorKind, message: str):
    raise TypeCheckError(kind, message)


class _Scope(Scope):
    """A typing walk's scope: entering a binder pushes ``(binder node,
    annotation, its sort)``, plus the labeled annotation in elaboration, so
    ``BVar i`` is typed by entry ``-1 - i``: its annotation, shifted by
    ``i + 1`` if it is labeled or an index, else as a closure over the
    environment its binder was entered in.  It carries the walk's spec,
    fuel and directed-search depth, and the sorts and labeled types of
    context variables found so far."""

    __slots__ = ("spec", "fuel", "depth", "sorts", "ltypes", "envs")

    def __init__(self, spec: PtsSpec, ctx: Context, fuel: int, depth: int = DEFAULT_DEPTH):
        Scope.__init__(self, ctx)
        self.spec, self.fuel, self.depth, self.sorts, self.ltypes, self.envs = spec, fuel, depth, {}, {}, [None]

    def env(self, n: int | None = None) -> tuple | None:
        """The environment of the ``n`` outermost binders (all by default) in
        ``reduction._eval``'s format: binder k (0 the outermost) is level k."""
        envs = self.envs
        if n is None:
            n = len(self.binders)
        while len(envs) <= n:
            envs.append((len(envs) - 1, envs[-1]))
        return envs[n]

    def show(self, t) -> str:
        return Scope.show(self, _term(self, t))

    def once(self, found: dict, name: str, find):
        """``find(self, t)`` for context variable ``name``'s type t, under no
        binder and once per call; None while it runs, or if it fails,
        leaving the error to the walk that needs the value."""
        if name not in found:
            found[name], binders, self.binders = None, self.binders, []
            try:
                found[name] = find(self, self.types[name])
            except TypeCheckError:
                pass
            finally:
                self.binders = binders
        return found[name]


# ---------------------------------------------------------------------------
# Delayed types
#
# A type in the walk is a term over the scope's binders (always, when it is
# closed); a closure ``(term, env)`` in ``reduction._eval``'s format, whose
# levels are the scope's binders (``_Scope.env``); a ``_Prod``; or a
# ``_Subst``.  A product names its binder by the level it would have in the
# scope, so ``_term`` and ``_same`` read it back at the position it lands on.


_VAR = BVar(0)


class _Prod:
    """The type of a lambda whose body's type is delayed: a product whose
    binder is level ``level`` in ``cod`` and whose domain is a closed term or
    a closure."""

    __slots__ = ("hint", "dom", "cod", "level")

    def __init__(self, hint: str, dom, cod, level: int):
        self.hint, self.dom, self.cod, self.level = hint, dom, cod, level


class _Subst:
    """The delayed type ``inner`` with some of its levels bound to arguments:
    ``subst`` links ``(level, (term, env))`` bindings and other such lists."""

    __slots__ = ("inner", "subst")

    def __init__(self, inner, subst: tuple):
        self.inner, self.subst = inner, subst


def _clo(t: Expr, env: tuple | None):
    """Plain ``t`` under ``env`` as a type: itself if closed, else a closure."""
    return (t, env) if t._loose else t


def _thunk(scope: _Scope, t: Expr) -> tuple:
    """Plain ``t``, over ``scope``'s binders, as a closure; an index as one
    over its level alone, which a lookup reaches without walking."""
    return (_VAR, (len(scope.binders) - 1 - t.index, None)) if type(t) is BVar else (t, scope.env())


def _under(t, subst: tuple | None):
    return t if subst is None or isinstance(t, Node) else _Subst(t, subst)


def _bind(table: dict, subst: tuple) -> None:
    """Add a substitution's bindings to ``table`` (level -> argument)."""
    todo = [subst]
    while todo:
        s = todo.pop()
        while s is not None:
            item, s = s
            if type(item[0]) is int:
                table[item[0]] = item[1]
            else:
                todo.append(item)


def _term(scope: _Scope, ty) -> Node:
    """The term that type ``ty`` stands for under ``scope``'s binders: what
    ``_shift`` and ``instantiate`` would have built where it was delayed.
    A chain of products is read back in a loop."""
    if isinstance(ty, Node):
        return ty
    table, spine, depth = {}, [], len(scope.binders)
    while True:
        prod = _view(ty, None, 0, table)[0]
        if type(prod) is not _Prod:
            break
        spine.append((prod.hint, _apply(prod.dom, None, depth, table)))
        table[prod.level], depth, ty = depth, depth + 1, prod.cod
    t = _apply(ty, None, depth, table)
    for hint, dom in reversed(spine):
        t = Pi(hint, dom, t)
    return t


def _apply(t, env: tuple | None, depth: int, table: dict, own: int = 0) -> Expr:
    """The term ``t`` under ``env`` stands for under ``depth`` binders (see
    ``_view``), with each binder's level read back as an index.  Unchanged
    subterms come back as the same objects."""
    t, env, own = _view(t, env, own, table)
    if type(t) is int:
        return BVar(depth - 1 - t)
    if t._loose <= own:
        return t
    vals = [getattr(t, name) for name, _ in t._fields]
    args = [v if b is None else _apply(v, env, depth + b, table, own + b) for v, (_, b) in zip(vals, t._fields)]
    return t if all(a is v for a, v in zip(args, vals)) else type(t)(*args)


def _view(t, env: tuple | None, own: int, table: dict):
    """``(node, env, own)``: the root of what type or term ``t`` stands for
    under ``env`` (its indices from ``own`` up), its closures, substitutions
    and arguments entered.  ``node`` is a node (a ``BVar`` only below
    ``own``), a ``_Prod``, or a binder's level read back as its position, an
    int.  ``table`` maps the levels of products to their positions, and the
    levels substitutions bind to arguments; other levels are the scope's."""
    while True:
        if isinstance(t, Node):
            if t._role is not BOUND or t.index < own:
                return t, env, own
            for _ in range(t.index - own):
                env = env[1]
            v = env[0]
            if type(v) is int:
                v = table.get(v, v)
                if type(v) is int:
                    return v, None, 0
            (t, env), own = v, 0
        elif type(t) is tuple:
            (t, env), own = t, 0
        elif type(t) is _Subst:
            _bind(table, t.subst)
            t = t.inner
        else:
            return t, None, 0


def _index(t, depth: int) -> int | None:
    """The index that ``_view``'s ``t`` reads back as under ``depth`` binders, if a variable."""
    return depth - 1 - t if type(t) is int else t.index if type(t) is BVar else None


def _same(scope: _Scope, a, b) -> bool:
    """Whether types ``a`` and ``b`` stand for the same term (``_term(a) ==
    _term(b)``), decided by one walk through both, building neither."""
    tables = {}, {}
    env = scope.env()
    todo = [(a, env, 0, b, env, 0, len(scope.binders))]
    while todo:
        x, xe, xo, y, ye, yo, depth = todo.pop()
        x, xe, xo = _view(x, xe, xo, tables[0])
        y, ye, yo = _view(y, ye, yo, tables[1])
        if type(x) is int or type(y) is int:
            if _index(x, depth) != _index(y, depth):
                return False
            continue
        if isinstance(x, Node) and isinstance(y, Node) and x._loose <= xo and y._loose <= yo:
            if x != y:
                return False
            continue
        sides = []
        for t, env, own, table in ((x, xe, xo, tables[0]), (y, ye, yo, tables[1])):
            if type(t) is _Prod:
                table[t.level] = depth
                sides.append((Pi, ((t.dom, None, 0, 0), (t.cod, None, 0, 1))))
            else:
                sides.append((type(t), [(getattr(t, name), env, own + b, b) for name, b in t._children]))
        (cx, xs), (cy, ys) = sides
        if cx is not cy:
            return False
        for (x, xe, xo, b), (y, ye, yo, _) in zip(xs, ys):
            todo.append((x, xe, xo, y, ye, yo, depth + b))
    return True


def _budget(scope: _Scope) -> list[int]:
    if scope.fuel < 1:
        raise ValueError("fuel must be >= 1")
    return [scope.fuel]


def _normal(scope: _Scope, ty) -> Node:
    """The normal form of type ``ty``, as ``normalize`` gives it for ``_term(ty)``;
    a closure is evaluated and read back where it is."""
    if isinstance(ty, Node):
        return _normal_form(ty, scope.fuel)
    if type(ty) is tuple:
        try:
            return _quote(ty[0], ty[1], len(scope.binders), _budget(scope))
        except _Unsupported:
            pass
    return _normal_form(_term(scope, ty), scope.fuel)


def _sort_of(scope: _Scope, ty: Node) -> str:
    return _as_sort(scope, _infer(scope, ty)[0], ty)


def _as_sort(scope: _Scope, ty, subject: Node) -> str:
    """Normalize type ``ty`` (plain or labeled) and require it to be a sort of the scope's spec."""
    if (type(ty) is SortE or type(ty) is LSort) and scope.fuel > 0 and ty.name in scope.spec.sorts:
        return ty.name  # the common case, normal already
    try:
        n = _normal(scope, ty)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"normalizing the type of {scope.show(subject)}")
    if isinstance(n, (SortE, LSort)) and n.name in scope.spec.sorts:
        return n.name
    _fail(ErrorKind.SORT_UNTYPEABLE, f"{scope.show(subject)} is classified by {scope.show(n)}, not a sort")


def _pi_sort(scope: _Scope, s1: str, s2: str, pi: Node) -> str:
    """The sort of product ``pi`` (plain or labeled) from its parts' sorts."""
    s3 = scope.spec.rule_for(s1, s2)
    if s3 is None:
        _fail(ErrorKind.NO_RULE, f"no rule ({s1},{s2},_) to form {scope.show(pi)}")
    return s3


def _fun_head(scope: _Scope, fun: Expr, fun_ty: Expr) -> Pi:
    """The product that ``fun``'s type, the term ``fun_ty``, exposes at its head."""
    try:
        head = whnf(fun_ty, scope.fuel)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the type of {scope.show(fun)}")
    if not isinstance(head, Pi):
        _fail(
            ErrorKind.NOT_A_FUNCTION,
            f"{scope.show(fun)} has type {scope.show(fun_ty)}, which is not a function type",
        )
    return head


def _app_type(scope: _Scope, fun: Expr, fun_ty, arg: Expr) -> tuple:
    """``(domain, codomain)`` of the product that ``fun``'s type ``fun_ty``
    exposes at its head, the codomain instantiated with ``arg``.  A delayed
    head takes ``arg`` as a binding, with the substitutions it was found
    under; a closed one, or a term one where ``arg`` is closed or unused,
    is instantiated; otherwise the codomain is a closure.  Whatever else
    the head is (a product under an argument the evaluator left unapplied,
    a sigma node, no product) is left to ``_fun_head`` on ``_term(fun_ty)``,
    which also reports every failure."""
    if not isinstance(fun_ty, Node):
        subst, t, budget = None, fun_ty, _budget(scope)
        while True:
            if type(t) is _Prod:
                return _under(t.dom, subst), _Subst(t.cod, ((t.level, _thunk(scope, arg)), subst))
            if type(t) is _Subst:
                subst, t = (t.subst, subst), t.inner
                continue
            try:
                v = _eval(t[0], t[1], budget)
            except FuelExhausted:
                _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the type of {scope.show(fun)}")
            except _Unsupported:
                break
            if type(v) is not tuple or type(v[0]) is not Pi:
                break
            pi, env = v
            return _under(_clo(pi.dom, env), subst), _under(_clo(pi.cod, (_thunk(scope, arg), env)), subst)
        fun_ty = _term(scope, fun_ty)
    head = _fun_head(scope, fun, fun_ty)
    if head.cod._loose == 0 or not (head._loose or arg._loose):
        return head.dom, instantiate(head.cod, arg)
    return head.dom, (head.cod, (_thunk(scope, arg), scope.env()))


def _convertible(scope: _Scope, a, b, where: str, subject: Expr | None = None) -> None:
    """Require types a and b to be convertible, as ``beta_eq`` decides it
    for the terms they stand for: true at no cost in fuel if those are
    equal, else by comparing normal forms, each within the fuel.

    ``where`` names the site, followed by the printed ``subject`` if one
    is given; the text is rendered only when the check fails.
    """
    if isinstance(a, Node) and isinstance(b, Node):
        r = beta_eq(a, b, scope.fuel)
    elif _same(scope, a, b):
        return
    else:
        try:
            r = _normal(scope, a) == _normal(scope, b)
        except FuelExhausted:
            r = UNDETERMINED
    if r is True:
        return
    if subject is not None:
        where = f"{where} {scope.show(subject)}"
    if r is UNDETERMINED:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"conversion undecided in {where}")
    _fail(ErrorKind.MISMATCH, f"{where}: {scope.show(a)} is not convertible with {scope.show(b)}")


def label_of(e: LLam | LApp) -> LPi:
    return LPi(e.hint, e.dom, e.cod)


def directed_convertible(a: Node, b: Node, depth: int = DEFAULT_DEPTH) -> bool:
    """The labeled conversion premise: one side reduces to the other."""
    return reachable(a, b, depth) or reachable(b, a, depth)


def wf_context(spec: PtsSpec, ctx: Context, fuel: int = DEFAULT_FUEL) -> None:
    """Check names are distinct and every binding type (plain or labeled) has a sort."""
    prefix = _Scope(spec, Context(), fuel)
    prefix.types = {}
    for name, ty in ctx:
        if name in prefix.types:
            _fail(ErrorKind.ILL_FORMED_CONTEXT, f"duplicate binding for {name!r}")
        try:
            s = _sort_of(prefix, ty)
        except TypeCheckError as err:
            _fail(
                ErrorKind.ILL_FORMED_CONTEXT,
                f"binding {name} : {print_expr(ty)} is ill-formed ({err})",
            )
        prefix.types[name], prefix.sorts[name] = ty, s


def infer_type(spec: PtsSpec, ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """Return a type A with ctx |- e : A, or raise TypeCheckError.

    Every rule checks a binder's annotation (a product's domain, a
    lambda's annotation, a pair's Sig type) before it uses it, so an
    ill-typed annotation is reported before anything under the binder
    and is never reduced.  One pass: the walk (``_infer``) hands each
    type up with its sort where a rule settled it, so no lambda types
    the product it synthesized.  A labeled term gets its labeled type.
    The walk's type may be delayed; the term it stands for is built here,
    once.
    """
    scope = _Scope(spec, ctx, fuel)
    return _term(scope, _infer(scope, e)[0])


def _infer(scope: _Scope, e: Node) -> tuple:
    """``(A, s)`` with scope |- e : A and, unless s is None, scope |- A : s;
    ``e`` and ``A`` are open over ``scope``'s binders (see ``_Scope``).

    A plain A may be delayed (see the module docstring): a variable's is its
    binder's annotation under the binder's environment, an application's
    its function's codomain with the argument bound, and a lambda's a
    ``_Prod`` when its body's is delayed.  Nothing in the walk builds the
    term A stands for, but for a body that hands up no sort, whose type is
    typed as a term; callers build it with ``_term``.  Labeled types, and
    the types sigma rules give, are terms.

    s is known for a sort, product or Sig type (the axiom of the sort that
    types it), for a plain variable whose type checks (the sort of its
    type), for a lambda (the sort of its product) and for a plain
    application whose function's type has a known sort that fixes the
    codomain sort (``PtsSpec.cod_sorts``); labeled variables and
    applications, pairs and projections give None.  A sort or product
    is typed by a sort of its own AST.  Premises go in rule order: a
    product's domain sort, then its codomain; a lambda's annotation
    sort, then its body, then, if the body gave no sort, the sort of the
    body's type; a pair's annotation, then its components; a sigma node
    is rejected first if the spec has no sigma.  The cases are ordered by
    how often they occur.  The scope's ``depth`` serves labeled terms, as
    ``labeled.labeled_infer`` describes.
    """
    match e:
        case App(fun, arg):
            fun_ty, s3 = _infer(scope, fun)
            dom, cod = _app_type(scope, fun, fun_ty, arg)
            _convertible(scope, _infer(scope, arg)[0], dom, "argument of", fun)
            # the product reduces from fun_ty, so it has fun_ty's sort s3
            return cod, scope.spec.cod_sorts.get(s3)
        case Var(name) | LVar(name):
            ty = scope.types.get(name)
            if ty is None:
                _fail(ErrorKind.UNBOUND_VARIABLE, f"unbound variable {name}")
            return ty, scope.once(scope.sorts, name, _sort_of) if type(e) is Var else None
        case BVar(i) | LBVar(i):
            if i >= len(scope.binders):
                raise ValueError("dangling bound variable reached the type checker")
            entry = scope.binders[-1 - i]
            ty = entry[1]
            if ty._loose:
                # labeled types stay terms; an index is shifted as cheaply as a closure is made
                if ty._role is BOUND or type(e) is LBVar:
                    ty = _shift(ty, i + 1, 0)
                else:
                    ty = (ty, scope.env(len(scope.binders) - 1 - i))
            return ty, entry[2]
        case Lam(h, annot, body):
            s1 = _as_sort(scope, _infer(scope, annot)[0], annot)
            scope.binders.append((e, annot, s1))
            body_ty, s2 = _infer(scope, body)
            if s2 is None:
                s2 = _sort_of(scope, _term(scope, body_ty))
            scope.binders.pop()
            # TLam demands the synthesized product itself be well-sorted.
            if isinstance(body_ty, Node):
                pi = Pi(h, annot, body_ty)
            else:
                pi = _Prod(h, _thunk(scope, annot) if annot._loose else annot, body_ty, len(scope.binders))
            return pi, _pi_sort(scope, s1, s2, pi)
        case Pi(h, dom, cod) | LPi(h, dom, cod):
            s1 = _as_sort(scope, _infer(scope, dom)[0], dom)
            scope.binders.append((e, dom, s1))
            s2 = _as_sort(scope, _infer(scope, cod)[0], cod)
            scope.binders.pop()
            s3 = _pi_sort(scope, s1, s2, e)
            return (SortE if type(e) is Pi else LSort)(s3), scope.spec.axiom_for(s3)
        case SortE(s) | LSort(s):
            if s not in scope.spec.sorts:
                _fail(ErrorKind.SORT_UNTYPEABLE, f"unknown sort {s}")
            s2 = scope.spec.axiom_for(s)
            if s2 is None:
                _fail(ErrorKind.NO_AXIOM, f"sort {s} has no type")
            return type(e)(s2), scope.spec.axiom_for(s2)
        case LLam(h, dom, cod, body):
            label = label_of(e)
            s3 = _infer(scope, label)[0].name
            # That checked the codomain whole, so a body lambda labeled with the
            # codomain is entered here without checking its label again: once
            # its own body checks, its type is that codomain.
            depth = len(scope.binders)
            while True:
                scope.binders.append((e, dom, None))
                if not (isinstance(body, LLam) and label_of(body) == cod):
                    break
                e, dom, cod, body = body, body.dom, body.cod, body.body
            body_ty = _infer(scope, body)[0]
            if not directed_convertible(body_ty, cod, scope.depth):
                message = f"body type {scope.show(body_ty)} does not reduce to or from the label codomain"
                _fail(ErrorKind.DIRECTED_CONVERSION_UNDETERMINED, message)
            del scope.binders[depth:]
            return label, s3
        case LApp(h, dom, cod, fun, arg):
            fun_ty = _infer(scope, fun)[0]
            label = label_of(e)
            if not directed_convertible(fun_ty, label, scope.depth):
                message = f"function type {scope.show(fun_ty)} does not reduce to or from the label {scope.show(label)}"
                _fail(ErrorKind.DIRECTED_CONVERSION_UNDETERMINED, message)
            arg_ty = _infer(scope, arg)[0]
            if not directed_convertible(arg_ty, dom, scope.depth):
                message = f"argument type {scope.show(arg_ty)} does not reduce to or from {scope.show(dom)}"
                _fail(ErrorKind.DIRECTED_CONVERSION_UNDETERMINED, message)
            return instantiate(cod, arg), None
        case Sigma() | Pair() | Proj1() | Proj2() if not scope.spec.sigma_enabled:
            _fail(ErrorKind.SIGMA_DISABLED, f"sigma extension is disabled: {scope.show(e)}")
        case Sigma(h, first, second):
            first_sort = _sort_of(scope, first)
            if first_sort != STAR:
                _fail(
                    ErrorKind.MISMATCH,
                    f"Sig first component {scope.show(first)} must be a type, has sort {first_sort}",
                )
            scope.binders.append((e, first, first_sort))
            s = _sort_of(scope, second)
            scope.binders.pop()
            return SortE(s), scope.spec.axiom_for(s)
        case Pair(first, second, annot):
            _infer(scope, annot)
            try:
                head = whnf(annot, scope.fuel)
            except FuelExhausted:
                _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the pair annotation {scope.show(annot)}")
            if not isinstance(head, Sigma):
                _fail(ErrorKind.MISMATCH, f"pair annotation {scope.show(annot)} is not a Sig type")
            _convertible(scope, _infer(scope, first)[0], head.first, "first pair component")
            _convertible(scope, _infer(scope, second)[0], instantiate(head.second, first), "second pair component")
            return annot, None
        case Proj1(p) | Proj2(p):
            ty = _term(scope, _infer(scope, p)[0])
            try:
                head = whnf(ty, scope.fuel)
            except FuelExhausted:
                _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the type of {scope.show(p)}")
            if not isinstance(head, Sigma):
                _fail(ErrorKind.MISMATCH, f"{scope.show(p)} has type {scope.show(ty)}, not a Sig type")
            return (head.first if type(e) is Proj1 else instantiate(head.second, Proj1(p))), None
        case _:
            raise TypeError(f"not an expression: {e!r}")


def check_type(spec: PtsSpec, ctx: Context, e: Expr, ty: Expr, fuel: int = DEFAULT_FUEL) -> None:
    """Check ctx |- e : ty; ty itself must be well-sorted.

    A sort with no successor axiom (box in the built-ins) is accepted as
    the classifier of kinds even though it has no type itself.
    """
    scope = _Scope(spec, ctx, fuel)
    _check_inferred(scope, e, _infer(scope, e)[0], ty)


def _check_inferred(scope: _Scope, e: Expr, inferred, ty: Expr) -> None:
    """``check_type`` once ``e``'s type has been inferred as ``inferred``."""
    spec = scope.spec
    if not (isinstance(ty, SortE) and ty.name in spec.sorts and spec.axiom_for(ty.name) is None):
        _sort_of(scope, ty)
    _convertible(scope, inferred, ty, "checking", e)


# ---------------------------------------------------------------------------
# Classification


class Kind(Record):
    __slots__ = __match_args__ = ()


class GammaConstructor(Record):
    __slots__ = __match_args__ = ("is_type",)

    def __init__(self, is_type: bool):
        _set(self, "is_type", is_type)


class GammaTerm(Record):
    __slots__ = __match_args__ = ()


Classification = Kind | GammaConstructor | GammaTerm

_CC = BUILTIN_SPECS["cc"]


def classify(ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL, spec: PtsSpec | None = None) -> Classification:
    """Sort a typeable CC expression into kind / constructor / term."""
    scope = _Scope(spec or _CC, ctx, fuel)
    return _classify(scope, e, *_infer(scope, e))


def _classify(scope: _Scope, e: Expr, ty, s: str | None) -> Classification:
    """``classify`` from the pair ``(ty, s)`` that ``_infer`` gives for ``e``."""
    try:
        nty = _normal(scope, ty)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"normalizing the type of {print_expr(e)}")
    if nty == SortE(BOX):
        return Kind()
    if s is None:
        s = _sort_of(scope, _term(scope, ty))
    if s == BOX:
        return GammaConstructor(is_type=nty == SortE(STAR))
    if s == STAR:
        return GammaTerm()
    _fail(ErrorKind.SORT_UNTYPEABLE, f"type of {print_expr(e)} is classified by {s}")


# ---------------------------------------------------------------------------
# PTS spec files


def parse_spec_text(text: str, sigma_enabled: bool = False) -> PtsSpec:
    """Parse "sort/axiom/rule" lines; a line starting with '#' is a comment.

    Comments are only recognized at the start of a line so that '#'
    remains usable as a sort name in axiom and rule fields.
    """
    sorts: set[str] = set()
    axioms: set[tuple[str, str]] = set()
    rules: set[tuple[str, str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "sort" and len(parts) == 2:
            sorts.add(parts[1])
        elif parts[0] == "axiom" and len(parts) == 3:
            axioms.add((parts[1], parts[2]))
        elif parts[0] == "rule" and len(parts) == 4:
            rules.add((parts[1], parts[2], parts[3]))
        else:
            raise ValueError(f"spec line {lineno}: expected 'sort s', 'axiom s1 s2' or 'rule s1 s2 s3'")
    try:
        return PtsSpec(frozenset(sorts), frozenset(axioms), frozenset(rules), sigma_enabled)
    except ValueError as err:
        raise ValueError(f"bad spec: {err}") from err


def load_spec_file(path: str, sigma_enabled: bool = False) -> PtsSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_spec_text(fh.read(), sigma_enabled)


def resolve_spec(name_or_path: str, sigma_enabled: bool = False) -> PtsSpec:
    """A built-in name ("stlc", "f", "fomega", "cc") or a spec file path."""
    if name_or_path in BUILTIN_SPECS:
        return BUILTIN_SPECS[name_or_path].with_sigma(sigma_enabled)
    if os.path.exists(name_or_path):
        return load_spec_file(name_or_path, sigma_enabled)
    raise ValueError(f"unknown system {name_or_path!r} (not a built-in, not a file)")
