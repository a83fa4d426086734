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
codomain delayed inside its product (``_Prod``).  The term a delayed type
stands for, the one ``instantiate`` and ``_shift`` would have built, is
built once (``_term``) where a question is asked of it: at the boundary
of the walk, to compare it (``beta_eq``), to normalize it to a sort, to
expose a function's product (``whnf``) or to print an error.
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
    BOUND,
    _set,
    _shift,
)
from .reduction import DEFAULT_DEPTH, DEFAULT_FUEL, UNDETERMINED, FuelExhausted, _beta_eq, _Budget, _normal_form, _search, _whnf


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
    """A judgement that does not hold, of ``kind``.  ``message`` is a string or
    a function of no arguments, rendered on the first read of ``message`` or
    ``str(err)``, so an error nobody reads prints nothing."""

    def __init__(self, kind: ErrorKind, message):
        self.kind, self._message = kind, message

    @property
    def message(self) -> str:
        if not isinstance(self._message, str):
            self._message = self._message()
        return self._message

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.message}"


def _fail(kind: ErrorKind, message, scope: _Scope | None = None, *shown):
    """Raise ``kind``.  With ``scope``, ``message`` is a format string filled when
    read: strings and errors of ``shown`` as they are, terms and types printed
    under a snapshot of ``scope`` taken now (its ``types``, a copy of its
    binders, names made afresh).  The callers make no closure, so the walks'
    functions keep no cell variables."""
    if scope is not None:
        snap, template = _Scope.__new__(_Scope), message
        snap.types, snap.binders, snap.names = scope.types, scope.binders[:], None
        message = lambda: template.format(*(x if isinstance(x, (str, Exception)) else snap.show(x) for x in shown))
    raise TypeCheckError(kind, message)


class _Scope(Scope):
    """A typing walk's scope: entering a binder pushes ``(binder node,
    annotation, its sort)``, plus the labeled annotation in elaboration, so
    ``BVar i`` is typed by entry ``-1 - i``: its annotation, shifted by
    ``i + 1`` if it is labeled or an index, else as a closure over the
    environment its binder was entered in.  It carries the walk's spec, the
    operation's budget (its fuel and directed-search depth), and the sorts
    and labeled types of context variables found so far."""

    __slots__ = ("spec", "budget", "sorts", "ltypes", "envs")

    def __init__(self, spec: PtsSpec, ctx: Context, budget: _Budget):
        Scope.__init__(self, ctx)
        self.spec, self.budget, self.sorts, self.ltypes, self.envs = spec, budget, {}, {}, [None]

    def env(self, n: int | None = None) -> tuple | None:
        """The environment of the ``n`` outermost binders (all by default), as
        a closure holds it (see ``_view``): binder k (0 the outermost) is level k."""
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
# closed); a closure ``(term, env)``, whose environment links the scope's
# binder levels and arguments (``_Scope.env``); a ``_Prod``; or a ``_Subst``.
# A product names its binder by the level it would have in the scope, so
# ``_term`` reads it back at the position it lands on.  Only ``_term`` (with
# ``_view`` and ``_apply``) and ``_level`` read a delayed type: conversion,
# sort checks and function heads are decided on the term ``_term`` builds.
# A type that is an index, plain or a closure's, stands for a binder level
# (``_level``), so an argument typed by the domain's level needs no term.


_VAR = BVar(0)


class _Prod:
    """The type of a lambda whose body's type is delayed: a product whose
    binder is level ``level`` in ``cod`` and whose domain is a closed term or
    a closure."""

    __slots__ = ("hint", "dom", "cod", "level")

    def __init__(self, hint: str, dom, cod, level: int):
        self.hint, self.dom, self.cod, self.level = hint, dom, cod, level


class _Subst:
    """The delayed type ``inner`` with its level ``level`` bound to the
    argument ``arg``, a closure: the type of a ``_Prod``'s application."""

    __slots__ = ("inner", "level", "arg")

    def __init__(self, inner, level: int, arg: tuple):
        self.inner, self.level, self.arg = inner, level, arg


def _clo(t: Expr, env: tuple | None):
    """Plain ``t`` under ``env`` as a type: itself if closed, else a closure."""
    return (t, env) if t._loose else t


def _thunk(scope: _Scope, t: Expr) -> tuple:
    """Plain ``t``, over ``scope``'s binders, as a closure; an index as one
    over its level alone, which a lookup reaches without walking."""
    return (_VAR, (len(scope.binders) - 1 - t.index, None)) if type(t) is BVar else (t, scope.env())


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
            table[t.level] = t.arg
            t = t.inner
        else:
            return t, None, 0


def _level(scope: _Scope, t) -> int | None:
    """The binder level that type ``t`` stands for if it is an index: a plain
    ``BVar`` over the scope's binders, or a closure of one, followed through
    index thunks.  Two types of one level stand for the same index."""
    if type(t) is BVar:
        return len(scope.binders) - 1 - t.index
    while type(t) is tuple and type(t[0]) is BVar:
        t, env = t
        for _ in range(t.index):
            env = env[1]
        t = env[0]
    return t if type(t) is int else None


def _sort_of(scope: _Scope, ty: Node) -> str:
    return _as_sort(scope, _infer(scope, ty)[0], ty)


def _as_sort(scope: _Scope, ty, subject: Node) -> str:
    """Normalize type ``ty`` (plain or labeled) and require it to be a sort of the scope's spec."""
    if (type(ty) is SortE or type(ty) is LSort) and ty.name in scope.spec.sorts:
        return ty.name  # the common case, normal already
    n = _reduced(scope, _normal_form, _term(scope, ty), "normalizing the type of", subject)
    if isinstance(n, (SortE, LSort)) and n.name in scope.spec.sorts:
        return n.name
    _fail(ErrorKind.SORT_UNTYPEABLE, "{} is classified by {}, not a sort", scope, subject, n)


def _pi_sort(scope: _Scope, s1: str, s2: str, pi: Node) -> str:
    """The sort of product ``pi`` (plain or labeled) from its parts' sorts."""
    s3 = scope.spec.rule_for(s1, s2)
    if s3 is None:
        _fail(ErrorKind.NO_RULE, "no rule ({},{},_) to form {}", scope, s1, s2, pi)
    return s3


def _reduced(scope: _Scope, reduce, ty: Node, doing: str, subject: Node) -> Node:
    """``ty`` reduced by ``_whnf`` or ``_normal_form`` with all the scope's
    fuel; running out is reported as ``doing`` the printed ``subject``."""
    scope.budget.left = scope.budget.fuel
    try:
        return reduce(ty, scope.budget)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, "{} {}", scope, doing, subject)


def _fun_head(scope: _Scope, fun: Expr, fun_ty: Expr) -> Pi:
    """The product that ``fun``'s type, the term ``fun_ty``, exposes at its head
    under ``whnf``; a head that is no product, or fuel that runs out, fails."""
    head = _reduced(scope, _whnf, fun_ty, "exposing the type of", fun)
    if not isinstance(head, Pi):
        _fail(ErrorKind.NOT_A_FUNCTION, "{} has type {}, which is not a function type", scope, fun, fun_ty)
    return head


def _convertible(scope: _Scope, a, b, where: str, subject: Expr | None = None) -> None:
    """Require types a and b to be convertible, as ``beta_eq`` decides it
    for the terms they stand for (``_term``): true at no cost in fuel if
    those are equal, else by lazy conversion, each side within the fuel.

    ``where`` names the site, followed by the printed ``subject`` if one
    is given; the text is rendered only when the error is read.
    """
    r = _beta_eq(_term(scope, a), _term(scope, b), scope.budget)
    if r is True:
        return
    shown = () if subject is None else (subject,)
    where += " {}" * len(shown)  # the subject, printed after the site's name
    if r is UNDETERMINED:
        _fail(ErrorKind.FUEL_EXHAUSTED, "conversion undecided in " + where, scope, *shown)
    _fail(ErrorKind.MISMATCH, where + ": {} is not convertible with {}", scope, *shown, a, b)


def label_of(e: LLam | LApp) -> LPi:
    return LPi(e.hint, e.dom, e.cod)


def directed_convertible(a: Node, b: Node, depth: int = DEFAULT_DEPTH) -> bool:
    """The labeled conversion premise: one side reduces to the other."""
    budget = _Budget(depth=depth)
    return _search(a, budget, {b})[0] or _search(b, budget, {a})[0]


def _directed(scope: _Scope, what: str, a: Node, b: Node, to: str) -> None:
    """Require ``directed_convertible(a, b)`` within the budget's depth, else
    fail: ``what`` type ``a`` does not reduce to or from ``to``, ``b`` in its ``{}``."""
    if not (_search(a, scope.budget, {b})[0] or _search(b, scope.budget, {a})[0]):
        _fail(ErrorKind.DIRECTED_CONVERSION_UNDETERMINED, "{} type {} does not reduce to or from " + to, scope, what, a, b)


def wf_context(spec: PtsSpec, ctx: Context, fuel: int = DEFAULT_FUEL) -> None:
    """Check names are distinct and every binding type (plain or labeled) has a sort."""
    _context_scope(spec, ctx, _Budget(fuel))


def _context_scope(spec: PtsSpec, ctx: Context, budget: _Budget) -> _Scope:
    """``wf_context``'s check, in the scope it returns: one over ``ctx`` keeping each binding's sort."""
    scope = _Scope(spec, Context(), budget)
    scope.types = {}
    for name, ty in ctx:
        if name in scope.types:
            _fail(ErrorKind.ILL_FORMED_CONTEXT, f"duplicate binding for {name!r}")
        try:
            s = _sort_of(scope, ty)
        except TypeCheckError as err:
            _fail(ErrorKind.ILL_FORMED_CONTEXT, "binding {} : {} is ill-formed ({})", scope, name, ty, err)
        scope.types[name], scope.sorts[name] = ty, s
    return scope


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
    scope = _Scope(spec, ctx, _Budget(fuel))
    return _term(scope, _infer(scope, e)[0])


def _infer(scope: _Scope, e: Node) -> tuple:
    """``(A, s)`` with scope |- e : A and, unless s is None, scope |- A : s;
    ``e`` and ``A`` are open over ``scope``'s binders (see ``_Scope``).

    A plain A may be delayed (see the module docstring): a variable's is its
    binder's annotation under the binder's environment, an application's
    its function's codomain with the argument bound, and a lambda's a
    ``_Prod`` when its body's is delayed.  The walk builds the term A stands
    for (``_term``) only to ask a question of it: a conversion, a sort, the
    product of a function's type that is not one already, or the type of a
    body that hands up no sort; callers build it too.  Labeled types, and
    the types sigma rules give, are terms.  An application whose function's
    type is a ``Pi``, a closure of one or a ``_Prod`` takes its
    parts as they are, the argument pushed onto the closure's environment or
    bound at the product's level; any other head is built and exposed by
    ``_fun_head``.  An argument whose type is, or equals as a node, the
    domain, or stands for the same binder level (``_level``), needs no
    ``_convertible``.

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
    how often they occur.  The budget's ``depth`` serves labeled terms, as
    ``labeled.labeled_infer`` describes.
    """
    cls = type(e)
    if cls is App:
        fun, arg = e.fun, e.arg
        fun_ty, s3 = _infer(scope, fun)
        head = fun_ty
        if not (type(head) is Pi or type(head) is _Prod or type(head) is tuple and type(head[0]) is Pi):
            head = _fun_head(scope, fun, _term(scope, fun_ty))
        if type(head) is Pi:
            dom, cod = head.dom, head.cod
            if cod._loose:
                cod = (cod, (_thunk(scope, arg), scope.env())) if head._loose or arg._loose else instantiate(cod, arg)
        elif type(head) is tuple:
            pi, env = head
            dom, cod = _clo(pi.dom, env), _clo(pi.cod, (_thunk(scope, arg), env))
        else:
            dom, cod = head.dom, _Subst(head.cod, head.level, _thunk(scope, arg))
        arg_ty = _infer(scope, arg)[0]
        if arg_ty is not dom and not (isinstance(dom, Node) and arg_ty == dom):  # a node is == only to a node
            level = _level(scope, arg_ty)
            if level is None or level != _level(scope, dom):
                _convertible(scope, arg_ty, dom, "argument of", fun)
        # the product reduces from fun_ty, so it has fun_ty's sort s3
        return cod, scope.spec.cod_sorts.get(s3)
    if cls is Var or cls is LVar:
        ty = scope.types.get(e.name)
        if ty is None:
            _fail(ErrorKind.UNBOUND_VARIABLE, f"unbound variable {e.name}")
        return ty, scope.sorts.get(e.name) or scope.once(scope.sorts, e.name, _sort_of) if cls is Var else None
    if cls is BVar or cls is LBVar:
        i = e.index
        if i >= len(scope.binders):
            raise ValueError("dangling bound variable reached the type checker")
        entry = scope.binders[-1 - i]
        ty = entry[1]
        if ty._loose:
            # labeled types stay terms; an index is shifted as cheaply as a closure is made
            if ty._role is BOUND or cls is LBVar:
                ty = _shift(ty, i + 1, 0)
            else:
                ty = (ty, scope.env(len(scope.binders) - 1 - i))
        return ty, entry[2]
    if cls is Lam:
        annot = e.annot
        s1 = _as_sort(scope, _infer(scope, annot)[0], annot)
        scope.binders.append((e, annot, s1))
        body_ty, s2 = _infer(scope, e.body)
        if s2 is None:
            s2 = _sort_of(scope, _term(scope, body_ty))
        scope.binders.pop()
        # TLam demands the synthesized product itself be well-sorted.
        if isinstance(body_ty, Node):
            pi = Pi(e.hint, annot, body_ty)
        else:
            pi = _Prod(e.hint, _thunk(scope, annot) if annot._loose else annot, body_ty, len(scope.binders))
        return pi, _pi_sort(scope, s1, s2, pi)
    if cls is Pi or cls is LPi:
        dom, cod = e.dom, e.cod
        s1 = _as_sort(scope, _infer(scope, dom)[0], dom)
        scope.binders.append((e, dom, s1))
        s2 = _as_sort(scope, _infer(scope, cod)[0], cod)
        scope.binders.pop()
        s3 = _pi_sort(scope, s1, s2, e)
        return (SortE if cls is Pi else LSort)(s3), scope.spec.axiom_for(s3)
    if cls is SortE or cls is LSort:
        s = e.name
        if s not in scope.spec.sorts:
            _fail(ErrorKind.SORT_UNTYPEABLE, f"unknown sort {s}")
        s2 = scope.spec.axiom_for(s)
        if s2 is None:
            _fail(ErrorKind.NO_AXIOM, f"sort {s} has no type")
        return cls(s2), scope.spec.axiom_for(s2)
    if cls is LLam:
        label = label_of(e)
        s3 = _infer(scope, label)[0].name
        # That checked the codomain whole, so a body lambda labeled with the
        # codomain is entered here without checking its label again: once
        # its own body checks, its type is that codomain.
        depth = len(scope.binders)
        dom, cod, body = e.dom, e.cod, e.body
        while True:
            scope.binders.append((e, dom, None))
            if not (type(body) is LLam and label_of(body) == cod):
                break
            e, dom, cod, body = body, body.dom, body.cod, body.body
        body_ty = _infer(scope, body)[0]
        _directed(scope, "body", body_ty, cod, "the label codomain")
        del scope.binders[depth:]
        return label, s3
    if cls is LApp:
        fun_ty = _infer(scope, e.fun)[0]
        label = label_of(e)
        _directed(scope, "function", fun_ty, label, "the label {}")
        arg_ty = _infer(scope, e.arg)[0]
        _directed(scope, "argument", arg_ty, e.dom, "{}")
        return instantiate(e.cod, e.arg), None
    if (cls is Sigma or cls is Pair or cls is Proj1 or cls is Proj2) and not scope.spec.sigma_enabled:
        _fail(ErrorKind.SIGMA_DISABLED, f"sigma extension is disabled: {scope.show(e)}")
    if cls is Sigma:
        first = e.first
        first_sort = _sort_of(scope, first)
        if first_sort != STAR:
            _fail(
                ErrorKind.MISMATCH,
                f"Sig first component {scope.show(first)} must be a type, has sort {first_sort}",
            )
        scope.binders.append((e, first, first_sort))
        s = _sort_of(scope, e.second)
        scope.binders.pop()
        return SortE(s), scope.spec.axiom_for(s)
    if cls is Pair:
        annot = e.annot
        _infer(scope, annot)
        head = _reduced(scope, _whnf, annot, "exposing the pair annotation", annot)
        if not isinstance(head, Sigma):
            _fail(ErrorKind.MISMATCH, f"pair annotation {scope.show(annot)} is not a Sig type")
        _convertible(scope, _infer(scope, e.first)[0], head.first, "first pair component")
        _convertible(scope, _infer(scope, e.second)[0], instantiate(head.second, e.first), "second pair component")
        return annot, None
    if cls is Proj1 or cls is Proj2:
        p = e.pair
        ty = _term(scope, _infer(scope, p)[0])
        head = _reduced(scope, _whnf, ty, "exposing the type of", p)
        if not isinstance(head, Sigma):
            _fail(ErrorKind.MISMATCH, f"{scope.show(p)} has type {scope.show(ty)}, not a Sig type")
        return (head.first if cls is Proj1 else instantiate(head.second, Proj1(p))), None
    raise TypeError(f"not an expression: {e!r}")


def check_type(spec: PtsSpec, ctx: Context, e: Expr, ty: Expr, fuel: int = DEFAULT_FUEL) -> None:
    """Check ctx |- e : ty; ty itself must be well-sorted.

    A sort with no successor axiom (box in the built-ins) is accepted as
    the classifier of kinds even though it has no type itself.
    """
    scope = _Scope(spec, ctx, _Budget(fuel))
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
    scope = _Scope(spec or _CC, ctx, _Budget(fuel))
    return _classify(scope, e, *_infer(scope, e))


def _classify(scope: _Scope, e: Expr, ty, s: str | None) -> Classification:
    """``classify`` from the pair ``(ty, s)`` that ``_infer`` gives for ``e``."""
    ty = _term(scope, ty)
    nty = _reduced(scope, _normal_form, ty, "normalizing the type of", e)
    if nty == SortE(BOX):
        return Kind()
    if s is None:
        s = _sort_of(scope, ty)
    if s == BOX:
        return GammaConstructor(is_type=nty == SortE(STAR))
    if s == STAR:
        return GammaTerm()
    _fail(ErrorKind.SORT_UNTYPEABLE, "type of {} is classified by {}", scope, e, s)


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
