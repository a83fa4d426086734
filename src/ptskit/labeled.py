"""The labeled system: fully annotated terms with tight reduction.

Lambdas and applications carry the complete product type of the
function involved; the beta rule fires only when the two labels agree
up to alpha.  Conversion in the labeled type system is directed: one
side must actually reduce to the other.

The labeled node classes, their surface syntax and its printer live in
``syntax`` beside the plain ones; tight reduction and tight
normalization are the shared ``step_all`` (re-exported here as
``tight_step_all``) and ``normalize`` with ``LApp``'s tight-beta rule;
labeled typing is the one walk of ``typecheck``.  What lives here is
erasure and elaboration from plain terms.
"""

from __future__ import annotations

from .syntax import (
    App,
    BVar,
    Context,
    Expr,
    LabeledExpr,
    LApp,
    LBVar,
    LLam,
    LPi,
    LSort,
    LVar,
    Lam,
    Pi,
    PtsSpec,
    SIGMA_NODES,
    SortE,
    Var,
    _mentions_bound,
    _shift,
    instantiate,
    parse_labeled as parse_labeled,
    print_labeled as print_labeled,
)
from .reduction import DEFAULT_DEPTH, DEFAULT_FUEL, _Budget, step_all
from .typecheck import (
    ErrorKind,
    _as_sort,
    _convertible,
    _fail,
    _fun_head,
    _infer,
    _infer_bvar,
    _infer_sort,
    _infer_var,
    _pi_sort,
    _Scope,
    _term,
    directed_convertible as directed_convertible,
    label_of as label_of,
)

# ---------------------------------------------------------------------------
# Erasure


def erase(la: LabeledExpr) -> Expr:
    """Drop the labels; lambdas keep only their domain annotation."""
    if not isinstance(la, LabeledExpr):
        raise TypeError(f"not a labeled expression: {la!r}")
    plain, kept = la._erasure
    fields = {"hint": la.hint} if "hint" in plain.__match_args__ else {}
    for name, to in kept:
        value = getattr(la, name)
        fields[to] = erase(value) if la._role is None else value
    return plain(**fields)


def _erases_to(la: LabeledExpr, a: Expr) -> bool:
    """``erase(la) == a``, decided by walking both, hints aside, without building the erasure."""
    todo = [(la, a)]
    while todo:
        la, a = todo.pop()
        plain, kept = la._erasure
        if a.__class__ is not plain:
            return False
        for name, to in kept:
            x, y = getattr(la, name), getattr(a, to)
            if la._role is None:
                todo.append((x, y))
            elif x != y:
                return False
    return True


# ---------------------------------------------------------------------------
# Tight reduction and labeled typing: the functions of ``reduction`` and
# ``typecheck`` read the labeled shape tables and rules too.

tight_step_all = step_all

# A labeled context is a Context whose types are labeled.
LabeledContext = Context


def labeled_infer(
    spec: PtsSpec,
    lctx: Context,
    la: LabeledExpr,
    fuel: int = DEFAULT_FUEL,
    conv_depth: int = DEFAULT_DEPTH,
) -> LabeledExpr:
    """Infer a labeled type; conversions are decided by directed search."""
    scope = _Scope(spec, lctx, _Budget(fuel, conv_depth))
    return _term(scope, _infer(scope, la)[0])


# ---------------------------------------------------------------------------
# Elaboration from plain terms


def label_term(spec: PtsSpec, ctx: Context, a: Expr, fuel: int = DEFAULT_FUEL) -> LabeledExpr:
    """Annotate a well-typed plain term along its inference derivation.

    Lambdas receive the synthesized product, applications the product
    exposed for the function; erasure undoes the elaboration exactly.
    The walk types ``a`` once, in ``infer_type``'s premise order: a
    binder's annotation is elaborated and its sort checked before
    anything under the binder.  The sort and the labeled form of a
    variable's or a lambda's type travel up with it, so an enclosing
    lambda neither re-checks nor re-elaborates the product, and an
    application of a variable takes its label from the variable's binder.
    """
    return _elaborate(_Scope(spec, ctx, _Budget(fuel)), a)[0]


def label_context(spec: PtsSpec, ctx: Context, fuel: int = DEFAULT_FUEL) -> Context:
    lctx = Context()
    prefix = _Scope(spec, Context(), _Budget(fuel))
    prefix.types = {}
    for name, ty in ctx:
        lty = _elaborate(prefix, ty)[0]
        lctx = lctx.extend(name, lty)
        prefix.types.setdefault(name, ty)
        prefix.ltypes.setdefault(name, lty)
    return lctx


def _ltype_of(scope: _Scope, ty: Expr) -> LabeledExpr:
    return _elaborate(scope, ty)[0]


def _elaborate(scope: _Scope, a: Expr) -> tuple[LabeledExpr, Expr, str | None, LabeledExpr | None]:
    """``(labeled a, A, s, labeled A)``: A and s as ``_infer`` gives them, A
    as a term, open over ``scope``'s binders, whose entries also hold the
    labeled annotation; the labeled A is known for a variable whose type
    elaborates, for a lambda and for an application whose product's
    codomain does not mention its binder, None elsewhere.  An application
    takes a function type that is a product as its head, with no reduction."""
    cls = type(a)
    if cls is SortE:
        return LSort(a.name), *_infer_sort(scope, a), None
    if cls is Var:
        return LVar(a.name), *_infer_var(scope, a), scope.ltypes.get(a.name) or scope.once(scope.ltypes, a.name, _ltype_of)
    if cls is BVar:
        ty, s = _infer_bvar(scope, a)
        return LBVar(a.index), _term(scope, ty), s, _shift(scope.binders[-1 - a.index][3], a.index + 1, 0)
    if cls is Pi:
        dom, cod = a.dom, a.cod
        # the parts' types are the ones _infer finds, so the product's
        # sort comes from them, checked in the same order
        ldom, dom_ty, _, _ = _elaborate(scope, dom)
        s1 = _as_sort(scope, dom_ty, dom)
        scope.binders.append((a, dom, s1, ldom))
        lcod, cod_ty, _, _ = _elaborate(scope, cod)
        s2 = _as_sort(scope, cod_ty, cod)
        scope.binders.pop()
        s3 = _pi_sort(scope, s1, s2, a)
        return LPi(a.hint, ldom, lcod), SortE(s3), scope.spec.axiom_for(s3), None
    if cls is Lam:
        h, annot = a.hint, a.annot
        lannot, annot_ty, _, _ = _elaborate(scope, annot)
        s1 = _as_sort(scope, annot_ty, annot)
        scope.binders.append((a, annot, s1, lannot))
        lbody, body_ty, s2, lcod = _elaborate(scope, a.body)
        # the TLam product premise, settled as in _infer_lam; elaborating the
        # body's type gives its labeled form and, if missing, its sort
        if lcod is None or s2 is None:
            lcod, cod_ty, _, _ = _elaborate(scope, body_ty)
            if s2 is None:
                s2 = _as_sort(scope, cod_ty, body_ty)
        scope.binders.pop()
        pi = Pi(h, annot, body_ty)
        return LLam(h, lannot, lcod, lbody), pi, _pi_sort(scope, s1, s2, pi), LPi(h, lannot, lcod)
    if cls is App:
        fun, arg = a.fun, a.arg
        lfun, fun_ty, s3, lfun_ty = _elaborate(scope, fun)
        head = fun_ty if type(fun_ty) is Pi else _fun_head(scope, fun, fun_ty)
        larg, arg_ty, _, _ = _elaborate(scope, arg)
        if arg_ty != head.dom:
            _convertible(scope, arg_ty, head.dom, "argument of", fun)
        # the function's labeled type is its label unless its type had to reduce
        lpi = lfun_ty if lfun_ty is not None and head is fun_ty else _elaborate(scope, head)[0]
        # a codomain free of its binder is labeled as in the label; a dependent one
        # is not, where the argument's type differs from the label's domain
        lty = None if _mentions_bound(head.cod) else instantiate(lpi.cod, larg)
        return LApp(lpi.hint, lpi.dom, lpi.cod, lfun, larg), instantiate(head.cod, arg), scope.spec.cod_sorts.get(s3), lty
    if cls in SIGMA_NODES:
        _fail(ErrorKind.SIGMA_DISABLED, "the labeled system covers core terms only: {}", scope, a)
    raise TypeError(f"not an expression: {a!r}")
