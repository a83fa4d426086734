"""The labeled system: fully annotated terms with tight reduction.

Lambdas and applications carry the complete product type of the
function involved; the beta rule fires only when the two labels agree
up to alpha.  Conversion in the labeled type system is directed: one
side must actually reduce to the other.

The labeled node classes, their surface syntax and its printer live in
``syntax`` beside the plain ones, and tight reduction is the shared
``step_all`` with ``LApp``'s tight-beta rule; they are re-exported
here.  What lives here is erasure, elaboration from plain terms,
labeled typing and directed conversion.
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
    SortE,
    Var,
    close_binder,
    instantiate,
    open_binder,
    parse_labeled as parse_labeled,
    print_expr,
    print_labeled,
)
from .reduction import (
    DEFAULT_FUEL,
    FuelExhausted,
    beta_eq,
    is_base,
    key_redex_of,
    reachable,
    reduce_key_redex,
    step_all,
    trace,
    whnf,
)
from .typecheck import ErrorKind, TypeCheckError, _as_sort, _fail, _fresh_for, _infer, _pi_sort

DEFAULT_CONV_DEPTH = 12


def label_of(e: LLam | LApp) -> LPi:
    return LPi(e.hint, e.dom, e.cod)


def l_open(body: LabeledExpr, name: str) -> LabeledExpr:
    return instantiate(body, LVar(name))


# ---------------------------------------------------------------------------
# Erasure


def erase(la: LabeledExpr) -> Expr:
    """Drop the labels; lambdas keep only their domain annotation."""
    match la:
        case LSort(name):
            return SortE(name)
        case LVar(name):
            return Var(name)
        case LBVar(i):
            return BVar(i)
        case LPi(h, dom, cod):
            return Pi(h, erase(dom), erase(cod))
        case LLam(h, dom, _, body):
            return Lam(h, erase(dom), erase(body))
        case LApp(_, _, _, fun, arg):
            return App(erase(fun), erase(arg))
        case _:
            raise TypeError(f"not a labeled expression: {la!r}")


# ---------------------------------------------------------------------------
# Tight reduction: ``step_all``, ``leftmost_step`` and the key-redex
# functions of ``reduction`` read the labeled shape tables too.

tight_step_all = step_all
l_is_base = is_base
l_key_redex_of = key_redex_of
l_reduce_key_redex = reduce_key_redex

# A labeled context is a Context whose types are labeled.
LabeledContext = Context


def l_normalize(la: LabeledExpr, fuel: int = DEFAULT_FUEL) -> LabeledExpr:
    """Tight normal form by leftmost-outermost steps, at most ``fuel`` of them."""
    t, truncated = trace(la, fuel)
    last = t.terms()[-1]
    if truncated:
        raise FuelExhausted(last)
    return last


def directed_convertible(a: LabeledExpr, b: LabeledExpr, depth: int = DEFAULT_CONV_DEPTH) -> bool:
    """The labeled conversion premise: one side reduces to the other."""
    return reachable(a, b, depth) or reachable(b, a, depth)


# ---------------------------------------------------------------------------
# Labeled typing


def labeled_infer(
    spec: PtsSpec,
    lctx: Context,
    la: LabeledExpr,
    fuel: int = DEFAULT_FUEL,
    conv_depth: int = DEFAULT_CONV_DEPTH,
    warnings: list[str] | None = None,
) -> LabeledExpr:
    """Infer a labeled type; conversions are decided by directed search.

    An application label that differs from the function's type after
    normalization is recorded in ``warnings`` (when given), not rejected.
    """
    match la:
        case LSort(s):
            if s not in spec.sorts:
                _fail(ErrorKind.SORT_UNTYPEABLE, f"unknown sort {s}")
            s2 = spec.axiom_for(s)
            if s2 is None:
                _fail(ErrorKind.NO_AXIOM, f"sort {s} has no type")
            return LSort(s2)
        case LVar(name):
            ty = lctx.lookup(name)
            if ty is None:
                _fail(ErrorKind.UNBOUND_VARIABLE, f"unbound variable {name}")
            return ty
        case LBVar():
            raise ValueError("dangling bound variable reached the labeled checker")
        case LPi(h, dom, cod):
            s1 = _as_sort(spec, labeled_infer(spec, lctx, dom, fuel, conv_depth, warnings), fuel, dom, l_normalize)
            x = _fresh_for(lctx, h, dom, cod)
            cod_x = l_open(cod, x)
            cod_ty = labeled_infer(spec, lctx.extend(x, dom), cod_x, fuel, conv_depth, warnings)
            s2 = _as_sort(spec, cod_ty, fuel, cod_x, l_normalize)
            return LSort(_pi_sort(spec, s1, s2, la))
        case LLam(h, dom, cod, body):
            label = label_of(la)
            labeled_infer(spec, lctx, label, fuel, conv_depth, warnings)
            # That checked the codomain whole, so a body lambda labeled with the
            # opened codomain is entered here without checking its label again:
            # once its own body checks, its type is that codomain.
            while True:
                x = _fresh_for(lctx, h, dom, cod, body)
                lctx = lctx.extend(x, dom)
                body, cod = l_open(body, x), l_open(cod, x)
                if not (isinstance(body, LLam) and label_of(body) == cod):
                    break
                h, dom, cod, body = body.hint, body.dom, body.cod, body.body
            body_ty = labeled_infer(spec, lctx, body, fuel, conv_depth, warnings)
            if not directed_convertible(body_ty, cod, conv_depth):
                _fail(
                    ErrorKind.DIRECTED_CONVERSION_UNDETERMINED,
                    f"body type {print_labeled(body_ty)} does not reduce to or from the label codomain",
                )
            return label
        case LApp(h, dom, cod, fun, arg):
            fun_ty = labeled_infer(spec, lctx, fun, fuel, conv_depth, warnings)
            label = LPi(h, dom, cod)
            if not directed_convertible(fun_ty, label, conv_depth):
                _fail(
                    ErrorKind.DIRECTED_CONVERSION_UNDETERMINED,
                    f"function type {print_labeled(fun_ty)} does not reduce to or from the label {print_labeled(label)}",
                )
            if warnings is not None:
                try:
                    if l_normalize(fun_ty, fuel) != l_normalize(label, fuel):
                        warnings.append(
                            f"application label {print_labeled(label)} differs from the function type "
                            f"{print_labeled(fun_ty)} after normalization"
                        )
                except FuelExhausted:
                    warnings.append("label comparison ran out of fuel")
            arg_ty = labeled_infer(spec, lctx, arg, fuel, conv_depth, warnings)
            if not directed_convertible(arg_ty, dom, conv_depth):
                _fail(
                    ErrorKind.DIRECTED_CONVERSION_UNDETERMINED,
                    f"argument type {print_labeled(arg_ty)} does not reduce to or from {print_labeled(dom)}",
                )
            return instantiate(cod, arg)
        case _:
            raise TypeError(f"not a labeled expression: {la!r}")


def labeled_wf_context(spec: PtsSpec, lctx: Context, fuel: int = DEFAULT_FUEL) -> None:
    prefix = Context()
    for name, ty in lctx:
        if name in prefix.names():
            _fail(ErrorKind.ILL_FORMED_CONTEXT, f"duplicate binding for {name!r}")
        try:
            _as_sort(spec, labeled_infer(spec, prefix, ty, fuel), fuel, ty, l_normalize)
        except TypeCheckError as err:
            _fail(ErrorKind.ILL_FORMED_CONTEXT, f"binding {name} is ill-formed ({err})")
        prefix = prefix.extend(name, ty)


# ---------------------------------------------------------------------------
# Elaboration from plain terms


def label_term(spec: PtsSpec, ctx: Context, a: Expr, fuel: int = DEFAULT_FUEL) -> LabeledExpr:
    """Annotate a well-typed plain term along its inference derivation.

    Lambdas receive the synthesized product, applications the product
    exposed for the function; erasure undoes the elaboration exactly.
    The walk types ``a`` once, as ``infer_type`` does: the sort and the
    labeled form of a lambda's type travel up with it, so an enclosing
    lambda neither re-checks nor re-elaborates the product.
    """
    return _elaborate(spec, ctx, a, fuel)[0]


def label_context(spec: PtsSpec, ctx: Context, fuel: int = DEFAULT_FUEL) -> Context:
    lctx = Context()
    prefix = Context()
    for name, ty in ctx:
        lctx = lctx.extend(name, _elaborate(spec, prefix, ty, fuel)[0])
        prefix = prefix.extend(name, ty)
    return lctx


def _elaborate(spec: PtsSpec, ctx: Context, a: Expr, fuel: int) -> tuple[LabeledExpr, Expr, str | None, LabeledExpr | None]:
    """``(labeled a, A, s, labeled A)``: A and s as ``_infer`` gives them; the
    labeled A is known for a lambda, None elsewhere."""
    match a:
        case SortE(s):
            return LSort(s), *_infer(spec, ctx, a, fuel), None
        case Var(name):
            return LVar(name), *_infer(spec, ctx, a, fuel), None
        case Pi(h, dom, cod):
            ldom, dom_ty, _, _ = _elaborate(spec, ctx, dom, fuel)
            x = _fresh_for(ctx, h, dom, cod)
            cod_x = open_binder(cod, x)
            lcod, cod_ty, _, _ = _elaborate(spec, ctx.extend(x, dom), cod_x, fuel)
            # the parts' types are the ones infer_type would find, so the
            # product's sort comes from them, checked in the same order
            s1 = _as_sort(spec, dom_ty, fuel, dom)
            s2 = _as_sort(spec, cod_ty, fuel, cod_x)
            s3 = _pi_sort(spec, s1, s2, a)
            return LPi(h, ldom, close_binder(lcod, x)), SortE(s3), spec.axiom_for(s3), None
        case Lam(h, annot, body):
            lannot, annot_ty, _, _ = _elaborate(spec, ctx, annot, fuel)
            x = _fresh_for(ctx, h, annot, body)
            inner = ctx.extend(x, annot)
            lbody, body_ty, s2, lcod = _elaborate(spec, inner, open_binder(body, x), fuel)
            pi = Pi(h, annot, close_binder(body_ty, x))
            # the TLam product premise, settled as in _infer
            if s2 is None:
                s3 = _infer(spec, ctx, pi, fuel)[0].name
            else:
                s3 = _pi_sort(spec, _as_sort(spec, annot_ty, fuel, annot), s2, pi)
            if lcod is None:
                lcod = _elaborate(spec, inner, body_ty, fuel)[0]
            lcod = close_binder(lcod, x)
            return LLam(h, lannot, lcod, close_binder(lbody, x)), pi, s3, LPi(h, lannot, lcod)
        case App(fun, arg):
            lfun, fun_ty, _, lfun_ty = _elaborate(spec, ctx, fun, fuel)
            try:
                head = whnf(fun_ty, fuel)
            except FuelExhausted:
                _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the type of {print_expr(fun)}")
            if not isinstance(head, Pi):
                _fail(ErrorKind.NOT_A_FUNCTION, f"{print_expr(fun)} is not a function")
            larg, arg_ty, _, _ = _elaborate(spec, ctx, arg, fuel)
            conv = beta_eq(arg_ty, head.dom, fuel)
            if conv is not True:
                kind = ErrorKind.MISMATCH if conv is False else ErrorKind.FUEL_EXHAUSTED
                _fail(kind, f"argument of {print_expr(fun)} has type {print_expr(arg_ty)}")
            lpi = lfun_ty if lfun_ty is not None else _elaborate(spec, ctx, head, fuel)[0]
            return LApp(lpi.hint, lpi.dom, lpi.cod, lfun, larg), instantiate(head.cod, arg), None, None
        case _:
            _fail(
                ErrorKind.SIGMA_DISABLED,
                f"the labeled system covers core terms only: {print_expr(a)}",
            )
