"""Fully annotated terms with tight reduction.

Lambdas and applications carry the complete product type of the
function involved; the beta rule fires only when the two labels agree
up to alpha.  Conversion in the labeled type system is directed: one
side must actually reduce to the other.

The node classes declare shape tables like the plain ones (see
``syntax.Node``), so substitution, free variables and the step walks,
key-redex functions and bounded search of ``reduction`` serve labeled
terms unchanged; tight reduction is ``step_all`` with ``LApp``'s
tight-beta rule.  What lives here is the labeled syntax itself,
erasure, elaboration from plain terms and labeled typing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    BOUND,
    CONST,
    FREE,
    App,
    BVar,
    Context,
    Expr,
    Lam,
    Node,
    Pi,
    PtsSpec,
    SortE,
    Var,
    _Parser,
    _mentions_bound,
    _tokenize,
    close_binder,
    fresh_name,
    free_vars,
    instantiate,
    open_binder,
    print_expr,
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
from .typecheck import ErrorKind, TypeCheckError, _fail, _fresh_for, infer_type

DEFAULT_CONV_DEPTH = 12


class LabeledExpr(Node):
    __slots__ = ()

    def __str__(self) -> str:
        return print_labeled(self)


@dataclass(frozen=True)
class LSort(LabeledExpr):
    name: str

    _shape = (("name", None, None),)
    _role = CONST


@dataclass(frozen=True)
class LBVar(LabeledExpr):
    index: int

    _shape = (("index", None, None),)
    _role = BOUND


@dataclass(frozen=True)
class LVar(LabeledExpr):
    name: str

    _shape = (("name", None, None),)
    _role = FREE
    _bound = LBVar


@dataclass(frozen=True)
class LPi(LabeledExpr):
    hint: str = field(compare=False)
    dom: LabeledExpr
    cod: LabeledExpr  # binds

    _shape = (("hint", None, None), ("dom", 0, "dom"), ("cod", 1, "cod"))


@dataclass(frozen=True)
class LLam(LabeledExpr):
    """Lambda labeled with its full product type (x:dom) -> cod.

    One binder scopes over both the label codomain and the body.
    """

    hint: str = field(compare=False)
    dom: LabeledExpr
    cod: LabeledExpr  # binds
    body: LabeledExpr  # binds

    _shape = (("hint", None, None), ("dom", 0, "dom"), ("cod", 1, "cod"), ("body", 1, "body"))


@dataclass(frozen=True)
class LApp(LabeledExpr):
    """Application labeled with the product type of its function.

    Its root tight-beta step fires only when the function is a lambda
    whose label equals this one.
    """

    hint: str = field(compare=False)
    dom: LabeledExpr
    cod: LabeledExpr  # binds
    fun: LabeledExpr
    arg: LabeledExpr

    _shape = (
        ("hint", None, None),
        ("dom", 0, "dom"),
        ("cod", 1, "cod"),
        ("fun", 0, "fun"),
        ("arg", 0, "arg"),
    )
    _head = "fun"
    _redex = "tight-beta"

    def _fires(self) -> bool:
        return isinstance(self.fun, LLam) and _labels_match(self, self.fun)

    def _contract(self) -> LabeledExpr:
        return instantiate(self.fun.body, self.arg)


def label_of(e: LLam | LApp) -> LPi:
    return LPi(e.hint, e.dom, e.cod)


def _labels_match(app: LApp, lam: LLam) -> bool:
    return app.dom == lam.dom and app.cod == lam.cod


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


def _l_as_sort(spec: PtsSpec, ty: LabeledExpr, fuel: int, subject: LabeledExpr) -> str:
    try:
        n = l_normalize(ty, fuel)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"normalizing the type of {print_labeled(subject)}")
    if isinstance(n, LSort) and n.name in spec.sorts:
        return n.name
    _fail(
        ErrorKind.SORT_UNTYPEABLE,
        f"{print_labeled(subject)} is classified by {print_labeled(n)}, not a sort",
    )


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
            s1 = _l_as_sort(spec, labeled_infer(spec, lctx, dom, fuel, conv_depth, warnings), fuel, dom)
            x = _fresh_for(lctx, h, dom, cod)
            cod_x = l_open(cod, x)
            s2 = _l_as_sort(
                spec,
                labeled_infer(spec, lctx.extend(x, dom), cod_x, fuel, conv_depth, warnings),
                fuel,
                cod_x,
            )
            s3 = spec.rule_for(s1, s2)
            if s3 is None:
                _fail(ErrorKind.NO_RULE, f"no rule ({s1},{s2},_) to form {print_labeled(la)}")
            return LSort(s3)
        case LLam(h, dom, cod, body):
            labeled_infer(spec, lctx, LPi(h, dom, cod), fuel, conv_depth, warnings)
            x = _fresh_for(lctx, h, dom, cod, body)
            body_ty = labeled_infer(spec, lctx.extend(x, dom), l_open(body, x), fuel, conv_depth, warnings)
            if not directed_convertible(body_ty, l_open(cod, x), conv_depth):
                _fail(
                    ErrorKind.DIRECTED_CONVERSION_UNDETERMINED,
                    f"body type {print_labeled(body_ty)} does not reduce to or from the label codomain",
                )
            return LPi(h, dom, cod)
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
            _l_as_sort(spec, labeled_infer(spec, prefix, ty, fuel), fuel, ty)
        except TypeCheckError as err:
            _fail(ErrorKind.ILL_FORMED_CONTEXT, f"binding {name} is ill-formed ({err})")
        prefix = prefix.extend(name, ty)


# ---------------------------------------------------------------------------
# Elaboration from plain terms


def label_term(spec: PtsSpec, ctx: Context, a: Expr, fuel: int = DEFAULT_FUEL) -> LabeledExpr:
    """Annotate a well-typed plain term along its inference derivation.

    Lambdas receive the synthesized product, applications the product
    exposed for the function; erasure undoes the elaboration exactly.
    """
    labeled, _ = _elaborate(spec, ctx, a, fuel)
    return labeled


def label_context(spec: PtsSpec, ctx: Context, fuel: int = DEFAULT_FUEL) -> Context:
    lctx = Context()
    prefix = Context()
    for name, ty in ctx:
        lty, _ = _elaborate(spec, prefix, ty, fuel)
        lctx = lctx.extend(name, lty)
        prefix = prefix.extend(name, ty)
    return lctx


def _elaborate(spec: PtsSpec, ctx: Context, a: Expr, fuel: int) -> tuple[LabeledExpr, Expr]:
    match a:
        case SortE(s):
            ty = infer_type(spec, ctx, a, fuel)
            return LSort(s), ty
        case Var(name):
            ty = infer_type(spec, ctx, a, fuel)
            return LVar(name), ty
        case Pi(h, dom, cod):
            ldom, _ = _elaborate(spec, ctx, dom, fuel)
            x = _fresh_for(ctx, h, dom, cod)
            lcod, _ = _elaborate(spec, ctx.extend(x, dom), open_binder(cod, x), fuel)
            ty = infer_type(spec, ctx, a, fuel)
            return LPi(h, ldom, close_binder(lcod, x)), ty
        case Lam(h, annot, body):
            lannot, _ = _elaborate(spec, ctx, annot, fuel)
            x = _fresh_for(ctx, h, annot, body)
            inner = ctx.extend(x, annot)
            lbody, body_ty = _elaborate(spec, inner, open_binder(body, x), fuel)
            pi = Pi(h, annot, close_binder(body_ty, x))
            infer_type(spec, ctx, pi, fuel)  # the TLam product premise
            lcod, _ = _elaborate(spec, inner, body_ty, fuel)
            return LLam(h, lannot, close_binder(lcod, x), close_binder(lbody, x)), pi
        case App(fun, arg):
            lfun, fun_ty = _elaborate(spec, ctx, fun, fuel)
            try:
                head = whnf(fun_ty, fuel)
            except FuelExhausted:
                _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the type of {print_expr(fun)}")
            if not isinstance(head, Pi):
                _fail(ErrorKind.NOT_A_FUNCTION, f"{print_expr(fun)} is not a function")
            larg, arg_ty = _elaborate(spec, ctx, arg, fuel)
            conv = beta_eq(arg_ty, head.dom, fuel)
            if conv is not True:
                kind = ErrorKind.MISMATCH if conv is False else ErrorKind.FUEL_EXHAUSTED
                _fail(kind, f"argument of {print_expr(fun)} has type {print_expr(arg_ty)}")
            lpi, _ = _elaborate(spec, ctx, head, fuel)
            assert isinstance(lpi, LPi)
            return (
                LApp(lpi.hint, lpi.dom, lpi.cod, lfun, larg),
                instantiate(head.cod, arg),
            )
        case _:
            _fail(
                ErrorKind.SIGMA_DISABLED,
                f"the labeled system covers core terms only: {print_expr(a)}",
            )


# ---------------------------------------------------------------------------
# Labeled surface syntax (emitted and consumed by the CLI only)

_L_ARROW = 0
_L_APP = 1
_L_ARG = 2


def _lpp(e: LabeledExpr, names: list[str], prec: int) -> str:
    match e:
        case LSort(name):
            return name
        case LVar(name):
            return name
        case LBVar(i):
            return names[-1 - i] if i < len(names) else f"?{i}"
        case LPi(hint, dom, cod):
            mentions = _mentions_bound(cod)
            if mentions:
                x = fresh_name(hint, set(free_vars(cod)) | set(names))
                names.append(x)
                body = _lpp(cod, names, _L_ARROW)
                names.pop()
                s = f"({x}:{_lpp(dom, names, _L_ARROW)}) -> {body}"
            else:
                names.append("")
                body = _lpp(cod, names, _L_ARROW)
                names.pop()
                s = f"{_lpp(dom, names, _L_APP)} -> {body}"
            return f"({s})" if prec > _L_ARROW else s
        case LLam(hint, dom, cod, body):
            x = fresh_name(hint, set(free_vars(cod)) | set(free_vars(body)) | set(names))
            dom_s = _lpp(dom, names, _L_APP)
            names.append(x)
            cod_s = _lpp(cod, names, _L_ARROW)
            body_s = _lpp(body, names, _L_ARROW)
            names.pop()
            s = f"\\[{x} : {dom_s} -> {cod_s}] {x} : {dom_s} . {body_s}"
            return f"({s})" if prec > _L_ARROW else s
        case LApp(hint, dom, cod, fun, arg):
            x = fresh_name(hint, set(free_vars(cod)) | set(names))
            dom_s = _lpp(dom, names, _L_APP)
            names.append(x)
            cod_s = _lpp(cod, names, _L_ARROW)
            names.pop()
            s = f"{_lpp(fun, names, _L_APP)} @[{x} : {dom_s} -> {cod_s}] {_lpp(arg, names, _L_ARG)}"
            return f"({s})" if prec > _L_APP else s
        case _:
            raise TypeError(f"not a labeled expression: {e!r}")


def print_labeled(la: LabeledExpr) -> str:
    return _lpp(la, [], _L_ARROW)


class _LabeledParser(_Parser):
    def expr(self):
        t = self.peek()
        if t.kind == "punct" and t.text == "\\":
            self.next()
            self.expect("punct", "[")
            x, dom, cod = self.label()
            self.expect("punct", "]")
            x2 = self.ident()
            if x2 != x:
                self.error(f"binder {x2!r} does not match the label binder {x!r}")
            self.expect("punct", ":")
            dom2 = self.app()
            if dom2 != dom:
                self.error("lambda annotation does not match the label domain")
            self.expect("punct", ".")
            body = self.expr()
            return LLam(x, dom, close_binder(cod, x), close_binder(body, x))
        return self.arrow()

    def label(self):
        x = self.ident()
        self.expect("punct", ":")
        dom = self.app()
        self.expect("arrow")
        cod = self.expr()
        return x, dom, cod

    def arrow(self):
        if self.at_pi_start():
            self.next()
            name = self.ident()
            self.expect("punct", ":")
            dom = self.expr()
            self.expect("punct", ")")
            self.expect("arrow")
            cod = self.expr()
            return LPi(name, dom, close_binder(cod, name))
        left = self.app()
        if self.peek().kind == "arrow":
            self.next()
            return LPi("_", left, self.expr())
        return left

    def app(self):
        e = self.postfix()
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "@":
                self.next()
                self.expect("punct", "[")
                x, dom, cod = self.label()
                self.expect("punct", "]")
                arg = self.postfix()
                e = LApp(x, dom, close_binder(cod, x), e, arg)
            elif self.at_atom_start():
                self.error("labeled application must be written with @[...]")
            else:
                return e

    def postfix(self):
        return self.atom()

    def atom(self):
        t = self.peek()
        if t.kind == "punct" and t.text == "*":
            self.next()
            return LSort("*")
        if t.kind == "punct" and t.text == "#":
            self.next()
            return LSort("#")
        if t.kind in ("ident", "reserved"):
            return LVar(self.ident())
        if t.kind == "punct" and t.text == "(":
            self.next()
            e = self.expr()
            self.expect("punct", ")")
            return e
        self.error(f"expected a labeled expression, found {t.text or 'end of input'!r}")


def parse_labeled(text: str, allow_reserved: bool = True) -> LabeledExpr:
    p = _LabeledParser(_tokenize(text), sigma_enabled=False, allow_reserved=allow_reserved)
    e = p.expr()
    t = p.peek()
    if t.kind != "eof":
        p.error(f"unexpected trailing input {t.text!r}")
    return e
