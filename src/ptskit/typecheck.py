"""Syntax-directed inference and checking for an arbitrary PTS.

Conversion is folded into the application and checking sites via
bounded beta-equality; with confluence and normalization of well-typed
terms this recovers the declarative conversion rule for the built-in
systems.

One walk types plain and labeled terms.  Labeled lambdas and
applications check their labels and decide conversion by directed
search: one side must reduce to the other.
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
    _set,
    _shift,
)
from .reduction import DEFAULT_DEPTH, DEFAULT_FUEL, UNDETERMINED, FuelExhausted, _normal_form, beta_eq, reachable, whnf


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
    ``BVar i`` is typed by entry ``-1 - i``, its annotation shifted by
    ``i + 1``.  It carries the walk's spec, fuel and directed-search depth,
    and the sorts and labeled types of context variables found so far."""

    __slots__ = ("spec", "fuel", "depth", "sorts", "ltypes")

    def __init__(self, spec: PtsSpec, ctx: Context, fuel: int, depth: int = DEFAULT_DEPTH):
        Scope.__init__(self, ctx)
        self.spec, self.fuel, self.depth, self.sorts, self.ltypes = spec, fuel, depth, {}, {}

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


def _sort_of(scope: _Scope, ty: Node) -> str:
    return _as_sort(scope, _infer(scope, ty)[0], ty)


def _as_sort(scope: _Scope, ty: Node, subject: Node) -> str:
    """Normalize ``ty`` (plain or labeled) and require it to be a sort of the scope's spec."""
    try:
        n = _normal_form(ty, scope.fuel)
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
    """The product that ``fun``'s type ``fun_ty`` exposes at its head."""
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


def _convertible(scope: _Scope, a: Expr, b: Expr, where: str, subject: Expr | None = None) -> None:
    """Require a and b to be convertible.

    ``where`` names the site, followed by the printed ``subject`` if one
    is given; the text is rendered only when the check fails.
    """
    r = beta_eq(a, b, scope.fuel)
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
    """
    return _infer(_Scope(spec, ctx, fuel), e)[0]


def _infer(scope: _Scope, e: Node) -> tuple[Node, str | None]:
    """``(A, s)`` with scope |- e : A and, unless s is None, scope |- A : s;
    ``e`` and ``A`` are open over ``scope``'s binders (see ``_Scope``).

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
            head = _fun_head(scope, fun, fun_ty)
            _convertible(scope, _infer(scope, arg)[0], head.dom, "argument of", fun)
            # head reduces from fun_ty, so it has fun_ty's sort s3
            return instantiate(head.cod, arg), scope.spec.cod_sorts.get(s3)
        case Var(name) | LVar(name):
            ty = scope.types.get(name)
            if ty is None:
                _fail(ErrorKind.UNBOUND_VARIABLE, f"unbound variable {name}")
            return ty, scope.once(scope.sorts, name, _sort_of) if type(e) is Var else None
        case BVar(i) | LBVar(i):
            if i >= len(scope.binders):
                raise ValueError("dangling bound variable reached the type checker")
            entry = scope.binders[-1 - i]
            return _shift(entry[1], i + 1, 0), entry[2]
        case Lam(h, annot, body):
            s1 = _as_sort(scope, _infer(scope, annot)[0], annot)
            scope.binders.append((e, annot, s1))
            body_ty, s2 = _infer(scope, body)
            if s2 is None:
                s2 = _sort_of(scope, body_ty)
            scope.binders.pop()
            # TLam demands the synthesized product itself be well-sorted.
            pi = Pi(h, annot, body_ty)
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
            ty = _infer(scope, p)[0]
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


def _check_inferred(scope: _Scope, e: Expr, inferred: Expr, ty: Expr) -> None:
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


def _classify(scope: _Scope, e: Expr, ty: Expr, s: str | None) -> Classification:
    """``classify`` from the pair ``(ty, s)`` that ``_infer`` gives for ``e``."""
    try:
        nty = _normal_form(ty, scope.fuel)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"normalizing the type of {print_expr(e)}")
    if nty == SortE(BOX):
        return Kind()
    if s is None:
        s = _sort_of(scope, ty)
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
