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
from dataclasses import dataclass

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
    Sigma,
    SortE,
    Var,
    BUILTIN_SPECS,
    close_binder,
    fresh_name,
    instantiate,
    open_binder,
    print_expr,
)
from .reduction import DEFAULT_FUEL, UNDETERMINED, FuelExhausted, beta_eq, normalize, reachable, whnf

DEFAULT_CONV_DEPTH = 12


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


def _as_sort(spec: PtsSpec, ty: Node, fuel: int, subject: Node) -> str:
    """Normalize ``ty`` (plain or labeled) and require it to be a sort of ``spec``."""
    try:
        n = normalize(ty, fuel)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"normalizing the type of {print_expr(subject)}")
    if isinstance(n, (SortE, LSort)) and n.name in spec.sorts:
        return n.name
    _fail(
        ErrorKind.SORT_UNTYPEABLE,
        f"{print_expr(subject)} is classified by {print_expr(n)}, not a sort",
    )


def _pi_sort(spec: PtsSpec, s1: str, s2: str, pi: Node) -> str:
    """The sort of product ``pi`` (plain or labeled) from its parts' sorts."""
    s3 = spec.rule_for(s1, s2)
    if s3 is None:
        _fail(ErrorKind.NO_RULE, f"no rule ({s1},{s2},_) to form {print_expr(pi)}")
    return s3


def _cod_sort(spec: PtsSpec, s3: str | None) -> str | None:
    """The sort of a product's codomain, from the product's sort ``s3``:
    known when the rules that form ``s3`` agree on it, as in every
    built-in system, where each rule has s2 = s3."""
    if s3 is None:
        return None
    cods = {r2 for _, r2, r3 in spec.rules if r3 == s3}
    return cods.pop() if len(cods) == 1 else None


def _fun_head(fun: Expr, fun_ty: Expr, fuel: int) -> Pi:
    """The product that ``fun``'s type ``fun_ty`` exposes at its head."""
    try:
        head = whnf(fun_ty, fuel)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the type of {print_expr(fun)}")
    if not isinstance(head, Pi):
        _fail(
            ErrorKind.NOT_A_FUNCTION,
            f"{print_expr(fun)} has type {print_expr(fun_ty)}, which is not a function type",
        )
    return head


def _convertible(a: Expr, b: Expr, fuel: int, where: str, subject: Expr | None = None) -> None:
    """Require a and b to be convertible.

    ``where`` names the site, followed by the printed ``subject`` if one
    is given; the text is rendered only when the check fails.
    """
    r = beta_eq(a, b, fuel)
    if r is True:
        return
    if subject is not None:
        where = f"{where} {print_expr(subject)}"
    if r is UNDETERMINED:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"conversion undecided in {where}")
    _fail(ErrorKind.MISMATCH, f"{where}: {print_expr(a)} is not convertible with {print_expr(b)}")


def label_of(e: LLam | LApp) -> LPi:
    return LPi(e.hint, e.dom, e.cod)


def directed_convertible(a: Node, b: Node, depth: int = DEFAULT_CONV_DEPTH) -> bool:
    """The labeled conversion premise: one side reduces to the other."""
    return reachable(a, b, depth) or reachable(b, a, depth)


def wf_context(spec: PtsSpec, ctx: Context, fuel: int = DEFAULT_FUEL) -> None:
    """Check names are distinct and every binding type (plain or labeled) has a sort."""
    prefix = Context()
    for name, ty in ctx:
        if name in prefix:
            _fail(ErrorKind.ILL_FORMED_CONTEXT, f"duplicate binding for {name!r}")
        try:
            ty_of_ty = infer_type(spec, prefix, ty, fuel)
            _as_sort(spec, ty_of_ty, fuel, ty)
        except TypeCheckError as err:
            _fail(
                ErrorKind.ILL_FORMED_CONTEXT,
                f"binding {name} : {print_expr(ty)} is ill-formed ({err})",
            )
        prefix = prefix.extend(name, ty)


def infer_type(spec: PtsSpec, ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """Return a type A with ctx |- e : A, or raise TypeCheckError.

    Every rule checks a binder's annotation (a product's domain, a
    lambda's annotation, a pair's Sig type) before it uses it, so an
    ill-typed annotation is reported before anything under the binder
    and is never reduced.  One pass: the walk (``_infer``) hands each
    type up with its sort where a rule settled it, so no lambda types
    the product it synthesized.  A labeled term gets its labeled type.
    """
    return _infer(spec, ctx, e, fuel)[0]


def _infer(
    spec: PtsSpec, ctx: Context, e: Node, fuel: int, conv_depth: int = DEFAULT_CONV_DEPTH, warnings: list[str] | None = None
) -> tuple[Node, str | None]:
    """``(A, s)`` with ctx |- e : A and, unless s is None, ctx |- A : s.

    s is known for a sort, product or Sig type (the axiom of the sort that
    types it), for a lambda (the sort of its product) and for a
    plain application whose function's type has a known sort that fixes
    the codomain sort (see ``_cod_sort``); variables, labeled
    applications, pairs and projections give None.  A sort or product
    is typed by a sort of its own AST.  Premises go in rule order: a
    product's domain sort, then its codomain; a lambda's annotation
    sort, then its body, then, if the body gave no sort, the sort of the
    body's type in the same extended context; a pair's annotation, then
    its components.  ``conv_depth`` and ``warnings`` serve labeled
    terms, as ``labeled.labeled_infer`` describes.
    """
    match e:
        case SortE(s) | LSort(s):
            if s not in spec.sorts:
                _fail(ErrorKind.SORT_UNTYPEABLE, f"unknown sort {s}")
            s2 = spec.axiom_for(s)
            if s2 is None:
                _fail(ErrorKind.NO_AXIOM, f"sort {s} has no type")
            return type(e)(s2), spec.axiom_for(s2)
        case Var(name) | LVar(name):
            ty = ctx.lookup(name)
            if ty is None:
                _fail(ErrorKind.UNBOUND_VARIABLE, f"unbound variable {name}")
            return ty, None
        case BVar() | LBVar():
            raise ValueError("dangling bound variable reached the type checker")
        case Pi(h, dom, cod) | LPi(h, dom, cod):
            s1 = _as_sort(spec, _infer(spec, ctx, dom, fuel, conv_depth, warnings)[0], fuel, dom)
            x = fresh_name(h, ctx, dom, cod)
            cod_x = open_binder(cod, x)
            s2 = _as_sort(spec, _infer(spec, ctx.extend(x, dom), cod_x, fuel, conv_depth, warnings)[0], fuel, cod_x)
            s3 = _pi_sort(spec, s1, s2, e)
            return (SortE if type(e) is Pi else LSort)(s3), spec.axiom_for(s3)
        case Lam(h, annot, body):
            s1 = _as_sort(spec, _infer(spec, ctx, annot, fuel)[0], fuel, annot)
            x = fresh_name(h, ctx, annot, body)
            ctx = ctx.extend(x, annot)
            body_ty, s2 = _infer(spec, ctx, open_binder(body, x), fuel)
            if s2 is None:
                s2 = _as_sort(spec, _infer(spec, ctx, body_ty, fuel)[0], fuel, body_ty)
            # TLam demands the synthesized product itself be well-sorted.
            pi = Pi(h, annot, close_binder(body_ty, x))
            return pi, _pi_sort(spec, s1, s2, pi)
        case App(fun, arg):
            fun_ty, s3 = _infer(spec, ctx, fun, fuel)
            head = _fun_head(fun, fun_ty, fuel)
            arg_ty = _infer(spec, ctx, arg, fuel)[0]
            _convertible(arg_ty, head.dom, fuel, "argument of", fun)
            # head reduces from fun_ty, so it has fun_ty's sort s3
            return instantiate(head.cod, arg), _cod_sort(spec, s3)
        case LLam(h, dom, cod, body):
            label = label_of(e)
            s3 = _infer(spec, ctx, label, fuel, conv_depth, warnings)[0].name
            # That checked the codomain whole, so a body lambda labeled with the
            # opened codomain is entered here without checking its label again:
            # once its own body checks, its type is that codomain.
            while True:
                x = fresh_name(h, ctx, dom, cod, body)
                ctx = ctx.extend(x, dom)
                body, cod = open_binder(body, x), open_binder(cod, x)
                if not (isinstance(body, LLam) and label_of(body) == cod):
                    break
                h, dom, cod, body = body.hint, body.dom, body.cod, body.body
            body_ty = _infer(spec, ctx, body, fuel, conv_depth, warnings)[0]
            if not directed_convertible(body_ty, cod, conv_depth):
                message = f"body type {print_expr(body_ty)} does not reduce to or from the label codomain"
                _fail(ErrorKind.DIRECTED_CONVERSION_UNDETERMINED, message)
            return label, s3
        case LApp(h, dom, cod, fun, arg):
            fun_ty = _infer(spec, ctx, fun, fuel, conv_depth, warnings)[0]
            label = label_of(e)
            if not directed_convertible(fun_ty, label, conv_depth):
                message = f"function type {print_expr(fun_ty)} does not reduce to or from the label {print_expr(label)}"
                _fail(ErrorKind.DIRECTED_CONVERSION_UNDETERMINED, message)
            if warnings is not None:
                try:
                    if normalize(fun_ty, fuel) != normalize(label, fuel):
                        warnings.append(
                            f"application label {print_expr(label)} differs from the function type "
                            f"{print_expr(fun_ty)} after normalization"
                        )
                except FuelExhausted:
                    warnings.append("label comparison ran out of fuel")
            arg_ty = _infer(spec, ctx, arg, fuel, conv_depth, warnings)[0]
            if not directed_convertible(arg_ty, dom, conv_depth):
                message = f"argument type {print_expr(arg_ty)} does not reduce to or from {print_expr(dom)}"
                _fail(ErrorKind.DIRECTED_CONVERSION_UNDETERMINED, message)
            return instantiate(cod, arg), None
        case Sigma(h, first, second):
            _require_sigma(spec, e)
            first_sort = _as_sort(spec, _infer(spec, ctx, first, fuel)[0], fuel, first)
            if first_sort != STAR:
                _fail(
                    ErrorKind.MISMATCH,
                    f"Sig first component {print_expr(first)} must be a type, has sort {first_sort}",
                )
            x = fresh_name(h, ctx, first, second)
            second_x = open_binder(second, x)
            s = _as_sort(spec, _infer(spec, ctx.extend(x, first), second_x, fuel)[0], fuel, second_x)
            return SortE(s), spec.axiom_for(s)
        case Pair(first, second, annot):
            _require_sigma(spec, e)
            _infer(spec, ctx, annot, fuel)
            try:
                head = whnf(annot, fuel)
            except FuelExhausted:
                _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the pair annotation {print_expr(annot)}")
            if not isinstance(head, Sigma):
                _fail(ErrorKind.MISMATCH, f"pair annotation {print_expr(annot)} is not a Sig type")
            first_ty = _infer(spec, ctx, first, fuel)[0]
            _convertible(first_ty, head.first, fuel, "first pair component")
            second_ty = _infer(spec, ctx, second, fuel)[0]
            _convertible(second_ty, instantiate(head.second, first), fuel, "second pair component")
            return annot, None
        case Proj1(p):
            _require_sigma(spec, e)
            return _sigma_head(spec, ctx, p, fuel).first, None
        case Proj2(p):
            _require_sigma(spec, e)
            return instantiate(_sigma_head(spec, ctx, p, fuel).second, Proj1(p)), None
        case _:
            raise TypeError(f"not an expression: {e!r}")


def _require_sigma(spec: PtsSpec, e: Expr) -> None:
    if not spec.sigma_enabled:
        _fail(ErrorKind.SIGMA_DISABLED, f"sigma extension is disabled: {print_expr(e)}")


def _sigma_head(spec: PtsSpec, ctx: Context, p: Expr, fuel: int) -> Sigma:
    ty = _infer(spec, ctx, p, fuel)[0]
    try:
        head = whnf(ty, fuel)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the type of {print_expr(p)}")
    if not isinstance(head, Sigma):
        _fail(ErrorKind.MISMATCH, f"{print_expr(p)} has type {print_expr(ty)}, not a Sig type")
    return head


def check_type(spec: PtsSpec, ctx: Context, e: Expr, ty: Expr, fuel: int = DEFAULT_FUEL) -> None:
    """Check ctx |- e : ty; ty itself must be well-sorted.

    A sort with no successor axiom (box in the built-ins) is accepted as
    the classifier of kinds even though it has no type itself.
    """
    _check_inferred(spec, ctx, e, infer_type(spec, ctx, e, fuel), ty, fuel)


def _check_inferred(spec: PtsSpec, ctx: Context, e: Expr, inferred: Expr, ty: Expr, fuel: int) -> None:
    """``check_type`` once ``e``'s type has been inferred as ``inferred``."""
    top_sort = isinstance(ty, SortE) and ty.name in spec.sorts and spec.axiom_for(ty.name) is None
    if not top_sort:
        _as_sort(spec, infer_type(spec, ctx, ty, fuel), fuel, ty)
    _convertible(inferred, ty, fuel, "checking", e)


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class Kind:
    pass


@dataclass(frozen=True)
class GammaConstructor:
    is_type: bool


@dataclass(frozen=True)
class GammaTerm:
    pass


Classification = Kind | GammaConstructor | GammaTerm

_CC = BUILTIN_SPECS["cc"]


def classify(ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL, spec: PtsSpec | None = None) -> Classification:
    """Sort a typeable CC expression into kind / constructor / term."""
    spec = spec or _CC
    return _classify(spec, ctx, e, *_infer(spec, ctx, e, fuel), fuel)


def _classify(spec: PtsSpec, ctx: Context, e: Expr, ty: Expr, s: str | None, fuel: int) -> Classification:
    """``classify`` from the pair ``(ty, s)`` that ``_infer`` gives for ``e``."""
    try:
        nty = normalize(ty, fuel)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"normalizing the type of {print_expr(e)}")
    if nty == SortE(BOX):
        return Kind()
    if s is None:
        s = _as_sort(spec, infer_type(spec, ctx, ty, fuel), fuel, ty)
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
