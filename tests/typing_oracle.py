"""The single-pass typing walks as they were before sorts travelled with types.

``infer_type`` re-checks every product a lambda synthesizes, ``_elaborate``
re-elaborates each lambda's body type and each application's function type,
and ``labeled_infer`` checks each lambda's label whole, also where an
enclosing lambda's label already covered it.  They are kept as
differential oracles: the fast paths must give the same results and the
same errors, in the same order.  Their premise order is the rule order of
the kernel: a binder's annotation (a product's domain, a lambda's
annotation, a pair's Sig type) is checked before anything that uses it.
"""

from __future__ import annotations

import os

from ptskit.syntax import (
    BOX,
    STAR,
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
    Pair,
    Pi,
    Proj1,
    Proj2,
    PtsSpec,
    Sigma,
    SortE,
    Var,
    close_binder,
    fresh_name,
    instantiate,
    open_binder,
    print_expr,
    BUILTIN_SPECS,
    Node,
    parse_context,
    parse_expr,
    parse_labeled,
    print_labeled,
)
from ptskit.reduction import DEFAULT_DEPTH, DEFAULT_FUEL, UNDETERMINED, FuelExhausted, beta_eq, normalize, trace, whnf
from ptskit.typecheck import (
    _CC,
    Classification,
    ErrorKind,
    GammaConstructor,
    GammaTerm,
    Kind,
    TypeCheckError,
    _fail,
)
from ptskit.labeled import directed_convertible
from ptskit.corpus import load_corpus_dir

from generators import typed_pool_context, typed_terms


def l_normalize(la: LabeledExpr, fuel: int = DEFAULT_FUEL) -> LabeledExpr:
    """Tight normal form by leftmost-outermost steps, at most ``fuel`` of them."""
    t, truncated = trace(la, fuel)
    last = t.terms()[-1]
    if truncated:
        raise FuelExhausted(last)
    return last


def _as_sort(spec: PtsSpec, ty: Node, fuel: int, subject: Node, normalizer=normalize) -> str:
    """Normalize ``ty`` and require it to be a sort of ``spec``.

    The labeled system passes its own ``normalizer`` (tight reduction).
    """
    try:
        n = normalizer(ty, fuel)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"normalizing the type of {print_expr(subject)}")
    if isinstance(n, (SortE, LSort)) and n.name in spec.sorts:
        return n.name
    _fail(
        ErrorKind.SORT_UNTYPEABLE,
        f"{print_expr(subject)} is classified by {print_expr(n)}, not a sort",
    )


def _pi_sort(spec: PtsSpec, s1: str, s2: str, pi: Node) -> str:
    s3 = spec.rule_for(s1, s2)
    if s3 is None:
        _fail(ErrorKind.NO_RULE, f"no rule ({s1},{s2},_) to form {print_expr(pi)}")
    return s3


def _convertible(a: Expr, b: Expr, fuel: int, where: str, subject: Expr | None = None) -> None:
    r = beta_eq(a, b, fuel)
    if r is True:
        return
    if subject is not None:
        where = f"{where} {print_expr(subject)}"
    if r is UNDETERMINED:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"conversion undecided in {where}")
    _fail(ErrorKind.MISMATCH, f"{where}: {print_expr(a)} is not convertible with {print_expr(b)}")


def _require_sigma(spec: PtsSpec, e: Expr) -> None:
    if not spec.sigma_enabled:
        _fail(ErrorKind.SIGMA_DISABLED, f"sigma extension is disabled: {print_expr(e)}")


def infer_type(spec: PtsSpec, ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """Return a type A with ctx |- e : A, or raise TypeCheckError."""
    match e:
        case SortE(s):
            if s not in spec.sorts:
                _fail(ErrorKind.SORT_UNTYPEABLE, f"unknown sort {s}")
            s2 = spec.axiom_for(s)
            if s2 is None:
                _fail(ErrorKind.NO_AXIOM, f"sort {s} has no type")
            return SortE(s2)
        case Var(name):
            ty = ctx.lookup(name)
            if ty is None:
                _fail(ErrorKind.UNBOUND_VARIABLE, f"unbound variable {name}")
            return ty
        case BVar():
            raise ValueError("dangling bound variable reached the type checker")
        case Pi(h, dom, cod):
            s1 = _as_sort(spec, infer_type(spec, ctx, dom, fuel), fuel, dom)
            x = fresh_name(h, ctx, dom, cod)
            cod_x = open_binder(cod, x)
            s2 = _as_sort(spec, infer_type(spec, ctx.extend(x, dom), cod_x, fuel), fuel, cod_x)
            return SortE(_pi_sort(spec, s1, s2, e))
        case Lam(h, annot, body):
            _as_sort(spec, infer_type(spec, ctx, annot, fuel), fuel, annot)
            x = fresh_name(h, ctx, annot, body)
            body_ty = infer_type(spec, ctx.extend(x, annot), open_binder(body, x), fuel)
            pi = Pi(h, annot, close_binder(body_ty, x))
            # TLam demands the synthesized product itself be well-sorted.
            infer_type(spec, ctx, pi, fuel)
            return pi
        case App(fun, arg):
            fun_ty = infer_type(spec, ctx, fun, fuel)
            try:
                head = whnf(fun_ty, fuel)
            except FuelExhausted:
                _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the type of {print_expr(fun)}")
            if not isinstance(head, Pi):
                _fail(
                    ErrorKind.NOT_A_FUNCTION,
                    f"{print_expr(fun)} has type {print_expr(fun_ty)}, which is not a function type",
                )
            arg_ty = infer_type(spec, ctx, arg, fuel)
            _convertible(arg_ty, head.dom, fuel, "argument of", fun)
            return instantiate(head.cod, arg)
        case Sigma(h, first, second):
            _require_sigma(spec, e)
            first_sort = _as_sort(spec, infer_type(spec, ctx, first, fuel), fuel, first)
            if first_sort != STAR:
                _fail(
                    ErrorKind.MISMATCH,
                    f"Sig first component {print_expr(first)} must be a type, has sort {first_sort}",
                )
            x = fresh_name(h, ctx, first, second)
            second_x = open_binder(second, x)
            s = _as_sort(spec, infer_type(spec, ctx.extend(x, first), second_x, fuel), fuel, second_x)
            return SortE(s)
        case Pair(first, second, annot):
            _require_sigma(spec, e)
            infer_type(spec, ctx, annot, fuel)
            try:
                head = whnf(annot, fuel)
            except FuelExhausted:
                _fail(ErrorKind.FUEL_EXHAUSTED, f"exposing the pair annotation {print_expr(annot)}")
            if not isinstance(head, Sigma):
                _fail(ErrorKind.MISMATCH, f"pair annotation {print_expr(annot)} is not a Sig type")
            first_ty = infer_type(spec, ctx, first, fuel)
            _convertible(first_ty, head.first, fuel, "first pair component")
            second_ty = infer_type(spec, ctx, second, fuel)
            _convertible(second_ty, instantiate(head.second, first), fuel, "second pair component")
            return annot
        case Proj1(p):
            _require_sigma(spec, e)
            head = _sigma_head(spec, ctx, p, fuel)
            return head.first
        case Proj2(p):
            _require_sigma(spec, e)
            head = _sigma_head(spec, ctx, p, fuel)
            return instantiate(head.second, Proj1(p))
        case _:
            raise TypeError(f"not an expression: {e!r}")



def _sigma_head(spec: PtsSpec, ctx: Context, p: Expr, fuel: int) -> Sigma:
    ty = infer_type(spec, ctx, p, fuel)
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
    inferred = infer_type(spec, ctx, e, fuel)
    top_sort = isinstance(ty, SortE) and ty.name in spec.sorts and spec.axiom_for(ty.name) is None
    if not top_sort:
        _as_sort(spec, infer_type(spec, ctx, ty, fuel), fuel, ty)
    _convertible(inferred, ty, fuel, "checking", e)


def classify(ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL, spec: PtsSpec | None = None) -> Classification:
    """Sort a typeable CC expression into kind / constructor / term."""
    spec = spec or _CC
    ty = infer_type(spec, ctx, e, fuel)
    try:
        nty = normalize(ty, fuel)
    except FuelExhausted:
        _fail(ErrorKind.FUEL_EXHAUSTED, f"normalizing the type of {print_expr(e)}")
    if nty == SortE(BOX):
        return Kind()
    ty_of_ty = infer_type(spec, ctx, ty, fuel)
    s = _as_sort(spec, ty_of_ty, fuel, ty)
    if s == BOX:
        return GammaConstructor(is_type=nty == SortE(STAR))
    if s == STAR:
        return GammaTerm()
    _fail(ErrorKind.SORT_UNTYPEABLE, f"type of {print_expr(e)} is classified by {s}")



def labeled_infer(
    spec: PtsSpec,
    lctx: Context,
    la: LabeledExpr,
    fuel: int = DEFAULT_FUEL,
    conv_depth: int = DEFAULT_DEPTH,
) -> LabeledExpr:
    """Infer a labeled type; conversions are decided by directed search."""
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
            s1 = _as_sort(spec, labeled_infer(spec, lctx, dom, fuel, conv_depth), fuel, dom, l_normalize)
            x = fresh_name(h, lctx, dom, cod)
            cod_x = open_binder(cod, x)
            cod_ty = labeled_infer(spec, lctx.extend(x, dom), cod_x, fuel, conv_depth)
            s2 = _as_sort(spec, cod_ty, fuel, cod_x, l_normalize)
            return LSort(_pi_sort(spec, s1, s2, la))
        case LLam(h, dom, cod, body):
            labeled_infer(spec, lctx, LPi(h, dom, cod), fuel, conv_depth)
            x = fresh_name(h, lctx, dom, cod, body)
            body_ty = labeled_infer(spec, lctx.extend(x, dom), open_binder(body, x), fuel, conv_depth)
            if not directed_convertible(body_ty, open_binder(cod, x), conv_depth):
                _fail(
                    ErrorKind.DIRECTED_CONVERSION_UNDETERMINED,
                    f"body type {print_labeled(body_ty)} does not reduce to or from the label codomain",
                )
            return LPi(h, dom, cod)
        case LApp(h, dom, cod, fun, arg):
            fun_ty = labeled_infer(spec, lctx, fun, fuel, conv_depth)
            label = LPi(h, dom, cod)
            if not directed_convertible(fun_ty, label, conv_depth):
                _fail(
                    ErrorKind.DIRECTED_CONVERSION_UNDETERMINED,
                    f"function type {print_labeled(fun_ty)} does not reduce to or from the label {print_labeled(label)}",
                )
            arg_ty = labeled_infer(spec, lctx, arg, fuel, conv_depth)
            if not directed_convertible(arg_ty, dom, conv_depth):
                _fail(
                    ErrorKind.DIRECTED_CONVERSION_UNDETERMINED,
                    f"argument type {print_labeled(arg_ty)} does not reduce to or from {print_labeled(dom)}",
                )
            return instantiate(cod, arg)
        case _:
            raise TypeError(f"not a labeled expression: {la!r}")



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
            # the parts' types are the ones infer_type would find, so the
            # product's sort comes from them, checked in the same order
            ldom, dom_ty = _elaborate(spec, ctx, dom, fuel)
            s1 = _as_sort(spec, dom_ty, fuel, dom)
            x = fresh_name(h, ctx, dom, cod)
            cod_x = open_binder(cod, x)
            lcod, cod_ty = _elaborate(spec, ctx.extend(x, dom), cod_x, fuel)
            s2 = _as_sort(spec, cod_ty, fuel, cod_x)
            return LPi(h, ldom, close_binder(lcod, x)), SortE(_pi_sort(spec, s1, s2, a))
        case Lam(h, annot, body):
            lannot, annot_ty = _elaborate(spec, ctx, annot, fuel)
            _as_sort(spec, annot_ty, fuel, annot)
            x = fresh_name(h, ctx, annot, body)
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
                _fail(
                    ErrorKind.NOT_A_FUNCTION,
                    f"{print_expr(fun)} has type {print_expr(fun_ty)}, which is not a function type",
                )
            larg, arg_ty = _elaborate(spec, ctx, arg, fuel)
            _convertible(arg_ty, head.dom, fuel, "argument of", fun)
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
# The inputs both walks are compared on

# Lambda nests that fail, or stop knowing a sort, at different depths.
NESTS = [
    ("", r"\A:*. \x:A. \y:A. \z:A. x"),
    ("", r"\A:*. \B:*. \x:A. \y:B. \z:A. y"),
    ("", r"\A:*. \x:A. \y:x. \z:A. z"),
    ("", r"\A:*. \x:A. \y:A. \z:A. *"),
    ("", r"\A:*. \x:A. \y:A. \F:A -> *. F"),
    ("", r"\A:*. \x:A. \P:A -> *. \p:P x. p"),
    ("", r"\A:*. \x:A. \y:A. y y"),
    ("", r"\A:*. \x:A. \y:A. \z:#. A"),
    ("", r"\F:* -> *. \A:*. \x:F A. \y:(\B:*. B) A. y"),
    ("", r"\A:*. \f:A -> A. \y:A. f (f y)"),
    ("", r"\A:*. \f:A -> A. (\y:A. \z:A. f y) (f (\w:A. w))"),
    ("A : *", r"\x:A. \y:(\B:*. \C:*. B) A A. \z:A. y"),
    ("A : *\nP : A -> *", r"\a:A. \b:A. \p:P a. \q:P b. p"),
    ("A : *\nP : A -> *", r"\a:A. \p:P a. \b:A. p b"),
    ("A : *", r"\x:(\B:*. \C:*. B) A A. \y:A. \z:x. y"),
    ("A : *\nf : (\\B:*. B) ((\\C:*. C) (A -> A))\na : A", r"\x:A. \y:A. f a"),
    # an error in the annotation and one under it: the annotation's comes first
    ("", r"\x:((\y:*. y y) (\y:*. y y)). x x"),
    ("A : *\na : A", r"\z:a. (A A)"),
    ("A : *\na : A", r"(x:a) -> x x"),
]

# Labeled lambdas whose inner labels disagree with, or break, the outer ones.
LABELED = [
    r"\[A : * -> A -> A -> A] A : * . \[x : A -> A -> A] x : A . \[y : A -> A] y : A . x",
    r"\[A : * -> A -> A -> A] A : * . \[x : A -> A -> *] x : A . \[y : A -> *] y : A . x",
    r"\[A : * -> A -> A -> A] A : * . \[x : A -> A -> A] x : A . \[y : A -> A] y : A . *",
    r"\[A : * -> A -> A -> q] A : * . \[x : A -> A -> q] x : A . \[y : A -> q] y : A . x",
    r"\[A : * -> A -> (\[B : * -> *] B : * . B) @[C : * -> *] A] A : * . \[x : A -> A] x : A . x",
    r"\[A : * -> * -> A] A : * . \[x : * -> A] x : * . \[y : A -> A] y : A . y",
    r"\[x : # -> *] x : # . *",
]


def typing_cases():
    """``(system, ctx, term, fuel)`` for the plain walks: generated terms, the
    ill-typed ``(\\x:T -> T. x) t`` for each generated ``t : T``, every
    ``corpus/cc`` judgement and the nests above, under every built-in system."""
    pool = typed_pool_context()
    cases = []
    for seed in range(1, 6):
        for t in typed_terms(seed=seed, count=150):
            ty = infer_type(_CC, pool, t)
            cases.append(("cc", pool, t, DEFAULT_FUEL))
            cases.append(("cc", pool, App(Lam("x", Pi("_", ty, ty), BVar(0)), t), DEFAULT_FUEL))
    judgements = load_corpus_dir(os.path.join(os.path.dirname(__file__), "..", "corpus", "cc"))
    nests = [(parse_context(ctx), parse_expr(text)) for ctx, text in NESTS]
    for system in BUILTIN_SPECS:
        for ctx, term in [(j.ctx, j.term) for j in judgements] + nests:
            cases += [(system, ctx, term, fuel) for fuel in (DEFAULT_FUEL, 1)]
    return cases


def labeled_cases():
    """``(system, labeled term, fuel, depth)`` beyond the elaborated ones."""
    return [
        (system, parse_labeled(text), fuel, depth)
        for system in BUILTIN_SPECS
        for text in LABELED
        for fuel, depth in ((DEFAULT_FUEL, DEFAULT_DEPTH), (1, 1))
    ]


def outcome(f, *args):
    """What a call gives: its result and printed form, or its error kind and message."""
    try:
        r = f(*args)
    except TypeCheckError as err:
        return "error", err.kind, err.message
    return "ok", r, print_expr(r) if isinstance(r, Node) else repr(r)
