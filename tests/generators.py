"""Seeded random term generators for the property suites.

Two families: raw terms for the untyped reduction laws, and well-typed
CC terms synthesized forward under a fixed pool context.  Both keep
terms small and redex-dense so bounded searches stay cheap.
"""

from __future__ import annotations

import random

from ptskit.syntax import (
    App,
    BVar,
    CC,
    Context,
    Expr,
    Lam,
    Pi,
    SortE,
    STAR,
    Var,
    close_binder,
    free_vars,
    instantiate,
    open_binder,
    parse_context,
    parse_expr,
    size,
)
from ptskit.reduction import whnf
from ptskit.typecheck import TypeCheckError, infer_type

_POOL = ("a", "b", "c", "f", "g")
_BINDERS = ("u", "v", "w")


def untyped_term(rng: random.Random, budget: int = 20) -> Expr:
    """A raw term over a small variable pool, biased toward beta redexes."""
    term = _untyped(rng, budget, list(_POOL))
    return term


def _untyped(rng: random.Random, budget: int, scope: list[str]) -> Expr:
    if budget <= 1:
        if rng.random() < 0.15:
            return SortE(STAR)
        return Var(rng.choice(scope))
    roll = rng.random()
    if roll < 0.30:
        # a lambda whose binder occurs a controlled number of times
        x = rng.choice(_BINDERS) + str(rng.randrange(10))
        annot = _untyped(rng, min(3, budget // 3), scope)
        body = _untyped(rng, budget - size(annot) - 1, scope + [x, x])
        return Lam(x, annot, close_binder(body, x))
    if roll < 0.40:
        x = rng.choice(_BINDERS) + str(rng.randrange(10))
        dom = _untyped(rng, min(3, budget // 3), scope)
        cod = _untyped(rng, budget - size(dom) - 1, scope + [x])
        return Pi(x, dom, close_binder(cod, x))
    if roll < 0.85:
        # application; often with a lambda head so key redexes show up
        left = budget // 2
        if rng.random() < 0.55:
            x = rng.choice(_BINDERS) + str(rng.randrange(10))
            annot = _untyped(rng, 2, scope)
            body = _untyped(rng, max(1, left - 3), scope + [x, x])
            fun: Expr = Lam(x, annot, close_binder(body, x))
        else:
            fun = _untyped(rng, left, scope)
        arg = _untyped(rng, max(1, budget - size(fun) - 1), scope)
        return App(fun, arg)
    return Var(rng.choice(scope))


# ---------------------------------------------------------------------------
# Well-typed CC terms


def typed_pool_context() -> Context:
    return parse_context(
        "\n".join(
            [
                "A : *",
                "B : *",
                "P : A -> *",
                "a : A",
                "b : B",
                "f : A -> B",
                "g : A -> A",
                "h : (x:A) -> P x",
                "p : P a",
            ]
        )
    )


_SIMPLE_TYPES = [
    "A",
    "B",
    "P a",
    "A -> A",
    "A -> B",
    "B -> A -> A",
    "(x:A) -> P x",
    r"(\X:*. X) A",
    "(C:*) -> C -> C",
]


def _simple_type(rng: random.Random) -> Expr:
    return parse_expr(rng.choice(_SIMPLE_TYPES))


def typed_term(rng: random.Random, ctx: Context, budget: int = 18, max_size: int = 25) -> Expr | None:
    """One well-typed CC term of bounded size, or None when a draw fails."""
    try:
        term, _ = _typed(rng, ctx, budget, depth=0)
    except _Dead:
        return None
    if size(term) > max_size:
        return None
    try:
        infer_type(CC, ctx, term)
    except TypeCheckError:
        return None
    return term


class _Dead(Exception):
    pass


def _vars_of(rng: random.Random, ctx: Context, want: Expr) -> Expr:
    matches = [Var(n) for n, ty in ctx if ty == want]
    if not matches:
        raise _Dead
    return rng.choice(matches)


def _of_type(rng: random.Random, ctx: Context, ty: Expr, budget: int, depth: int) -> Expr:
    if depth > 8:
        raise _Dead
    head = whnf(ty, 100)
    if isinstance(head, Pi):
        x = f"q{depth}{rng.randrange(10)}"
        body = _of_type(rng, ctx.extend(x, head.dom), open_binder(head.cod, x), budget - 2, depth + 1)
        return Lam(x, head.dom, close_binder(body, x))
    if head == SortE(STAR):
        return _simple_type(rng)
    if budget > 6 and rng.random() < 0.45:
        # wrap in a discardable redex to salt the reduct graph
        inner = _of_type(rng, ctx, ty, budget - 4, depth + 1)
        x = f"d{depth}{rng.randrange(10)}"
        return App(Lam(x, Var("A"), close_binder(inner, x)), Var("a"))
    return _vars_of(rng, ctx, head)


def _typed(rng: random.Random, ctx: Context, budget: int, depth: int) -> tuple[Expr, Expr]:
    if depth > 6 or budget <= 2:
        name, ty = rng.choice(ctx.bindings)
        return Var(name), ty
    roll = rng.random()
    if roll < 0.25:
        # lambda over a simple domain
        dom = _simple_type(rng)
        x = f"x{depth}{rng.randrange(10)}"
        body, body_ty = _typed(rng, ctx.extend(x, dom), budget - size(dom) - 1, depth + 1)
        return Lam(x, dom, close_binder(body, x)), Pi(x, dom, close_binder(body_ty, x))
    if roll < 0.55:
        # guaranteed beta redex at a simple type
        dom = _simple_type(rng)
        arg = _of_type(rng, ctx, dom, budget // 3, depth + 1)
        x = f"r{depth}{rng.randrange(10)}"
        body, body_ty = _typed(rng, ctx.extend(x, dom), budget - size(dom) - size(arg) - 2, depth + 1)
        if x in free_vars(body_ty):  # keep the application type independent of the binder
            raise _Dead
        return App(Lam(x, dom, close_binder(body, x)), arg), body_ty
    if roll < 0.80:
        # apply a context function
        funs = [(n, ty) for n, ty in ctx if isinstance(ty, Pi)]
        if not funs:
            raise _Dead
        name, ty = rng.choice(funs)
        arg = _of_type(rng, ctx, ty.dom, budget // 2, depth + 1)
        return App(Var(name), arg), instantiate(ty.cod, arg)
    if roll < 0.92:
        return _simple_type(rng), SortE(STAR)
    name, ty = rng.choice(ctx.bindings)
    return Var(name), ty


def typed_terms(seed: int, count: int, budget: int = 18, max_size: int = 25) -> list[Expr]:
    """A reproducible batch of distinct well-typed CC terms."""
    rng = random.Random(seed)
    ctx = typed_pool_context()
    out: list[Expr] = []
    seen: set[Expr] = set()
    attempts = 0
    while len(out) < count and attempts < count * 60:
        attempts += 1
        t = typed_term(rng, ctx, budget, max_size)
        if t is not None and t not in seen:
            seen.add(t)
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# Substitution-lemma instances


def subst_instances(seed: int, count: int) -> list[tuple[Context, Expr, str, Expr]]:
    """(ctx, a, x, b) tuples satisfying the substitution lemmas' hypotheses."""
    rng = random.Random(seed)
    out = []
    kind_ctx = parse_context("A : *\nB : *\nX : *")
    kind_bs = ["A", "B", "A -> B", r"(\Y:*. Y) A", "(C:*) -> C"]
    kind_as = [
        "X",
        "X -> X",
        "X -> A",
        r"\x:X. x",
        r"\x:A. x",
        "(C:*) -> C -> X",
        r"\Y:*. Y -> X",
        "(x:X) -> A",
        r"(\Y:*. Y) X",
    ]
    op_ctx = parse_context("A : *\nF : * -> *")
    op_bs = [r"\Y:*. Y", r"\Y:*. A", r"\Y:*. Y -> Y"]
    op_as = ["F A", "F (F A)", r"\x:F A. x", "F A -> A"]
    term_ctx = parse_context("A : *\nP : A -> *\nc : A\ny : A\nh : (x:A) -> P x")
    term_bs = ["c", r"(\x:A. x) c"]
    term_as = ["y", "h y", r"\q:P y. q", "P y", "(x:P y) -> A", r"(\x:A. h x) y"]
    for _ in range(count):
        family = rng.randrange(3)
        if family == 0:
            out.append((kind_ctx, parse_expr(rng.choice(kind_as)), "X", parse_expr(rng.choice(kind_bs))))
        elif family == 1:
            out.append((op_ctx, parse_expr(rng.choice(op_as)), "F", parse_expr(rng.choice(op_bs))))
        else:
            out.append((term_ctx, parse_expr(rng.choice(term_as)), "y", parse_expr(rng.choice(term_bs))))
    return out


# ---------------------------------------------------------------------------
# The benchmark's scaling families, built directly: past ~150 levels the
# recursive-descent parser runs out of stack


def lambda_nest(d: int) -> Expr:
    """``\\A:*. \\x0:A. ... \\x{d-1}:A. x0``."""
    body = BVar(d - 1)
    for i in reversed(range(d)):
        body = Lam(f"x{i}", BVar(i), body)
    return Lam("A", SortE(STAR), body)


def church_numeral(n: int) -> Expr:
    """``\\A:*. \\f:A -> A. \\x:A. f (... (f x))`` with n applications of f."""
    body = BVar(0)
    for _ in range(n):
        body = App(BVar(1), body)
    return Lam("A", SortE(STAR), Lam("f", Pi("_", BVar(0), BVar(1)), Lam("x", BVar(1), body)))
