"""The named CC -> F-omega translation, kept as a differential oracle.

Before ``ptskit.translate`` walked its source on a binder stack, every
binder was opened to a fresh name (``fresh_binder``), its body translated
in a copied context (``extended``) and the result closed again, and a
product's variables were replaced by canonical inhabitants with
``subst``.  ``_trans_term``, ``_trans_type``, ``_translate_context``,
``_is_constructor``, ``extended`` and ``fresh_binder`` below are that walk,
verbatim but for ``extended`` making a ``NamedEnv``.  The public
functions take a library ``TransEnv`` and share its ``_y`` counter, so a
run of calls numbers its ``_y`` binders as the library does.
"""

from __future__ import annotations

from ptskit.syntax import (
    STAR,
    App,
    BVar,
    Context,
    Expr,
    Lam,
    Pi,
    SortE,
    Var,
    close_binder,
    fresh_name,
    occurs,
    open_binder,
    print_expr,
    subst,
    SIGMA_NODES,
)
from ptskit.translate import (
    W_PREFIX,
    ZERO,
    Z,
    TransEnv,
    _check_context,
    _check_input,
    canonical_inhabitant,
    erase_kind,
    is_cc_kind,
)

_ZERO_VAR = Var(ZERO)
_Z_TYPE = Pi("x", SortE(STAR), BVar(0))
_C_FN_TYPE = Pi("_", _ZERO_VAR, Pi("_", _ZERO_VAR, _ZERO_VAR))


class NamedEnv(TransEnv):
    """A ``TransEnv`` with the named walk's context copy and fresh names."""

    __slots__ = ()

    def extended(self, name: str, ty: Expr) -> NamedEnv:
        child = NamedEnv.__new__(NamedEnv)
        child.cc_context = self.cc_context.extend(name, ty)
        child._counter = self._counter
        return child

    def fresh_binder(self, hint: str, *exprs: Expr) -> str:
        return fresh_name(hint, self.cc_context, *exprs)


def named(env: TransEnv) -> NamedEnv:
    """``env`` as a ``NamedEnv`` with the same context and counter."""
    return NamedEnv(env.cc_context, env._counter)


def translate_term(env: TransEnv, a: Expr) -> Expr:
    _check_input(a)
    return _trans_term(named(env), a)


def translate_type(env: TransEnv, a: Expr) -> Expr:
    _check_input(a)
    return _trans_type(named(env), a)


def translate_context(ctx: Context) -> Context:
    _check_context(ctx)
    return _translate_context(ctx)


def _is_constructor(ctx: Context, e: Expr) -> bool:
    """Whether a well-typed non-kind ``e`` is a constructor rather than a term."""
    binds_kind: list[bool] = []  # per lambda passed, outermost first
    while True:
        match e:
            case Lam(_, annot, body):
                binds_kind.append(is_cc_kind(annot))
                e = body
            case App(fun, _):
                e = fun
            case Pi():
                return True
            case BVar(index):
                return binds_kind[-1 - index]
            case Var(name):
                return is_cc_kind(ctx.lookup(name))
            case _:
                return False


def _trans_type(env: TransEnv, a: Expr) -> Expr:
    match a:
        case SortE():
            return _ZERO_VAR
        case Var():
            return a
        case Pi(h, dom, cod):
            x = env.fresh_binder(h, dom, cod)
            inner = env.extended(x, dom)
            tb = _trans_type(inner, open_binder(cod, x))
            if is_cc_kind(dom):
                doubled = Pi("_", _trans_type(env, dom), tb)
                return Pi(h, erase_kind(dom), close_binder(doubled, x))
            return Pi(h, _trans_type(env, dom), close_binder(tb, x))
        case Lam(h, annot, body):
            x = env.fresh_binder(h, annot, body)
            inner = env.extended(x, annot)
            tb = _trans_type(inner, open_binder(body, x))
            if is_cc_kind(annot):
                return Lam(h, erase_kind(annot), close_binder(tb, x))
            # A term-level binder contributes nothing to the erased type.
            if occurs(x, tb):
                raise ValueError(f"term binder {x} survived type translation")
            return tb
        case App(fun, arg):
            if _is_constructor(env.cc_context, arg):
                return App(_trans_type(env, fun), _trans_type(env, arg))
            return _trans_type(env, fun)
        case _ if isinstance(a, SIGMA_NODES):
            raise ValueError("the translation covers core CC only, not the sigma extension")
        case _:
            raise ValueError(f"not a sort, kind or constructor: {print_expr(a)}")


def _translate_context(ctx: Context) -> Context:
    """``translate_context`` once ``ctx`` is known to bind and mention no reserved name."""
    env = NamedEnv(Context())
    out = Context().extend(ZERO, SortE(STAR)).extend(Z, _Z_TYPE)
    for name, ty in ctx:
        if is_cc_kind(ty):
            out = out.extend(name, erase_kind(ty))
            out = out.extend(W_PREFIX + name, _trans_type(env, ty))
        else:
            out = out.extend(name, _trans_type(env, ty))
        env = env.extended(name, ty)
    return out


def _trans_term(env: TransEnv, a: Expr) -> Expr:
    match a:
        case SortE(name):
            if name != STAR:
                raise ValueError(f"{name} is not a typeable subject, cannot translate it")
            return canonical_inhabitant(env, _ZERO_VAR)
        case Var(name):
            ty = env.cc_context.lookup(name)
            if ty is None:
                raise KeyError(f"variable {name} not bound in the translation context")
            if is_cc_kind(ty):
                return Var(W_PREFIX + name)
            return a
        case Pi(h, dom, cod):
            c_fn = canonical_inhabitant(env, _C_FN_TYPE)
            t_dom = _trans_term(env, dom)
            x = env.fresh_binder(h, dom, cod)
            inner = env.extended(x, dom)
            t_cod = _trans_term(inner, open_binder(cod, x))
            if is_cc_kind(dom):
                t_cod = subst(t_cod, x, canonical_inhabitant(env, erase_kind(dom)))
                t_cod = subst(t_cod, W_PREFIX + x, canonical_inhabitant(env, _trans_type(env, dom)))
            else:
                t_cod = subst(t_cod, x, canonical_inhabitant(env, _trans_type(env, dom)))
            return App(App(c_fn, t_dom), t_cod)
        case Lam(h, annot, body):
            y = env.fresh_y()
            t_annot = _trans_term(env, annot)
            x = env.fresh_binder(h, annot, body)
            inner = env.extended(x, annot)
            t_body = _trans_term(inner, open_binder(body, x))
            if is_cc_kind(annot):
                w = W_PREFIX + x
                wrapped = Lam(w, _trans_type(env, annot), close_binder(t_body, w))
                wrapped = Lam(h, erase_kind(annot), close_binder(wrapped, x))
            else:
                wrapped = Lam(h, _trans_type(env, annot), close_binder(t_body, x))
            return App(Lam(y, _ZERO_VAR, wrapped), t_annot)
        case App(fun, arg):
            t_fun = _trans_term(env, fun)
            if _is_constructor(env.cc_context, arg):
                return App(App(t_fun, _trans_type(env, arg)), _trans_term(env, arg))
            return App(t_fun, _trans_term(env, arg))
        case _ if isinstance(a, SIGMA_NODES):
            raise ValueError("the translation covers core CC only, not the sigma extension")
        case _:
            raise ValueError(f"cannot translate {print_expr(a)}")
