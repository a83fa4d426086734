"""Dependency-erasing translation from CC into F-omega.

Three mutually supporting maps do the work:

* a kind map that forgets dependency, sending both sorts to ``*`` and
  keeping only kind-level arrows;
* a type translation that replaces both sorts by the fixed type
  variable ``_0`` and doubles kind-level products with an extra
  non-dependent argument;
* a term translation that lowers constructors to the term level while
  keeping every redex of the source alive (extra ``_y`` redexes hold
  translations that would otherwise be erased).

Translated contexts start with ``_0 : *`` and ``_z : (x:*) -> x``; the
latter manufactures a canonical inhabitant for any type.  Every
kind-level binding ``x`` gains a term-level companion ``_w$x``.

Each map branches on kind, constructor or term, read from syntax (Geuvers &
Nederhof, JFP 1991): in well-typed core CC the kinds are ``*`` under products,
and a non-kind is a constructor exactly when the head it reaches through lambda
bodies and application functions is a product or a variable declared at a kind.
So the input must be well-typed core CC, which ``check_translation``,
``check_subst_lemmas`` and ``ptskit translate`` check first.

The maps walk their input unopened, de Bruijn in and de Bruijn out: each
source binder pushes one entry on a stack (``_Walk``) that says how many
target binders it became and what its variable translates to, so the
walk opens, closes and substitutes into no subterm and takes time linear
in the size of its input and output.
"""

from __future__ import annotations

from .syntax import (
    STAR,
    App,
    BVar,
    Context,
    Expr,
    Lam,
    Pi,
    RESERVED_PREFIX,
    Record,
    SortE,
    Var,
    _set,
    _shift,
    free_vars,
    occurs,
    print_expr,
    subst,
    SIGMA_NODES,
    FOMEGA,
    Scope,
    CC,
)
from .reduction import DEFAULT_DEPTH, DEFAULT_FUEL, beta_eq, key_redex_of, reachable, reduce_key_redex, step_all
from .typecheck import TypeCheckError, check_type, infer_type, wf_context

ZERO = "_0"
Z = "_z"
W_PREFIX = "_w$"
Y_PREFIX = "_y"

_ZERO_VAR = Var(ZERO)
_Z_TYPE = Pi("x", SortE(STAR), BVar(0))


class ReservedNameError(ValueError):
    """Input mentions a generated name; such inputs are rejected, not renamed."""


def _check_input(e: Expr) -> None:
    bad = sorted(n for n in free_vars(e) if n.startswith(RESERVED_PREFIX))
    if bad:
        raise ReservedNameError(f"input mentions reserved names: {', '.join(bad)}")


def _check_context(ctx: Context) -> None:
    for name, ty in ctx:
        if name.startswith(RESERVED_PREFIX):
            raise ReservedNameError(f"context binds reserved name {name!r}")
        _check_input(ty)


class TransEnv(Record):
    """The context of a translation and its ``_y`` counter.

    The translations of one judgement (its term, its type and, in the
    simulation check, its reducts) run on one environment, so they number
    their ``_y`` binders from one counter and a run is deterministic end
    to end.  An environment is mutable and unhashable.
    """

    __slots__ = __match_args__ = ("cc_context", "_counter")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, cc_context: Context, _counter: list[int] | None = None):
        _check_context(cc_context)
        self.cc_context = cc_context
        self._counter = [0] if _counter is None else _counter

    def fresh_y(self) -> str:
        self._counter[0] += 1
        return f"{Y_PREFIX}{self._counter[0]}"


class _Walk(Scope):
    """One translation call's scope: each source binder entered pushes
    ``(binder, binds a kind, term, type)``.  ``term`` and ``type`` say what
    the binder's variable becomes in each translation: a target binder, by
    its level (an int, 0 the outermost); a canonical inhabitant made under
    some number of target binders (a pair); or, for a term binder that the
    type translation drops, a one-item list, set if the variable is reached
    all the same."""

    __slots__ = ("env",)

    def __init__(self, ctx: Context, env: TransEnv | None = None):
        Scope.__init__(self, ctx)
        self.env = env


def _bound(ref, depth: int) -> Expr:
    """What a variable becomes under ``depth`` target binders when its entry holds ``ref``, not a level."""
    if type(ref) is tuple:
        inhabitant, made_at = ref
        return _shift(inhabitant, depth - made_at, 0)
    ref[0] = True
    return _ZERO_VAR


def is_cc_kind(e: Expr) -> bool:
    """Kinds need no context: they are ``*`` under a spine of products."""
    while isinstance(e, Pi):
        e = e.cod
    return isinstance(e, SortE) and e.name == STAR


def _is_constructor(w: _Walk, e: Expr) -> bool:
    """Whether a well-typed non-kind ``e``, open over ``w``'s binders, is a
    constructor rather than a term."""
    binds_kind: list[bool] = []  # per lambda passed, outermost first
    while True:
        match e:
            case App(fun, _):
                e = fun
            case BVar(index):
                if index < len(binds_kind):
                    return binds_kind[-1 - index]
                return w.binders[len(binds_kind) - 1 - index][1]
            case Var(name):
                return is_cc_kind(w.types.get(name))
            case Lam(_, annot, body):
                binds_kind.append(is_cc_kind(annot))
                e = body
            case Pi():
                return True
            case _:
                return False


def erase_kind(a: Expr) -> Expr:
    """Map a CC sort or kind to the corresponding F-omega kind.

    Both sorts land on ``*``; a product keeps its domain only when the
    domain is itself a kind.  The result never mentions variables.
    """
    match a:
        case SortE():
            return SortE(STAR)
        case Pi(_, dom, cod) if is_cc_kind(a):
            if is_cc_kind(dom):
                return Pi("_", erase_kind(dom), erase_kind(cod))
            return erase_kind(cod)
        case _:
            raise ValueError(f"not a sort or kind: {print_expr(a)}")


def canonical_inhabitant(env: TransEnv, b: Expr) -> Expr:
    """A closed-form inhabitant of any valid F-omega type or kind.

    Types are inhabited through ``_z``; kinds structurally, ending in
    ``_0``.  ``is_cc_kind`` tells the two apart: a valid kind has only
    kinds as domains, and no valid type ends its codomain spine in ``*``.
    The inhabitant does not depend on ``env``.
    """
    if is_cc_kind(b):
        if b == SortE(STAR):
            return _ZERO_VAR
        return Lam(b.hint, b.dom, canonical_inhabitant(env, b.cod))
    if isinstance(b, (SortE, Lam)):
        raise ValueError(f"no canonical inhabitant for {print_expr(b)}")
    return App(Var(Z), b)


_Z_ZERO = canonical_inhabitant(None, _ZERO_VAR)  # the translation of *
_C_FN = canonical_inhabitant(None, Pi("_", _ZERO_VAR, Pi("_", _ZERO_VAR, _ZERO_VAR)))  # applied to a product's parts


def translate_type(env: TransEnv, a: Expr) -> Expr:
    """The type translation of a sort, or of a well-typed core CC kind or constructor."""
    _check_input(a)
    return _trans_type(_Walk(env.cc_context, env), a, 0)


def _trans_type(w: _Walk, a: Expr, depth: int) -> Expr:
    """The type translation of ``a``, open over ``w``'s binders, under ``depth`` target binders."""
    match a:
        case Var():
            return a
        case BVar(i) if i < len(w.binders):
            ref = w.binders[-1 - i][3]
            return BVar(depth - 1 - ref) if type(ref) is int else _bound(ref, depth)
        case App(fun, arg):
            if _is_constructor(w, arg):
                return App(_trans_type(w, fun, depth), _trans_type(w, arg, depth))
            return _trans_type(w, fun, depth)
        case SortE():
            return _ZERO_VAR
        case Pi(h, dom, cod):
            # a kind-level product is doubled: x, then a non-dependent argument
            kind = is_cc_kind(dom)
            w.binders.append((a, kind, None, depth))
            tb = _trans_type(w, cod, depth + 2 if kind else depth + 1)
            w.binders.pop()
            if kind:
                return Pi(h, erase_kind(dom), Pi("_", _trans_type(w, dom, depth + 1), tb))
            return Pi(h, _trans_type(w, dom, depth), tb)
        case Lam(h, annot, body):
            if is_cc_kind(annot):
                w.binders.append((a, True, None, depth))
                tb = _trans_type(w, body, depth + 1)
                w.binders.pop()
                return Lam(h, erase_kind(annot), tb)
            # A term-level binder contributes nothing to the erased type.
            reached = [False]
            w.binders.append((a, False, None, reached))
            tb = _trans_type(w, body, depth)
            if reached[0]:
                raise ValueError(f"term binder {w.name(len(w.binders) - 1)} survived type translation")
            w.binders.pop()
            return tb
        case _ if isinstance(a, SIGMA_NODES):
            raise ValueError("the translation covers core CC only, not the sigma extension")
        case _:
            raise ValueError(f"not a sort, kind or constructor: {print_expr(a)}")


def translate_context(ctx: Context) -> Context:
    """Translate a CC context to its F-omega counterpart.

    ``_0`` and ``_z`` go in front; a kind-level binding ``x : A``
    becomes the type variable ``x`` of kind ``erase_kind(A)`` plus the
    term companion ``_w$x`` of type ``translate_type(A)``; a type-level
    binding keeps its name at the translated type.  ``ctx`` must be well-formed.
    """
    _check_context(ctx)
    return _translate_context(ctx)


def _translate_context(ctx: Context) -> Context:
    """``translate_context`` once ``ctx`` is known to bind and mention no reserved name."""
    w = _Walk(Context())
    w.types = {}
    out = [(ZERO, SortE(STAR)), (Z, _Z_TYPE)]
    for name, ty in ctx:
        if is_cc_kind(ty):
            out += [(name, erase_kind(ty)), (W_PREFIX + name, _trans_type(w, ty, 0))]
        else:
            out.append((name, _trans_type(w, ty, 0)))
        # no name has been chosen: a type translation chooses one only to raise
        w.types.setdefault(name, ty)
    return Context(tuple(out))


def translate_term(env: TransEnv, a: Expr) -> Expr:
    """The term translation of well-typed core CC; keeps every source reduction alive."""
    _check_input(a)
    return _trans_term(_Walk(env.cc_context, env), a, 0)


def _trans_term(w: _Walk, a: Expr, depth: int) -> Expr:
    """The term translation of ``a``, open over ``w``'s binders, under ``depth`` target binders."""
    match a:
        case App(fun, arg):
            t_fun = _trans_term(w, fun, depth)
            if _is_constructor(w, arg):
                return App(App(t_fun, _trans_type(w, arg, depth)), _trans_term(w, arg, depth))
            return App(t_fun, _trans_term(w, arg, depth))
        case BVar(i) if i < len(w.binders):
            ref = w.binders[-1 - i][2]
            return BVar(depth - 1 - ref) if type(ref) is int else _bound(ref, depth)
        case Lam(h, annot, body):
            y = w.env.fresh_y()
            t_annot = _trans_term(w, annot, depth)
            # under \y: x, then a kind's term companion _w$x, which stands for x in terms
            if is_cc_kind(annot):
                w.binders.append((a, True, depth + 2, depth + 1))
                t_body = _trans_term(w, body, depth + 3)
                companion = W_PREFIX + w.name(len(w.binders) - 1)
                w.binders.pop()
                wrapped = Lam(h, erase_kind(annot), Lam(companion, _trans_type(w, annot, depth + 2), t_body))
            else:
                w.binders.append((a, False, depth + 1, depth + 1))
                t_body = _trans_term(w, body, depth + 2)
                w.binders.pop()
                wrapped = Lam(h, _trans_type(w, annot, depth + 1), t_body)
            return App(Lam(y, _ZERO_VAR, wrapped), t_annot)
        case Var(name):
            ty = w.types.get(name)
            if ty is None:
                raise KeyError(f"variable {name} not bound in the translation context")
            if is_cc_kind(ty):
                return Var(W_PREFIX + name)
            return a
        case Pi(h, dom, cod):
            t_dom = _trans_term(w, dom, depth)
            # the product binds nothing in the target: its variable, and a
            # kind's companion, become canonical inhabitants
            of_type = (canonical_inhabitant(w.env, _trans_type(w, dom, depth)), depth)
            if is_cc_kind(dom):
                w.binders.append((a, True, of_type, (canonical_inhabitant(w.env, erase_kind(dom)), depth)))
            else:
                w.binders.append((a, False, of_type, of_type))
            t_cod = _trans_term(w, cod, depth)
            w.binders.pop()
            return App(App(_C_FN, t_dom), t_cod)
        case SortE(name):
            if name != STAR:
                raise ValueError(f"{name} is not a typeable subject, cannot translate it")
            return _Z_ZERO
        case _ if isinstance(a, SIGMA_NODES):
            raise ValueError("the translation covers core CC only, not the sigma extension")
        case _:
            raise ValueError(f"cannot translate {print_expr(a)}")


# ---------------------------------------------------------------------------
# Executable checks


class CheckEntry(Record):
    """One PASS/FAIL line of a property report.  ``detail`` may be given as a
    function of no arguments, called when the detail is first read, so a
    report nobody prints renders nothing."""

    __slots__ = ("ok", "name", "_detail")
    __match_args__ = ("ok", "name", "detail")

    def __init__(self, ok: bool, name: str, detail):
        _set(self, "ok", ok)
        _set(self, "name", name)
        _set(self, "_detail", detail)

    @property
    def detail(self) -> str:
        if not isinstance(self._detail, str):
            _set(self, "_detail", self._detail())
        return self._detail

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name} {self.detail}"


def render_report(entries) -> str:
    return "\n".join(entry.line() for entry in entries)


def check_translation(ctx: Context, a: Expr, fuel: int = DEFAULT_FUEL) -> list[CheckEntry]:
    """Re-check the translated judgement with the F-omega checker."""
    try:
        wf_context(CC, ctx, fuel)
        a_ty = infer_type(CC, ctx, a, fuel)
        env, tctx, ta, t_ty = _translate_judgement(ctx, a, a_ty)
    except (TypeCheckError, ValueError, KeyError) as err:
        return [CheckEntry(False, "translation", f"setup failed: {err}")]
    return _check_translated(env, a, a_ty, tctx, ta, t_ty, fuel)


def _translate_judgement(ctx: Context, a: Expr, a_ty: Expr) -> tuple[TransEnv, Context, Expr, Expr]:
    """``(env, translated ctx, translated a, translated a_ty)`` for ctx |- a : a_ty
    in well-typed core CC; the translations of a and of its reducts share ``env``."""
    env = TransEnv(ctx)  # checks the context for reserved names, for both translations
    tctx = _translate_context(ctx)
    return env, tctx, translate_term(env, a), translate_type(env, a_ty)


def _check_translated(env: TransEnv, a: Expr, a_ty: Expr, tctx: Context, ta: Expr, t_ty: Expr, fuel: int) -> list[CheckEntry]:
    """``check_translation`` after its setup, from what ``_translate_judgement`` gave."""
    entries: list[CheckEntry] = []
    judgement = lambda: f"|- {print_expr(ta)} : {print_expr(t_ty)}"
    try:
        check_type(FOMEGA, tctx, ta, t_ty, fuel)
        entries.append(CheckEntry(True, "term-translation", judgement))
    except TypeCheckError as err:
        entries.append(CheckEntry(False, "term-translation", f"{judgement()} ({err})"))

    w = _Walk(env.cc_context, env)
    if is_cc_kind(a) or _is_constructor(w, a):
        try:
            t_a = _trans_type(w, a, 0)
            v_ty = erase_kind(a_ty)
            check_type(FOMEGA, tctx, t_a, v_ty, fuel)
            entries.append(CheckEntry(True, "type-translation", lambda: f"|- {print_expr(t_a)} : {print_expr(v_ty)}"))
        except (TypeCheckError, ValueError) as err:
            entries.append(CheckEntry(False, "type-translation", str(err)))
    return entries


def check_reduction_preservation(ctx: Context, a: Expr, max_depth: int = DEFAULT_DEPTH) -> list[CheckEntry]:
    """Every step of a well-typed core CC ``a`` must be simulated by >= 1 translated steps.

    The search follows key redexes in the subterms the step changed
    before it searches from the whole translated term; ``max_depth``
    bounds every path it tries, so its answer is the whole-term search's.
    """
    try:
        env = TransEnv(ctx)
        ta = translate_term(env, a)
    except (ValueError, KeyError) as err:
        return [CheckEntry(False, "simulation", f"setup failed: {err}")]
    return _simulation(env, a, ta, max_depth)


def _simulation(env: TransEnv, a: Expr, ta: Expr, max_depth: int) -> list[CheckEntry]:
    """``check_reduction_preservation`` after its setup: ``ta`` translates ``a`` in ``env``."""
    entries: list[CheckEntry] = []
    for shown, reduct in sorted(((print_expr(r), r) for r in step_all(a)), key=lambda pair: pair[0]):
        detail = lambda shown=shown: f"{print_expr(a)} ~> {shown}"
        try:
            # a reduct mentions no name that ``a`` does not, and ``env`` checked the context
            t_reduct = _trans_term(_Walk(env.cc_context, env), reduct, 0)
        except (ValueError, KeyError) as err:
            entries.append(CheckEntry(False, "simulation", f"{detail()} ({err})"))
            continue
        # a path of >= 1 step found without search, else the whole-term search
        ok = bool(_directed_steps(ta, t_reduct, max_depth)) or reachable(ta, t_reduct, max_depth, min_steps=1)
        entries.append(CheckEntry(ok, "simulation", detail))
    return entries


def _directed_steps(x: Expr, y: Expr, budget: int) -> int | None:
    """The length of a path x ~>* y of at most ``budget`` steps, found without search; None if none is.

    A source step changes the translation only under the image of its
    position, into the ``_y`` redex plus the image redex (Geuvers &
    Nederhof, JFP 1991).  So where x and y have one class and differ only
    at step positions, each differing pair of children is followed on its
    own and the lengths add up (paths in children are paths in the whole
    term); where that fails, x's key redexes are contracted one by one.
    """
    if x == y:
        return 0
    if type(x) is type(y) and x._role is None:
        total, positions = 0, dict(x._positions)
        for name, _ in x._children:
            a, b = getattr(x, name), getattr(y, name)
            if a != b:
                n = _directed_steps(a, b, budget - total) if name in positions else None
                if n is None:
                    break
                total += n
        else:
            return total
    for n in range(1, budget + 1):
        if key_redex_of(x) is None:
            break
        x = reduce_key_redex(x)
        if x == y:
            return n
    return None


def check_subst_lemmas(ctx: Context, a: Expr, x: str, b: Expr, fuel: int = DEFAULT_FUEL) -> list[CheckEntry]:
    """Substitution commutes with both translations, verbatim equalities.

    Hypotheses: ``x`` is bound in ``ctx``, ``b`` has x's type there, and
    ``b`` does not itself mention ``x`` (the shape in which the results
    are ever used).
    """
    entries: list[CheckEntry] = []
    b_ty = ctx.lookup(x)
    if b_ty is None:
        return [CheckEntry(False, "subst-hypotheses", f"{x} not bound in context")]
    if occurs(x, b):
        return [CheckEntry(False, "subst-hypotheses", f"replacement mentions {x}")]
    try:
        wf_context(CC, ctx, fuel)
        inferred = infer_type(CC, ctx, b, fuel)
        if beta_eq(inferred, b_ty, fuel) is not True:
            return [CheckEntry(False, "subst-hypotheses", f"replacement is not of {x}'s type")]
        infer_type(CC, ctx, a, fuel)
    except TypeCheckError as err:
        return [CheckEntry(False, "subst-hypotheses", str(err))]
    entries.append(CheckEntry(True, "subst-hypotheses", f"[{print_expr(b)}/{x}]"))

    type_level = is_cc_kind(a) or _is_constructor(_Walk(ctx), a)
    try:
        env = TransEnv(ctx)  # one scan; the ``_y`` names it hands out are hints, which == ignores
    except ReservedNameError as err:
        kinds = ("type-subst", "term-subst") if type_level else ("term-subst",)
        return entries + [CheckEntry(False, kind, str(err)) for kind in kinds]

    binding_is_kind = is_cc_kind(b_ty)
    substituted = subst(a, x, b)
    detail = f"[{print_expr(b)}/{x}]{print_expr(a)}"
    if type_level:
        try:
            lhs = translate_type(env, substituted)
            rhs = translate_type(env, a)
            if binding_is_kind:
                rhs = subst(rhs, x, translate_type(env, b))
            entries.append(CheckEntry(lhs == rhs, "type-subst", detail))
        except ValueError as err:
            entries.append(CheckEntry(False, "type-subst", str(err)))

    try:
        lhs = translate_term(env, substituted)
        rhs = translate_term(env, a)
        if binding_is_kind:
            rhs = subst(rhs, W_PREFIX + x, translate_term(env, b))
            rhs = subst(rhs, x, translate_type(env, b))
        else:
            rhs = subst(rhs, x, translate_term(env, b))
        entries.append(CheckEntry(lhs == rhs, "term-subst", detail))
    except ValueError as err:
        entries.append(CheckEntry(False, "term-subst", str(err)))
    return entries
