"""The property battery as it was before one scope served each judgement.

``run_report`` and ``_report_one`` below are that battery, verbatim: the
context is checked by ``wf_context`` and typed again in a scope of its
own, the term is elaborated by ``label_term``, every binding of the
context by ``label_context``, and the labeled term is typed by
``labeled_infer`` in a scope over that labeled context.  They are kept as
a differential oracle: ``ptskit.corpus.run_report`` must give the same
entries, in the same order, with the same text.

So that the battery is not checked against itself, the parts it changed
since are copied here as they were: the reserved-name scans that
``TransEnv`` ran, ``_translate_judgement`` (which scanned the term and
its type again), ``_simulation`` (which translated each reduct on a fresh
walk, took its own ``step_all`` and fell back to the whole-term search
where the directed path missed) with the ``_directed_steps`` it called,
and the hand-written ``erase``.  An entry the search misses because it
stopped at the depth is UNDECIDED, as the live check's cut path is.
"""

from __future__ import annotations

from ptskit.syntax import (
    RESERVED_PREFIX,
    CC,
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
    free_vars,
    print_expr,
)
from ptskit.reduction import (
    DEFAULT_DEPTH,
    DEFAULT_FUEL,
    FuelExhausted,
    _Budget,
    _normal_form,
    _search,
    beta_eq,
    key_redex_of,
    reduce_key_redex,
    reducts_within,
    step_all,
)
from ptskit.typecheck import TypeCheckError, _check_inferred, _classify, _infer, _Scope, _term, infer_type, wf_context
from ptskit.translate import (
    CheckEntry,
    ReservedNameError,
    TransEnv,
    _Undecided,
    _check_translated,
    _trans_term,
    _trans_type,
    _translate_context,
    _Walk,
)
from ptskit.labeled import label_context, label_term, labeled_infer, tight_step_all
from ptskit.corpus import Judgement, judgement_uses_sigma


def _check_input(e: Expr) -> None:
    bad = sorted(n for n in free_vars(e) if n.startswith(RESERVED_PREFIX))
    if bad:
        raise ReservedNameError(f"input mentions reserved names: {', '.join(bad)}")


def _check_context(ctx: Context) -> None:
    for name, ty in ctx:
        if name.startswith(RESERVED_PREFIX):
            raise ReservedNameError(f"context binds reserved name {name!r}")
        _check_input(ty)


def _translate_judgement(ctx: Context, a: Expr, a_ty: Expr) -> tuple[TransEnv, Context, Expr, Expr]:
    """``(env, translated ctx, translated a, translated a_ty)`` for ctx |- a : a_ty
    in well-typed core CC; the translations of a and of its reducts share ``env``.

    ``TransEnv(ctx)``, ``translate_term`` and ``translate_type`` ran the
    scans above; they are spelled out, on an environment with no table."""
    _check_context(ctx)
    env = TransEnv(ctx, _scan=False)  # checks the context for reserved names, for both translations
    tctx = _translate_context(ctx)
    _check_input(a)
    ta = _trans_term(_Walk(env.cc_context, env), a, 0)
    _check_input(a_ty)
    return env, tctx, ta, _trans_type(_Walk(env.cc_context, env), a_ty, 0)


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
        # a path of >= 1 step found without search, else the whole-term search,
        # whose miss is UNDECIDED where it stopped at the depth with a frontier open
        if _directed_steps(ta, t_reduct, max_depth):
            entries.append(CheckEntry(True, "simulation", detail))
            continue
        budget = _Budget(depth=max_depth)
        ok = _search(ta, budget, {t_reduct}, 1)[0]
        entries.append((_Undecided if budget.cut and not ok else CheckEntry)(ok, "simulation", detail))
    return entries


def _directed_steps(x: Expr, y: Expr, limit: int) -> int | None:
    """The length of a path x ~>* y of at most ``limit`` steps, found without search; None if none is.

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
                n = _directed_steps(a, b, limit - total) if name in positions else None
                if n is None:
                    break
                total += n
        else:
            return total
    for n in range(1, limit + 1):
        if key_redex_of(x) is None:
            break
        x = reduce_key_redex(x)
        if x == y:
            return n
    return None


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


def run_report(
    judgements: list[Judgement],
    spec: PtsSpec | None = None,
    fuel: int = DEFAULT_FUEL,
    depth: int = DEFAULT_DEPTH,
) -> list[CheckEntry]:
    spec = spec or CC
    entries: list[CheckEntry] = []
    for j in judgements:
        entries.extend(_report_one(j, spec, fuel, depth))
    return entries


def _entry(ok: bool, name: str, subject, extra: str = "") -> CheckEntry:
    return CheckEntry(ok, name, (lambda: f"{subject()} ({extra})") if extra else subject)


def _report_one(j: Judgement, spec: PtsSpec, fuel: int, depth: int) -> list[CheckEntry]:
    """Each job once: one typing, one translation, details rendered when read."""
    entries: list[CheckEntry] = []
    first = CheckEntry(True, "ctx-wf", lambda: f"{j.name}: {print_expr(j.term)}")
    subject = lambda: first.detail  # rendered once, when an entry is first read
    try:
        wf_context(spec, j.ctx, fuel)
        entries.append(first)
    except TypeCheckError as err:
        return [_entry(False, "ctx-wf", subject, str(err))]

    try:
        scope = _Scope(spec, j.ctx, _Budget(fuel))
        ty, sort = _infer(scope, j.term)
        inferred = _term(scope, ty)
        if j.ty is not None:
            _check_inferred(scope, j.term, inferred, j.ty)
        entries.append(_entry(True, "typing", subject))
    except TypeCheckError as err:
        entries.append(_entry(False, "typing", subject, str(err)))
        return entries

    # every reduct is checked; a failure names the first failing reduct in print order
    failures = []
    for reduct in reducts_within(j.term, 3) - {j.term}:
        try:
            r = beta_eq(infer_type(spec, j.ctx, reduct, fuel), inferred, fuel)
        except TypeCheckError as err:
            failures.append((print_expr(reduct), str(err)))
            continue
        if r is not True:
            why = "type changed" if r is False else f"type conversion undecided within {fuel} steps"
            failures.append((print_expr(reduct), f"{why} across {print_expr(j.term)} ~>* {print_expr(reduct)}"))
    entries.append(_entry(not failures, "preservation", subject, min(failures)[1] if failures else ""))

    try:
        _normal_form(j.term, _Budget(fuel))
        entries.append(_entry(True, "normalizes", subject))
    except FuelExhausted:
        entries.append(_entry(False, "normalizes", subject, f"no normal form within {fuel} steps"))

    if (spec.sorts, spec.axioms, spec.rules) != (CC.sorts, CC.axioms, CC.rules):
        return entries

    try:
        _classify(scope, j.term, inferred, sort)
        entries.append(_entry(True, "classification", subject))
    except TypeCheckError as err:
        entries.append(_entry(False, "classification", subject, str(err)))

    # without sigma, wf_context and typing have rejected every sigma node
    if spec.sigma_enabled and judgement_uses_sigma(j):
        return entries

    # CC's sorts, axioms and rules, no sigma: this is check_translation's CC typing
    try:
        env, tctx, ta, t_ty = _translate_judgement(j.ctx, j.term, inferred)
    except (ValueError, KeyError) as err:
        entries.append(CheckEntry(False, "translation", f"setup failed: {err}"))
        # simulation would translate the same term in the same context: same error
        entries.append(CheckEntry(False, "simulation", f"setup failed: {err}"))
    else:
        entries.extend(_check_translated(env, j.term, inferred, tctx, ta, t_ty, _Budget(fuel)))
        entries.extend(_simulation(env, j.term, ta, depth))

    try:
        la = label_term(CC, j.ctx, j.term, fuel)
    except TypeCheckError as err:
        entries.append(_entry(False, "labeled-roundtrip", subject, str(err)))
        return entries
    entries.append(_entry(erase(la) == j.term, "labeled-roundtrip", subject))
    try:
        labeled_infer(CC, label_context(CC, j.ctx, fuel), la, fuel, depth)
    except TypeCheckError as err:
        entries.append(_entry(False, "tight-erasure", subject, str(err)))
        return entries
    plain = step_all(j.term)
    sim_ok = all(erase(r) == j.term or erase(r) in plain for r in tight_step_all(la))
    entries.append(_entry(sim_ok, "tight-erasure", subject))
    return entries
