"""Judgement files and the property report the CLI's verify runs.

A judgement file holds one judgement: a ``ctx:`` section with one
binding per line, a blank line, a ``term:`` section, and optionally a
``type:`` section.  Terms may wrap across lines inside a section.
"""

from __future__ import annotations

import os

from .syntax import (
    CC,
    Context,
    Expr,
    ParseError,
    PtsSpec,
    Record,
    SIGMA_NODES,
    children,
    parse_context,
    parse_expr,
    print_expr,
    _set,
)
from .reduction import (
    DEFAULT_DEPTH,
    DEFAULT_FUEL,
    FuelExhausted,
    _normal_form,
    beta_eq,
    reducts_within,
    step_all,
)
from .typecheck import TypeCheckError, _check_inferred, _classify, _infer, _Scope, _term, infer_type, wf_context
from .translate import CheckEntry, _check_translated, _simulation, _translate_judgement
from .labeled import (
    erase,
    label_context,
    label_term,
    labeled_infer,
    tight_step_all,
)


class Judgement(Record):
    __slots__ = __match_args__ = ("name", "ctx", "term", "ty")

    def __init__(self, name: str, ctx: Context, term: Expr, ty: Expr | None):
        _set(self, "name", name)
        _set(self, "ctx", ctx)
        _set(self, "term", term)
        _set(self, "ty", ty)


def _mentions_sigma(e: Expr) -> bool:
    if isinstance(e, SIGMA_NODES):
        return True
    for child, _ in children(e):
        if _mentions_sigma(child):
            return True
    return False


def judgement_uses_sigma(j: Judgement) -> bool:
    exprs = [j.term] + [ty for _, ty in j.ctx]
    if j.ty is not None:
        exprs.append(j.ty)
    return any(_mentions_sigma(e) for e in exprs)


def parse_judgement(text: str, sigma_enabled: bool = False, name: str = "<judgement>") -> Judgement:
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.endswith(":") and line[:-1] in ("ctx", "term", "type"):
            current = line[:-1]
            sections[current] = []
            continue
        if not line:
            continue
        if current is None:
            raise ParseError("expected 'ctx:', 'term:' or 'type:'", lineno, 1)
        sections[current].append(line)
    if "term" not in sections:
        raise ParseError("judgement has no 'term:' section", 1, 1)
    ctx = parse_context("\n".join(sections.get("ctx", [])), sigma_enabled)
    term = parse_expr(" ".join(sections["term"]), sigma_enabled)
    ty = None
    if "type" in sections:
        ty = parse_expr(" ".join(sections["type"]), sigma_enabled)
    return Judgement(name, ctx, term, ty)


def load_judgement_file(path: str, sigma_enabled: bool = False) -> Judgement:
    with open(path, encoding="utf-8") as fh:
        return parse_judgement(fh.read(), sigma_enabled, name=os.path.basename(path))


def load_corpus_dir(path: str, sigma_enabled: bool = False) -> list[Judgement]:
    out = []
    for entry in sorted(os.listdir(path)):
        full = os.path.join(path, entry)
        if os.path.isfile(full) and entry.endswith(".judg"):
            out.append(load_judgement_file(full, sigma_enabled))
    if not out:
        raise ValueError(f"no .judg files in {path}")
    return out


# ---------------------------------------------------------------------------
# The property battery


def run_report(
    judgements: list[Judgement],
    spec: PtsSpec | None = None,
    fuel: int = DEFAULT_FUEL,
    depth: int = DEFAULT_DEPTH,
) -> list[CheckEntry]:
    """Run every per-judgement property; one PASS/FAIL entry per check.

    Typing, preservation and normalization run for any system; the
    classification, translation, simulation and labeling checks are
    CC-specific and are skipped for sigma-using judgements, which the
    translation does not cover.
    """
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
        scope = _Scope(spec, j.ctx, fuel)
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
        _normal_form(j.term, fuel)
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
        entries.extend(_check_translated(env, j.term, inferred, tctx, ta, t_ty, fuel))
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
