"""Type errors are rendered when read: a rejected judgement prints nothing
until its report line is read, and then reads as it always did."""

import hashlib

from ptskit import syntax
from ptskit.corpus import Judgement, run_report
from ptskit.reduction import _Budget
from ptskit.syntax import CC, Pi, SortE, Var, parse_context, parse_expr
from ptskit.typecheck import ErrorKind, TypeCheckError, _context_scope, _infer, infer_type

from generators import typed_pool_context, typed_terms

# sha256 of every run_report line over typed_terms(7, 600), each term declared
# as its type T, as T -> T and as T -> T -> T (see test_report_lines_are_pinned);
# recorded before type errors were rendered lazily, under hash seeds 0 and 12345
REPORT_DIGEST = "fc38b53dda03884eb03e11d1167866db5e7c8bfce711848973eaec686eaf59bd"


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def spy(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_rejects_print_nothing_until_read(monkeypatch):
    ctx = typed_pool_context()
    rejects = []
    for i, t in enumerate(typed_terms(7, 50)):
        ty = infer_type(CC, ctx, t)
        rejects.append(Judgement(f"r{i}", ctx, t, Pi("_", ty, ty)))
    printed = _count_calls(monkeypatch, syntax, "_pp")
    entries = run_report(rejects, CC, 10000, 12)
    assert [(e.ok, e.name) for e in entries] == [(True, "ctx-wf"), (False, "typing")] * 50
    assert printed[0] == 0  # 1,198 printer calls when the messages were made at the raise
    lines = [e.line() for e in entries]
    assert printed[0] > 0
    assert lines[:2] == [
        f"PASS ctx-wf r0: {syntax.print_expr(rejects[0].term)}",
        f"FAIL typing r0: {syntax.print_expr(rejects[0].term)} (Mismatch: checking {syntax.print_expr(rejects[0].term)}: "
        f"{syntax.print_expr(rejects[0].ty.dom)} is not convertible with {syntax.print_expr(rejects[0].ty)})",
    ]


def test_a_message_names_the_binders_of_its_raise():
    ctx = parse_context("A : *\nf : A -> A")
    term = parse_expr(r"\x:A. \P:A -> *. \y:P x. f y")
    scope = _context_scope(CC, ctx, _Budget(100))
    try:
        _infer(scope, term)
    except TypeCheckError as err:
        error = err
    # the walk moves on: its binders go, and new names would avoid x and P
    del scope.binders[:]
    scope.types = {**scope.types, "x": SortE("*"), "P": SortE("*")}
    _infer(scope, Var("f"))
    assert error.kind is ErrorKind.MISMATCH
    assert error.message == "argument of f: P x is not convertible with A"
    assert str(error) == "Mismatch: argument of f: P x is not convertible with A"


def test_a_message_is_a_string_or_rendered_once():
    calls = []
    err = TypeCheckError(ErrorKind.NO_RULE, lambda: calls.append(1) or "made")
    assert calls == []
    assert (str(err), err.message, str(err)) == ("NoRule: made", "made", "NoRule: made")
    assert calls == [1]
    assert str(TypeCheckError(ErrorKind.NO_AXIOM, "sort # has no type")) == "NoAxiom: sort # has no type"


def test_report_lines_are_pinned():
    ctx = typed_pool_context()
    digest, failed = hashlib.sha256(), 0
    for t in typed_terms(7, 600):
        ty = infer_type(CC, ctx, t)
        for declared in (ty, Pi("_", ty, ty), Pi("_", ty, Pi("x", ty, ty))):
            for entry in run_report([Judgement("x", ctx, t, declared)], CC, 10000, 12):
                failed += entry.line().startswith("FAIL typing")
                digest.update((entry.line() + "\n").encode())
    assert failed == 1200
    assert digest.hexdigest() == REPORT_DIGEST
