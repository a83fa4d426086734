"""Command-line front end.

Exit codes: 0 success, 1 type error, 2 bad input (a parse error,
``--fuel`` or ``--depth`` below 1, a bad spec file, an unreadable or
empty corpus path, a translation outside core CC), 3 a resource limit
(fuel, search depth or term nesting) exhausted, 4 property-report
failures; ``verify`` exits 4 if any check FAILs, else 3 if any is
UNDECIDED (a simulation path cut at ``--depth``).  A command imports
the translation, the labeled system, the corpus and ``json`` only if it
runs them, so typing commands start lean.
"""

from __future__ import annotations

import argparse
import sys

from .syntax import CC, Context, ParseError, parse_context, parse_expr, print_context, print_expr
from .reduction import DEFAULT_DEPTH, DEFAULT_FUEL, FuelExhausted, _Budget, normalize, trace
from .typecheck import (
    ErrorKind, GammaConstructor, GammaTerm, Kind, TypeCheckError, check_type, classify, infer_type, resolve_spec, wf_context
)

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_EXHAUSTED = 3
EXIT_REPORT_FAILED = 4

_EXHAUSTION_KINDS = (ErrorKind.FUEL_EXHAUSTED, ErrorKind.DIRECTED_CONVERSION_UNDETERMINED)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--system", default="cc", help="built-in name (stlc, f, fomega, cc) or a spec file")
    sub.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    sub.add_argument("--depth", type=int, default=DEFAULT_DEPTH, help="bound on reduction paths: the simulation check's and labeled conversion's")
    sub.add_argument("--sigma", action="store_true", help="enable dependent pairs")
    sub.add_argument("--format", choices=("text", "machine"), default="text")
    sub.add_argument("--ctx", help="context file, one 'name : type' binding per line")
    sub.add_argument("--bind", action="append", default=[], metavar="'x : T'", help="inline context binding (repeatable, ordered)")
    sub.add_argument("--allow-reserved", action="store_true", help="accept '_'-prefixed identifiers (for re-checking translation output)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ptskit", description="pure type system kernel")
    sp = ap.add_subparsers(dest="command", required=True)

    for name, args, help_text in [
        ("check", ["term", "type"], "check a term against a type"),
        ("infer", ["term"], "infer the type of a term"),
        ("normalize", ["term"], "reduce to normal form"),
        ("trace", ["term"], "print the leftmost-outermost reduction sequence"),
        ("classify", ["term"], "kind / constructor / term trichotomy (CC)"),
        ("translate", ["term"], "dependency-erasing translation to F-omega (CC)"),
        ("label", ["term"], "elaborate to the fully annotated system"),
        ("erase", ["term"], "erase a labeled term"),
        ("verify", ["corpus"], "run the property report over a corpus directory"),
    ]:
        sub = sp.add_parser(name, help=help_text)
        for a in args:
            sub.add_argument(a)
        _add_common(sub)
    return ap


class _Session:
    def __init__(self, ns: argparse.Namespace):
        self.budget = _Budget(ns.fuel, ns.depth)  # refuses fuel below 1
        if ns.depth < 1:
            raise ValueError("depth must be >= 1")
        self.ns = ns
        self.spec = resolve_spec(ns.system, ns.sigma)
        self.records: list[dict] = []

    def context(self) -> Context:
        """The context of ``--ctx`` and ``--bind``, checked well-formed in the session's system."""
        parts = []
        if self.ns.ctx:
            with open(self.ns.ctx, encoding="utf-8") as fh:
                parts.append(fh.read())
        parts.extend(self.ns.bind)
        ctx = parse_context("\n".join(parts), self.ns.sigma, self.ns.allow_reserved)
        wf_context(self.spec, ctx, self.ns.fuel)
        return ctx

    def parse(self, text: str):
        return parse_expr(text, self.ns.sigma, self.ns.allow_reserved)

    def emit(self, record: dict, text: str) -> None:
        if self.ns.format == "machine":
            import json
            print(json.dumps(record, sort_keys=True))
        else:
            print(text)


def _cmd_check(s: _Session) -> int:
    ctx = s.context()
    term = s.parse(s.ns.term)
    ty = s.parse(s.ns.type)
    check_type(s.spec, ctx, term, ty, s.ns.fuel)
    s.emit({"command": "check", "ok": True}, "ok")
    return EXIT_OK


def _cmd_infer(s: _Session) -> int:
    ctx = s.context()
    ty = infer_type(s.spec, ctx, s.parse(s.ns.term), s.ns.fuel)
    s.emit({"command": "infer", "ok": True, "type": print_expr(ty)}, print_expr(ty))
    return EXIT_OK


def _cmd_normalize(s: _Session) -> int:
    nf = normalize(s.parse(s.ns.term), s.ns.fuel)
    s.emit({"command": "normalize", "ok": True, "normal_form": print_expr(nf)}, print_expr(nf))
    return EXIT_OK


def _cmd_trace(s: _Session) -> int:
    t, truncated = trace(s.parse(s.ns.term), s.ns.fuel)
    lines = [print_expr(t.start)]
    lines += [f"  ~> [{kind} at {pos or 'root'}] {print_expr(r)}" for pos, kind, r in t.steps]
    if truncated:
        lines.append(f"  ... truncated: fuel ({s.ns.fuel}) exhausted")
    record = {
        "command": "trace",
        "ok": not truncated,
        "steps": [{"position": pos or "root", "kind": kind, "result": print_expr(r)} for pos, kind, r in t.steps],
        "truncated": truncated,
    }
    s.emit(record, "\n".join(lines))
    return EXIT_EXHAUSTED if truncated else EXIT_OK


def _cmd_classify(s: _Session) -> int:
    ctx = s.context()
    cls = classify(ctx, s.parse(s.ns.term), s.ns.fuel, s.spec)
    match cls:
        case Kind():
            label = "kind"
        case GammaConstructor(is_type=True):
            label = "constructor (a type)"
        case GammaConstructor():
            label = "constructor"
        case GammaTerm():
            label = "term"
    s.emit({"command": "classify", "ok": True, "classification": label}, label)
    return EXIT_OK


def _cmd_translate(s: _Session) -> int:
    from .translate import _check_translated, _translate_judgement, render_report
    ctx = s.context()
    term = s.parse(s.ns.term)
    ty = infer_type(s.spec, ctx, term, s.ns.fuel)
    # The translation needs CC typing: every built-in system implies it, a spec file need not;
    # under CC itself it is the check just made.
    cc = CC.with_sigma(s.ns.sigma)
    if s.spec != cc:
        wf_context(cc, ctx, s.ns.fuel)
        ty = infer_type(cc, ctx, term, s.ns.fuel)
    env, tctx, t_term, t_ty = _translate_judgement(ctx, term, ty)
    entries = _check_translated(env, term, ty, tctx, t_term, t_ty, s.budget)
    ok = all(e.ok for e in entries)
    record = {
        "command": "translate",
        "ok": ok,
        "context": print_context(tctx),
        "term": print_expr(t_term),
        "type": print_expr(t_ty),
        "checks": [{"ok": e.ok, "name": e.name, "detail": e.detail} for e in entries],
    }
    text = "\n".join(
        [
            "translated context:",
            print_context(tctx),
            f"translated term: {print_expr(t_term)}",
            f"translated type: {print_expr(t_ty)}",
            render_report(entries),
        ]
    )
    s.emit(record, text)
    return EXIT_OK if ok else EXIT_REPORT_FAILED


def _cmd_label(s: _Session) -> int:
    from .labeled import label_context, label_term, labeled_infer, print_labeled
    ctx = s.context()
    la = label_term(s.spec, ctx, s.parse(s.ns.term), s.ns.fuel)
    lctx = label_context(s.spec, ctx, s.ns.fuel)
    labeled_infer(s.spec, lctx, la, s.ns.fuel, s.ns.depth)
    s.emit({"command": "label", "ok": True, "labeled": print_labeled(la)}, print_labeled(la))
    return EXIT_OK


def _cmd_erase(s: _Session) -> int:
    from .labeled import erase, parse_labeled
    la = parse_labeled(s.ns.term, allow_reserved=True)
    plain = erase(la)
    s.emit({"command": "erase", "ok": True, "term": print_expr(plain)}, print_expr(plain))
    return EXIT_OK


def _cmd_verify(s: _Session) -> int:
    from .corpus import load_corpus_dir, run_report
    from .translate import render_report
    judgements = load_corpus_dir(s.ns.corpus, s.ns.sigma)
    entries = run_report(judgements, s.spec, s.ns.fuel, s.ns.depth)
    failures = [e for e in entries if not e.ok]
    undecided = sum(e.undecided for e in failures)
    if s.ns.format == "machine":
        import json
        for e in entries:
            print(json.dumps({"ok": e.ok, "check": e.name, "detail": e.detail} | ({"undecided": True} if e.undecided else {}), sort_keys=True))
        print(json.dumps({"summary": True, "checks": len(entries), "failures": len(failures)} | ({"undecided": undecided} if undecided else {})))
    else:
        print(render_report(entries))
        print(f"{len(entries) - len(failures)}/{len(entries)} checks passed")
    return EXIT_REPORT_FAILED if len(failures) > undecided else EXIT_EXHAUSTED if undecided else EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "infer": _cmd_infer,
    "normalize": _cmd_normalize,
    "trace": _cmd_trace,
    "classify": _cmd_classify,
    "translate": _cmd_translate,
    "label": _cmd_label,
    "erase": _cmd_erase,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return _COMMANDS[ns.command](_Session(ns))
    except ParseError as err:
        _report_error(ns, f"parse error: {err}")
        return EXIT_PARSE_ERROR
    except FuelExhausted as err:
        _report_error(ns, f"fuel exhausted; last term: {err.last}")
        return EXIT_EXHAUSTED
    except TypeCheckError as err:
        _report_error(ns, str(err))
        if err.kind in _EXHAUSTION_KINDS:
            return EXIT_EXHAUSTED
        return EXIT_TYPE_ERROR
    except (ValueError, OSError, KeyError) as err:
        _report_error(ns, str(err))
        return EXIT_PARSE_ERROR
    except RecursionError:
        _report_error(ns, "input nesting exceeds the supported depth")
        return EXIT_EXHAUSTED


def _report_error(ns: argparse.Namespace, message: str) -> None:
    if getattr(ns, "format", "text") == "machine":
        import json
        print(json.dumps({"command": ns.command, "ok": False, "error": message}, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
