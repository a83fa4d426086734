"""The four benchmark workloads: inputs from a seed, timed calls, oracles.

A workload is a list of cases and a seeded schedule over them.  Each
case has a ``run`` (the one call into ptskit that is timed) and a
``check`` (the oracle, run after the clock stops) that returns how many
ptskit check entries the call produced.  Cases with the same ``row`` are
reported together.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from ptskit import (
    CC,
    Context,
    Pi,
    check_translation,
    classify,
    infer_type,
    label_context,
    label_term,
    labeled_infer,
    normalize,
    parse_context,
    parse_expr,
    print_expr,
    run_report,
)
from ptskit.corpus import Judgement

import oracle
from oracle import Digest, expect

# Pinned instead of taken from the program's defaults, so that a change
# of defaults cannot change the amount of work measured.
FUEL = 10000
DEPTH = 12

NAMES = ("cli-mix", "property-gen", "church-scale", "binder-depth")


@dataclass
class Case:
    row: str
    run: Callable[[], object]
    check: Callable[[object], int]


@dataclass
class Workload:
    name: str
    cases: list[Case]
    schedule: list[int]  # case indices in seeded order; the timed loop cycles it
    round_len: int  # one round runs every case once; the timed loop stops between rounds
    min_rounds: int  # and not before this many rounds, so every case has repeats
    warmup: list[int]  # ops run once, untimed, before the timed loop
    trace_pass: list[int]  # the fixed ops one traced pass runs
    digest: str


def _rounds(rng: random.Random, n_cases: int, n_rounds: int = 64) -> list[int]:
    schedule: list[int] = []
    for _ in range(n_rounds):
        order = list(range(n_cases))
        rng.shuffle(order)
        schedule.extend(order)
    return schedule


def _fixed_list(name: str, cases: list[Case], seed: int, digest: Digest) -> Workload:
    schedule = _rounds(random.Random(seed), len(cases))
    digest.add(seed, *(c.row for c in cases), *schedule)
    first_round = schedule[: len(cases)]
    return Workload(
        name, cases, schedule, round_len=len(cases), min_rounds=10, warmup=first_round,
        trace_pass=first_round, digest=digest.hexdigest(),
    )


# ---------------------------------------------------------------------------
# cli-mix: whole `python -m ptskit ...` invocations


_README_ID = r"\A:*. \x:A. x"
_CLI = [
    ("infer", ["infer", "--system", "cc", _README_ID], "(A:*) -> A -> A\n"),
    ("check", ["check", _README_ID, "(A:*) -> A -> A"], "ok\n"),
    ("normalize", ["normalize", r"((\x:*. x) y)"], "y\n"),
    (
        "trace",
        ["trace", r"(\A:*. \x:A. x) N M", "--bind", "N : *", "--bind", "M : N"],
        "(\\A:*. \\x:A. x) N M\n  ~> [beta at fun] (\\x:N. x) M\n  ~> [beta at root] M\n",
    ),
    ("classify", ["classify", "--bind", "A : *", "A"], "constructor (a type)\n"),
    (
        "translate",
        ["translate", "--bind", "A : *", "--bind", "x : A", "x"],
        "translated context:\n_0 : *\n_z : (x:*) -> x\nA : *\n_w$A : _0\nx : A\n"
        "translated term: x\ntranslated type: A\nPASS term-translation |- x : A\n",
    ),
    ("label", ["label", "--bind", "N : *", r"\x:N. x"], "\\[x : N -> N] x : N . x\n"),
    ("erase", ["erase", r"\[x : N -> N] x : N . x"], "\\x:N. x\n"),
]
_VERIFY = [("verify-cc", ["verify", "corpus/cc"], 400), ("verify-sigma", ["verify", "corpus/sigma", "--sigma"], 60)]


# Largest ru_maxrss (KiB) of any ``python -m ptskit`` child so far.  Read
# from each child's own rusage, so that other children of the benchmark
# (its set-up probes) do not count.
child_maxrss_kb = 0


def _spawn(argv: list[str]) -> tuple[int, str]:
    global child_maxrss_kb
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "ptskit", *argv]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env) as proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    child_maxrss_kb = max(child_maxrss_kb, usage.ru_maxrss)
    return proc.returncode, stdout


def _in_process(argv: list[str]) -> tuple[int, str]:
    from ptskit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _exact(expected: str) -> Callable[[object], int]:
    def check(result) -> int:
        rc, stdout = result
        expect(rc == 0 and stdout == expected, f"exit {rc}, stdout {stdout!r}")
        return stdout.count("\nPASS ") + stdout.startswith("PASS ")

    return check


def _verify(count: int) -> Callable[[object], int]:
    def check(result) -> int:
        rc, stdout = result
        lines = stdout.splitlines()
        expect(rc == 0, f"exit {rc}")
        expect(lines[-1:] == [f"{count}/{count} checks passed"], f"summary {lines[-1:]}")
        expect(len(lines) == count + 1 and all(ln.startswith("PASS ") for ln in lines[:-1]), "report lines")
        return count

    return check


def cli_mix(seed: int, in_process: bool = False) -> Workload:
    call = _in_process if in_process else _spawn
    digest = Digest()
    cases = [Case(row, lambda a=argv: call(a), _exact(out)) for row, argv, out in _CLI]
    cases += [Case(row, lambda a=argv: call(a), _verify(n)) for row, argv, n in _VERIFY]
    for _, argv, _ in _CLI + _VERIFY:
        digest.add(*argv)
    for directory in ("corpus/cc", "corpus/sigma"):
        for entry in sorted(os.listdir(directory)):
            with open(os.path.join(directory, entry), "rb") as fh:
                digest.add(entry, fh.read())
    wl = _fixed_list("cli-mix", cases, seed, digest)
    wl.warmup = wl.schedule[:1]
    return wl


# ---------------------------------------------------------------------------
# property-gen: the run_report battery on seeded well-typed CC terms

PROPERTY_JUDGEMENTS = 600
PROPERTY_TRACE_PASS = 200


def _load_generators():
    spec = importlib.util.spec_from_file_location("ptskit_bench_generators", os.path.join("tests", "generators.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _accepts(entries) -> int:
    got = [(e.ok, e.name) for e in entries]
    expect(got[:2] == [(True, "ctx-wf"), (True, "typing")] and all(ok for ok, _ in got), f"accept got {got}")
    return len(entries)


def _rejects(entries) -> int:
    got = [(e.ok, e.name) for e in entries]
    expect(got == [(True, "ctx-wf"), (False, "typing")], f"reject got {got}")
    return len(entries)


def property_gen(seed: int) -> Workload:
    gen = _load_generators()
    ctx = gen.typed_pool_context()
    terms = gen.typed_terms(seed, PROPERTY_JUDGEMENTS)
    expect(len(terms) == PROPERTY_JUDGEMENTS, f"generator gave {len(terms)} terms")
    rejects = set(random.Random(f"property-gen rejects {seed}").sample(range(len(terms)), len(terms) // 4))
    digest = Digest()
    digest.add(seed, *(f"{name} : {oracle.serialize(ty)}" for name, ty in ctx))
    cases = []
    for i, term in enumerate(terms):
        ty = infer_type(CC, ctx, term, FUEL)
        if i in rejects:
            # no type converts to a strictly larger arrow over itself
            row, declared, check = "reject", Pi("_", ty, ty), _rejects
        else:
            row, declared, check = "accept", ty, _accepts
        j = Judgement(f"gen{i:04d}", ctx, term, declared)
        digest.add(row, oracle.serialize(term), oracle.serialize(declared))
        cases.append(Case(row, lambda j=j: run_report([j], CC, FUEL, DEPTH), check))
    order = list(range(len(cases)))
    return Workload(
        "property-gen", cases, order, round_len=len(cases), min_rounds=3,
        warmup=order[:20], trace_pass=order[:PROPERTY_TRACE_PASS], digest=digest.hexdigest(),
    )


# ---------------------------------------------------------------------------
# church-scale: normalization and translation of growing Church numerals

MULT_SIZES = (10, 20, 30)  # mult 35 raises RecursionError at the default limit
NUMERAL_SIZES = (40, 80, 160)
_NAT = "(A:*) -> (A -> A) -> A -> A"


def numeral_text(n: int) -> str:
    return r"\A:*. \f:A -> A. \x:A. " + "f (" * n + "x" + ")" * n


def mult_text(n: int) -> str:
    c = numeral_text(n)
    return rf"(\m:{_NAT}. \n:{_NAT}. \A:*. \f:A -> A. m A (n A f)) ({c}) ({c})"


def _church_is(n: int) -> Callable[[object], int]:
    def check(nf) -> int:
        k = oracle.church_value(nf)
        expect(k == n, f"normal form is numeral {k}, expected {n}")
        return 0

    return check


def _translation_passes(entries) -> int:
    return oracle.entries_pass(entries, ["term-translation"])


def church_scale(seed: int) -> Workload:
    cases = []
    for n in MULT_SIZES:
        term = parse_expr(mult_text(n))
        cases.append(Case(f"normalize mult {n}", lambda t=term: normalize(t, FUEL), _church_is(n * n)))
    for n in NUMERAL_SIZES:
        term = parse_expr(numeral_text(n))
        cases.append(Case(f"check_translation numeral {n}", lambda t=term: check_translation(Context(), t, FUEL), _translation_passes))
    digest = Digest()
    digest.add(*(mult_text(n) for n in MULT_SIZES), *(numeral_text(n) for n in NUMERAL_SIZES))
    return _fixed_list("church-scale", cases, seed, digest)


# ---------------------------------------------------------------------------
# binder-depth: typing and elaboration under deep binder nests

NEST_DEPTHS = (16, 24, 32)  # the parser's ceiling is ~164 nested lambdas
SPINE_DEPTH = 150  # the parser's ceiling is a spine of depth ~200
_SPINE_CTX = "A : *\nf : A -> A\nx : A"


def nest_text(d: int) -> str:
    return r"\A:*. " + "".join(rf"\x{i}:A. " for i in range(d)) + "x0"


def spine_text(d: int) -> str:
    return "f (" * (d - 1) + "f x" + ")" * (d - 1)


def _is_term(cls) -> int:
    expect(type(cls).__name__ == "GammaTerm", f"classified as {cls!r}")
    return 0


def binder_depth(seed: int) -> Workload:
    empty = Context()
    cases = []
    for d in NEST_DEPTHS:
        t = parse_expr(nest_text(d))

        def label(t=t):
            la = label_term(CC, empty, t, FUEL)
            return la, labeled_infer(CC, label_context(CC, empty, FUEL), la, FUEL)

        def labeled_ok(result, d=d) -> int:
            la, lty = result
            oracle.labeled_nest(la, d)
            oracle.arrow_chain(lty, d, "LPi", "LSort", "LBVar")
            return 0

        def arrows_ok(ty, d=d) -> int:
            oracle.arrow_chain(ty, d)
            return 0

        cases += [
            Case(f"infer_type nest {d}", lambda t=t: infer_type(CC, empty, t, FUEL), arrows_ok),
            Case(f"classify nest {d}", lambda t=t: classify(empty, t, FUEL), _is_term),
            Case(f"label nest {d}", label, labeled_ok),
            Case(f"check_translation nest {d}", lambda t=t: check_translation(empty, t, FUEL), _translation_passes),
        ]
    text = spine_text(SPINE_DEPTH)
    ctx = parse_context(_SPINE_CTX)
    s = parse_expr(text)

    def spine_ok(app: str, var: str) -> Callable[[object], int]:
        def check(e) -> int:
            oracle.spine(e, SPINE_DEPTH, app, var)
            return 0

        return check

    def printed_ok(out: str) -> int:
        expect(out == text, "printed spine differs from its source text")
        return 0

    n = SPINE_DEPTH
    cases += [
        Case(f"parse spine {n}", lambda: parse_expr(text), spine_ok("App", "Var")),
        Case(f"print spine {n}", lambda: print_expr(s), printed_ok),
        Case(f"label spine {n}", lambda: label_term(CC, ctx, s, FUEL), spine_ok("LApp", "LVar")),
        Case(f"check_translation spine {n}", lambda: check_translation(ctx, s, FUEL), _translation_passes),
    ]
    digest = Digest()
    digest.add(*(nest_text(d) for d in NEST_DEPTHS), _SPINE_CTX, text)
    return _fixed_list("binder-depth", cases, seed, digest)


def build(name: str, seed: int, in_process: bool = False) -> Workload:
    if name == "cli-mix":
        return cli_mix(seed, in_process)
    return {"property-gen": property_gen, "church-scale": church_scale, "binder-depth": binder_depth}[name](seed)
