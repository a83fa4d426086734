"""Start-up: what ``import ptskit`` and each command load, and the public API.

``import ptskit`` loads no module of the package; each public name is
looked up when first read.  A command loads only what it runs, so the
typing commands start without the translation, the labeled system, the
corpus, ``json`` or ``dataclasses``.
"""

import importlib
import os
import subprocess
import sys
import types

import pytest

import ptskit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ptskit.__file__)))
ROOT = os.path.dirname(SRC)

# Runs ``python -m ptskit ARGS`` in this process, as ``-m`` does, then
# prints the names of the loaded modules.
RUN_AND_LIST = """\
import runpy, sys
sys.argv = ["ptskit", *sys.argv[1:]]
try:
    runpy.run_module("ptskit", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert not stop.code, stop.code
print("MODULES", *sorted(sys.modules))
"""


def loaded_modules(*argv: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", RUN_AND_LIST, *argv], capture_output=True, text=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "MODULES"
    return set(last[1:])


def test_import_ptskit_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": SRC}
    probe = "import sys, ptskit; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    modules = set(proc.stdout.split())
    assert "ptskit" in modules
    assert {m for m in modules if m.startswith("ptskit.")} == set()
    assert "dataclasses" not in modules


TYPING_COMMANDS = [
    ["infer", r"\A:*. \x:A. x"],
    ["check", r"\A:*. \x:A. x", "(A:*) -> A -> A"],
    ["normalize", r"((\x:*. x) y)"],
    ["trace", r"(\A:*. \x:A. x) N M", "--bind", "N : *", "--bind", "M : N"],
    ["classify", "--bind", "A : *", "A"],
]


@pytest.mark.parametrize("argv", TYPING_COMMANDS, ids=[argv[0] for argv in TYPING_COMMANDS])
def test_typing_commands_load_only_the_kernel(argv):
    modules = loaded_modules(*argv)
    assert {"ptskit.syntax", "ptskit.reduction", "ptskit.typecheck", "ptskit.cli"} <= modules
    unwanted = {"ptskit.translate", "ptskit.labeled", "ptskit.corpus", "dataclasses", "json"}
    assert modules & unwanted == set()


@pytest.mark.parametrize("argv", [["label", "--bind", "N : *", r"\x:N. x"], ["erase", r"\[x : N -> N] x : N . x"]])
def test_labeled_commands_load_no_translation(argv):
    modules = loaded_modules(*argv)
    assert "ptskit.labeled" in modules
    assert modules & {"ptskit.translate", "ptskit.corpus"} == set()


def test_verify_loads_what_it_runs():
    assert {"ptskit.translate", "ptskit.labeled", "ptskit.corpus"} <= loaded_modules("verify", "corpus/cc")


# ---------------------------------------------------------------------------
# The public API

SUBMODULES = ["corpus", "labeled", "reduction", "syntax", "translate", "typecheck"]

PUBLIC = [
    "App", "BOX", "BUILTIN_SPECS", "BVar", "CC", "CheckEntry", "Classification", "Context", "DEFAULT_FUEL",
    "ErrorKind", "Expr", "FOMEGA", "FuelExhausted", "GammaConstructor", "GammaTerm", "Judgement", "Kind", "LApp",
    "LLam", "LPi", "LSort", "LVar", "LabeledContext", "LabeledExpr", "Lam", "Pair", "ParseError", "Pi", "Proj1",
    "Proj2", "PtsSpec", "STAR", "STLC", "SYSTEM_F", "Sigma", "SortE", "StepTrace", "TransEnv", "TypeCheckError",
    "UNDETERMINED", "Var", "beta_eq", "canonical_inhabitant", "check_reduction_preservation",
    "check_subst_lemmas", "check_translation", "check_type", "classify", "close_binder", "corpus", "erase",
    "erase_kind", "free_vars", "infer_type", "key_redex_of", "label_context", "label_term",
    "labeled", "labeled_infer", "load_corpus_dir", "load_judgement_file", "load_spec_file", "normalize",
    "open_binder", "parse_context", "parse_expr", "parse_judgement", "parse_labeled", "parse_spec_text",
    "print_context", "print_expr", "print_labeled", "reachable", "reduce_key_redex", "reduction", "resolve_spec",
    "run_report", "step_all", "subst", "syntax", "tight_step_all", "trace", "translate", "translate_context",
    "translate_term", "translate_type", "typecheck", "wf_context", "whnf",
]  # fmt: skip


def test_all_is_pinned():
    assert len(PUBLIC) == 89 and PUBLIC == sorted(PUBLIC)
    assert ptskit.__all__ == PUBLIC


def test_names_are_the_submodules_objects():
    modules = [importlib.import_module(f"ptskit.{name}") for name in SUBMODULES]
    for name in PUBLIC:
        value = getattr(ptskit, name)
        if name in SUBMODULES:
            assert isinstance(value, types.ModuleType) and value is sys.modules[f"ptskit.{name}"]
            continue
        owners = [m for m in modules if name in vars(m)]
        assert owners, name
        assert all(vars(m)[name] is value for m in owners), name


def test_translate_is_the_submodule():
    assert ptskit.translate is importlib.import_module("ptskit.translate")
    assert ptskit.translate.translate_term is ptskit.translate_term


def test_dir_and_star_import():
    assert "__all__" in dir(ptskit) and set(PUBLIC) <= set(dir(ptskit))
    namespace: dict = {}
    exec("from ptskit import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(ptskit, name) for name in PUBLIC)


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ptskit.no_such_name  # noqa: B018
    assert not hasattr(ptskit, "dataclass")


def test_first_read_in_a_fresh_process():
    # a name's first read loads its module and no other
    probe = (
        "import sys, ptskit; f = ptskit.translate_term; m = ptskit.translate; "
        "print(m.translate_term is f, 'ptskit.corpus' in sys.modules, 'ptskit.labeled' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["True", "False", "False"]
