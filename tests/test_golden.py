"""CLI outputs and surface syntax, byte for byte, against tests/golden.

Each CLI case has ``<name>.stdout`` (the exact standard output) and
``<name>.exit`` (the exit code).  Regenerate a case only when a change
to the output is intended, by running the command from the repository
root, e.g. ``python -m ptskit verify corpus/cc > tests/golden/verify-cc-text.stdout``.

``surface.txt`` holds, for every input of ``SURFACE_INPUTS``, what
``parse_expr`` (sigma off and on) and ``parse_labeled`` make of it: the
printed term or the exact ``ParseError`` text.  Regenerate it with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import os

import pytest

from ptskit.cli import main
from ptskit.labeled import parse_labeled, print_labeled
from ptskit.syntax import ParseError, parse_expr, print_expr

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(ROOT, "tests", "golden")

CASES = {
    "verify-cc-text": ["verify", "corpus/cc"],
    "verify-cc-machine": ["verify", "corpus/cc", "--format", "machine"],
    "verify-sigma-text": ["verify", "corpus/sigma", "--sigma"],
    "verify-sigma-machine": ["verify", "corpus/sigma", "--sigma", "--format", "machine"],
}

# The README's command-line examples, each in text and machine format.
README_EXAMPLES = {
    "infer": ["infer", "--system", "cc", "\\A:*. \\x:A. x"],
    "trace": ["trace", "(\\A:*. \\x:A. x) N M", "--bind", "N : *", "--bind", "M : N"],
    "translate": ["translate", "--bind", "A : *", "--bind", "x : A", "x"],
    "label": ["label", "--bind", "N : *", "\\x:N. x"],
    "erase": ["erase", "\\[x : N -> N] x : N . x"],
}
README_CASES = {f"readme-{name}-{fmt}": argv + ["--format", fmt] for name, argv in README_EXAMPLES.items() for fmt in ("text", "machine")}

# Translations whose binder hints come from the fresh-name choice (a kind
# binder that shadows a context name prints as ``_w$A'``) or whose product
# variables become canonical inhabitants, one of them under binders.
TRANSLATE_EXAMPLES = {
    "renamed-kind-binder": ["--bind", "A : *", "\\A:*. \\x:A. x"],
    "kind-product": ["(A:*) -> A -> A"],
    "inhabitant-under-binders": ["\\A:*. (x:A) -> (\\P:A -> *. P x) (\\u:A. A)"],
}
TRANSLATE_CASES = {
    f"translate-{name}-{fmt}": ["translate", *argv, "--format", fmt]
    for name, argv in TRANSLATE_EXAMPLES.items()
    for fmt in ("text", "machine")
}


def _check_golden(capsys, name, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    with open(os.path.join(GOLDEN, f"{name}.stdout"), encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    with open(os.path.join(GOLDEN, f"{name}.exit"), encoding="utf-8") as fh:
        assert code == int(fh.read())
    assert err == ""


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_output_matches_golden(capsys, name):
    command, corpus, *flags = CASES[name]
    _check_golden(capsys, name, [command, os.path.join(ROOT, corpus), *flags])


@pytest.mark.parametrize("name", sorted(README_CASES))
def test_readme_example_matches_golden(capsys, name):
    _check_golden(capsys, name, README_CASES[name])


@pytest.mark.parametrize("name", sorted(TRANSLATE_CASES))
def test_translate_output_matches_golden(capsys, name):
    _check_golden(capsys, name, TRANSLATE_CASES[name])


# Inputs for both grammars: every production of each, and every error
# path (tokenizer, expected tokens, reserved names, the sigma forms, a
# dependent product as an argument, the labeled binder and annotation
# checks, a missing @[...], trailing input).
SURFACE_INPUTS = [
    "*",
    "#",
    "x",
    "x'",
    "_x",
    "\\x:*. x",
    "\\x:*. \\x:x. x",
    "\\A:*. \\x:A. \\y:A. x",
    "(\\y:*. \\x:*. y) x",
    "(x:*) -> x",
    "(x:*) -> *",
    "(_:*) -> *",
    "* -> * -> *",
    "(* -> *) -> *",
    "f a b",
    "f (a b)",
    "f (\\x:*. x)",
    "(\\x:*. x) -> *",
    "f (x:*) -> x",
    "f ((x:*) -> x)",
    "A -> (x:A) -> B x",
    "Sig x:*. x",
    "\\p:(Sig x:*. x). p.1",
    "p.1.2",
    "(f a).2",
    "<a, b> : Sig x:*. x",
    "<a, b> : T",
    "f <a, b> : T",
    "<a b> : T",
    "<a, b> T",
    "<a, b",
    "x.1",
    "x.12",
    "\\[x : * -> *] x : * . x",
    "\\[x : * -> x] x : * . x",
    "\\[A : * -> A -> A] A : * . \\[x : A -> A] x : A . x",
    "\\[x : * -> *] y : * . x",
    "\\[x : * -> *] x : # . x",
    "\\[x : * -> *] x : * x",
    "\\[x * -> *] x : * . x",
    "\\[x : * *] x : * . x",
    "\\[x : * -> *] x : *",
    "f @[x : * -> *] a",
    "\\[x : * -> *] x : * . \\[x : * -> *] x : * . x",
    "\\[x : (* -> *) -> *] x : (* -> *) . x",
    "\\[x : * -> *] x : * . f @[x : * -> x] x",
    "(x:*) -> (y:x) -> x",
    "f @[x : * -> *] (\\[y : * -> *] y : * . y)",
    "(f @[x : * -> *] a) -> *",
    "(<a, b> : T).1",
    "f @[x : * -> x] a @[y : * -> *] b",
    "f @[x : * -> *] (g @[y : * -> *] a)",
    "(\\[x : * -> *] x : * . x) @[x : * -> *] a",
    "f @[x : * -> *] a b",
    "f @ a",
    "f @[x : * -> *] (y:*) -> y",
    "f @[_ : * -> *] a",
    "(x : *) -> f @[y : * -> *] x",
    "\\x:*. x @[y : * -> *] x",
    "f a @[x : * -> *] b",
    "\\*:*. x",
    "\\x *. x",
    "\\x:*.",
    "\\",
    "(x:*) x",
    "(x:* -> *",
    "(x",
    "()",
    "",
    "   ",
    ")",
    "x )",
    "x y )",
    "x ; y",
    "x $",
    "f [a]",
    "x\n  y )",
    "\\x:*.\n\\y:x.\n  @",
    "x -> ",
    "x ->",
    "-> x",
    "x : *",
    "Sig",
    "f Sig",
    "\\x:Sig y:*. y. x",
    "x\n\t$",
    "x\r\n  y )",
    "\\x:*.\n",
]

SURFACE_MODES = [
    ("plain", lambda s: print_expr(parse_expr(s))),
    ("sigma", lambda s: print_expr(parse_expr(s, sigma_enabled=True))),
    ("labeled", lambda s: print_labeled(parse_labeled(s))),
]


def render_surface() -> str:
    lines = []
    for text in SURFACE_INPUTS:
        lines.append(f"input {text!r}")
        for mode, run in SURFACE_MODES:
            try:
                result = run(text)
            except ParseError as err:
                result = f"ParseError {err}"
            lines.append(f"  {mode}: {result}")
    return "\n".join(lines) + "\n"


def test_surface_syntax_matches_golden():
    with open(os.path.join(GOLDEN, "surface.txt"), encoding="utf-8", newline="") as fh:
        assert render_surface() == fh.read()


if __name__ == "__main__":
    with open(os.path.join(GOLDEN, "surface.txt"), "w", encoding="utf-8", newline="") as fh:
        fh.write(render_surface())
