"""The verify reports, byte for byte, against outputs recorded in tests/golden.

Each case has ``<name>.stdout`` (the exact standard output) and
``<name>.exit`` (the exit code).  Regenerate a case only when a change
to the report is intended, by running the command from the repository
root, e.g. ``python -m ptskit verify corpus/cc > tests/golden/verify-cc-text.stdout``.
"""

import os

import pytest

from ptskit.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(ROOT, "tests", "golden")

CASES = {
    "verify-cc-text": ["verify", "corpus/cc"],
    "verify-cc-machine": ["verify", "corpus/cc", "--format", "machine"],
    "verify-sigma-text": ["verify", "corpus/sigma", "--sigma"],
    "verify-sigma-machine": ["verify", "corpus/sigma", "--sigma", "--format", "machine"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_output_matches_golden(capsys, name):
    command, corpus, *flags = CASES[name]
    code = main([command, os.path.join(ROOT, corpus), *flags])
    out, err = capsys.readouterr()
    with open(os.path.join(GOLDEN, f"{name}.stdout"), encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    with open(os.path.join(GOLDEN, f"{name}.exit"), encoding="utf-8") as fh:
        assert code == int(fh.read())
    assert err == ""
