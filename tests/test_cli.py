import json
import os
import subprocess
import sys

from ptskit.cli import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_REPORT_FAILED,
    EXIT_TYPE_ERROR,
    main,
)

CORPUS = "corpus/cc"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_infer_polymorphic_identity(capsys):
    code, out, _ = run(capsys, "infer", "--system", "cc", r"\A:*. \x:A. x")
    assert code == EXIT_OK
    assert out.strip() == "(A:*) -> A -> A"


def test_infer_fomega_norule_exit_one(capsys):
    code, _, err = run(capsys, "infer", "--system", "fomega", "--bind", "N : *", "(x:N) -> *")
    assert code == EXIT_TYPE_ERROR
    assert "NoRule" in err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", r"((\x:*. x) y)")
    assert code == EXIT_OK and out.strip() == "y"


def test_check_ok_and_mismatch(capsys):
    code, out, _ = run(capsys, "check", r"\A:*. \x:A. x", "(A:*) -> A -> A")
    assert code == EXIT_OK and out.strip() == "ok"
    code, _, err = run(capsys, "check", "*", "*")
    assert code == EXIT_TYPE_ERROR and "Mismatch" in err


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "infer", "definitely (((")
    assert code == EXIT_PARSE_ERROR
    assert "parse error" in err


def test_fuel_exhaustion_exit_three(capsys):
    code, _, err = run(capsys, "normalize", "--fuel", "5", r"(\x:*. x x) (\x:*. x x)")
    assert code == EXIT_EXHAUSTED


def test_fuel_exhaustion_reports_the_normal_order_term(capsys):
    # mult 3 3 takes 13 contractions; with 12 the message shows the term
    # that 12 leftmost-outermost steps reach
    from ptskit.reduction import FuelExhausted
    from ptskit.syntax import parse_expr, print_expr
    from test_reduction import _reference_normalize

    nat = "(A:*) -> (A -> A) -> A -> A"
    three = r"\A:*. \f:A -> A. \x:A. f (f (f x))"
    mult = rf"(\m:{nat}. \n:{nat}. \A:*. \f:A -> A. m A (n A f)) ({three}) ({three})"
    try:
        _reference_normalize(parse_expr(mult), 12)
        raise AssertionError("the reference reached a normal form")
    except FuelExhausted as exhausted:
        message = f"fuel exhausted; last term: {print_expr(exhausted.last)}"
    code, out, err = run(capsys, "normalize", "--fuel", "12", mult)
    assert (code, out, err) == (EXIT_EXHAUSTED, "", f"error: {message}\n")
    code, out, err = run(capsys, "normalize", "--fuel", "12", "--format", "machine", mult)
    assert code == EXIT_EXHAUSTED and err == ""
    assert json.loads(out) == {"command": "normalize", "ok": False, "error": message}
    code, out, _ = run(capsys, "normalize", "--fuel", "13", mult)
    assert code == EXIT_OK and out == r"\A:*. \f:A -> A. \x:A. " + "f (" * 8 + "f x" + ")" * 8 + "\n"


def test_trace_marks_truncation(capsys):
    code, out, _ = run(capsys, "trace", "--fuel", "4", r"(\x:*. x x) (\x:*. x x)")
    assert code == EXIT_EXHAUSTED
    assert "truncated" in out


def test_trace_output(capsys):
    code, out, _ = run(capsys, "trace", "--bind", "N : *", "--bind", "M : N", r"(\A:*. \x:A. x) N M")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == r"(\A:*. \x:A. x) N M"
    assert lines[-1].endswith("M")
    assert len(lines) == 3


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--bind", "A : *", "A")
    assert code == EXIT_OK and out.strip() == "constructor (a type)"
    code, out, _ = run(capsys, "classify", "*")
    assert out.strip() == "kind"
    code, out, _ = run(capsys, "classify", "--bind", "A : *", "--bind", "x : A", "x")
    assert out.strip() == "term"
    code, out, _ = run(capsys, "classify", "--bind", "F : * -> *", "F")
    assert code == EXIT_OK and out.strip() == "constructor"


def test_sigma_flag_gates_pairs(capsys):
    code, _, err = run(capsys, "infer", "--bind", "A : *", "--bind", "a : A", "<a, a> : Sig x:A. A")
    assert code == EXIT_PARSE_ERROR
    code, out, _ = run(
        capsys, "infer", "--sigma", "--bind", "A : *", "--bind", "a : A", "<a, a> : Sig x:A. A"
    )
    assert code == EXIT_OK and out.strip() == "Sig x:A. A"


def test_machine_format_records(capsys):
    code, out, _ = run(capsys, "infer", "--format", "machine", r"\x:*. x")
    rec = json.loads(out)
    assert rec["ok"] is True and rec["type"] == "* -> *"
    code, out, _ = run(capsys, "infer", "--format", "machine", "missing")
    rec = json.loads(out)
    assert rec["ok"] is False and code == EXIT_TYPE_ERROR


def test_machine_and_text_agree_on_failure(capsys):
    argv = ["check", "*", "*"]
    text_code, _, _ = run(capsys, *argv)
    machine_code, out, _ = run(capsys, *argv, "--format", "machine")
    assert text_code == machine_code == EXIT_TYPE_ERROR
    assert json.loads(out)["ok"] is False


def test_translate_output_rechecks(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "translate",
        "--format",
        "machine",
        "--bind",
        "A : *",
        r"\x:A. x",
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["ok"] is True
    ctx_file = tmp_path / "translated.ctx"
    ctx_file.write_text(rec["context"])
    code, out, _ = run(
        capsys,
        "check",
        "--system",
        "fomega",
        "--allow-reserved",
        "--ctx",
        str(ctx_file),
        rec["term"],
        rec["type"],
    )
    assert code == EXIT_OK and out.strip() == "ok"


def test_translate_renames_a_shadowed_kind_witness(capsys):
    # the inner A shadows the context's A, so its witness _w$A takes a prime
    code, out, _ = run(capsys, "translate", "--bind", "A : *", r"\A:*. \x:A. x")
    assert code == EXIT_OK
    term = r"(\_y1:_0. \A:*. \_w$A':_0. (\_y2:_0. \x:A. x) _w$A') (_z _0)"
    assert out == (
        "translated context:\n_0 : *\n_z : (x:*) -> x\nA : *\n_w$A : _0\n"
        f"translated term: {term}\n"
        "translated type: (A:*) -> _0 -> A -> A\n"
        f"PASS term-translation |- {term} : (A:*) -> _0 -> A -> A\n"
    )


def test_sig_is_not_a_binding_name(capsys):
    for sigma in ([], ["--sigma"]):
        code, out, err = run(capsys, "infer", *sigma, "--bind", "Sig : *", "Sig")
        assert (code, out, err) == (EXIT_PARSE_ERROR, "", "error: parse error: 1:1: bad binding name 'Sig'\n")


def test_label_erase_round_trip(capsys):
    term = r"(\A:*. \x:A. x) N M"
    code, labeled, _ = run(capsys, "label", "--bind", "N : *", "--bind", "M : N", term)
    assert code == EXIT_OK
    code, out, _ = run(capsys, "erase", labeled.strip())
    assert code == EXIT_OK
    from ptskit.syntax import parse_expr

    assert parse_expr(out.strip()) == parse_expr(term)


def test_context_file_and_bind_order(capsys, tmp_path):
    ctx_file = tmp_path / "telescope.ctx"
    ctx_file.write_text("A : *\n")
    code, out, _ = run(capsys, "infer", "--ctx", str(ctx_file), "--bind", "x : A", "x")
    assert code == EXIT_OK and out.strip() == "A"
    # out of order: the file binding must come first
    bad = tmp_path / "bad.ctx"
    bad.write_text("x : A\n")
    code, _, err = run(capsys, "infer", "--ctx", str(bad), "--bind", "A : *", "x")
    assert code == EXIT_TYPE_ERROR and "IllFormedContext" in err


def test_verify_corpus(capsys):
    code, out, _ = run(capsys, "verify", CORPUS)
    assert code == EXIT_OK
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_machine_format(capsys):
    code, out, _ = run(capsys, "verify", CORPUS, "--format", "machine")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["failures"] == 0
    assert all(json.loads(line)["ok"] for line in lines[:-1])


def test_non_positive_bounds_are_rejected_up_front(capsys):
    # verify would otherwise report a zero depth as simulation failures,
    # and infer of "*" never reduces, so its fuel was never checked
    for argv in (["verify", CORPUS], ["infer", "*"]):
        for flag, value in (("--fuel", "0"), ("--fuel", "-3"), ("--depth", "0"), ("--depth", "-3")):
            message = f"{flag[2:]} must be >= 1"
            code, out, err = run(capsys, *argv, flag, value)
            assert code == EXIT_PARSE_ERROR
            assert (out, err) == ("", f"error: {message}\n")
            code, out, err = run(capsys, *argv, flag, value, "--format", "machine")
            assert code == EXIT_PARSE_ERROR
            assert json.loads(out) == {"command": argv[0], "ok": False, "error": message}
            assert err == ""


def test_verify_sigma_corpus(capsys):
    code, out, _ = run(capsys, "verify", "corpus/sigma", "--sigma")
    assert code == EXIT_OK


def test_verify_reports_failures(capsys, tmp_path):
    (tmp_path / "bad.judg").write_text("ctx:\n\nterm:\nx y z\n")
    code, out, _ = run(capsys, "verify", str(tmp_path))
    assert code == EXIT_REPORT_FAILED
    assert "FAIL" in out


def test_spec_file_system(capsys, tmp_path):
    spec = tmp_path / "stlc-again.pts"
    spec.write_text("# simply typed\nsort *\nsort #\naxiom * #\nrule * * *\n")
    code, out, _ = run(capsys, "infer", "--system", str(spec), "--bind", "A : *", r"\x:A. x")
    assert code == EXIT_OK and out.strip() == "A -> A"
    code, _, _ = run(capsys, "infer", "--system", str(spec), r"\A:*. A")
    assert code == EXIT_TYPE_ERROR


def test_non_functional_spec_file_is_a_bad_spec(capsys, tmp_path):
    spec = tmp_path / "two-axioms.pts"
    spec.write_text("sort *\nsort #\naxiom * #\naxiom * *\nrule * * *\nrule * * #\n")
    code, _, err = run(capsys, "infer", "--system", str(spec), r"\x:*. x")
    assert code == EXIT_PARSE_ERROR
    assert err.strip() == "error: bad spec: not functional: several axioms for sort *"


def test_translate_rejects_sigma_terms(capsys):
    code, _, err = run(
        capsys, "translate", "--sigma", "--bind", "A : *", "--bind", "a : A", "<a, a> : Sig x:A. A"
    )
    assert code == EXIT_PARSE_ERROR
    assert "core CC" in err


def test_translate_checks_the_context_first(capsys):
    # like check, infer, classify and label: an ill-formed context is a
    # type error reported before anything is translated
    cases = [
        (["--bind", "A : *", "--bind", "A : *", "A"], "IllFormedContext: duplicate binding for 'A'"),
        (
            ["--bind", "x : y", "*"],
            "IllFormedContext: binding x : y is ill-formed (UnboundVariable: unbound variable y)",
        ),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, "translate", *argv)
        assert code == EXIT_TYPE_ERROR
        assert out == "" and err.strip() == f"error: {message}"
        code, out, _ = run(capsys, "translate", "--format", "machine", *argv)
        assert code == EXIT_TYPE_ERROR
        assert json.loads(out) == {"command": "translate", "error": message, "ok": False}


def test_translate_rejects_sigma_anywhere(capsys):
    # a Sig type in the context or under an application is refused like a top-level pair
    message = "the translation covers core CC only, not the sigma extension"
    cases = [
        ["--bind", "A : *", "--bind", "p : Sig x:A. A", "p"],
        ["--bind", "A : *", "--bind", "a : A", "--bind", "f : (Sig x:A. A) -> A", "f (<a, a> : Sig x:A. A)"],
    ]
    for argv in cases:
        code, out, err = run(capsys, "translate", "--sigma", *argv)
        assert code == EXIT_PARSE_ERROR
        assert out == "" and err.strip() == f"error: {message}"
        code, out, _ = run(capsys, "translate", "--sigma", "--format", "machine", *argv)
        assert code == EXIT_PARSE_ERROR
        assert json.loads(out) == {"command": "translate", "error": message, "ok": False}


def test_translate_checks_cc_typing_under_a_spec_file(capsys, tmp_path):
    # a term that types in the given system but not in CC is a type error, not translated
    spec = tmp_path / "type-in-type.spec"
    spec.write_text("sort *\naxiom * *\nrule * * *\n")
    code, out, err = run(capsys, "translate", "--system", str(spec), r"(\A:*. A) *")
    assert code == EXIT_TYPE_ERROR
    assert out == "" and err.strip() == r"error: Mismatch: argument of \A:*. A: # is not convertible with *"
    code, out, _ = run(capsys, "translate", "--system", str(spec), r"\A:*. A")
    assert code == EXIT_OK and "PASS type-translation |- \\A:*. A : * -> *" in out


def test_erase_rejects_unlabeled_input(capsys):
    code, _, err = run(capsys, "erase", r"\x:N. x")
    assert code == EXIT_PARSE_ERROR


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ptskit", "normalize", r"(\x:*. x) y"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "y"


def test_output_does_not_follow_the_hash_seed():
    # free-name masks take their bits from hash(str), which PYTHONHASHSEED
    # changes; they only let walks skip subterms, so no byte may depend on them
    import ptskit

    src = os.path.dirname(os.path.dirname(os.path.abspath(ptskit.__file__)))
    root = os.path.dirname(src)
    nest = r"\A:*. " + "".join(rf"\x{i}:A. " for i in range(16)) + "x0"
    # a kind binder that shadows a context name is renamed: its companion prints as _w$A'
    renamed = ["translate", "--bind", "A : *", r"\A:*. \x:A. x"]
    commands = [["verify", CORPUS], ["label", nest], ["translate", nest], renamed]

    def runs(seed):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        procs = [subprocess.run([sys.executable, "-m", "ptskit", *argv], capture_output=True, cwd=root, env=env) for argv in commands]
        return [(proc.returncode, proc.stdout) for proc in procs]

    first = runs("1")
    assert [code for code, _ in first] == [EXIT_OK] * len(commands)
    assert runs("2") == first


def test_nesting_past_recursion_limit_is_a_resource_limit(capsys):
    # the normal form, Church numeral 1600, nests deeper than the interpreter allows
    nat = "(A:*) -> (A -> A) -> A -> A"
    forty = r"\A:*. \f:A -> A. \x:A. " + "f (" * 40 + "x" + ")" * 40
    mult = rf"(\m:{nat}. \n:{nat}. \A:*. \f:A -> A. m A (n A f)) ({forty}) ({forty})"
    message = "input nesting exceeds the supported depth"
    code, out, err = run(capsys, "normalize", mult)
    assert code == EXIT_EXHAUSTED
    assert (out, err) == ("", f"error: {message}\n")
    code, out, err = run(capsys, "normalize", "--format", "machine", mult)
    assert code == EXIT_EXHAUSTED
    assert json.loads(out) == {"command": "normalize", "ok": False, "error": message}
    assert err == ""


def test_a_500_deep_spine_is_not_a_resource_limit(capsys):
    # the parser keeps its own stack, so this spine no longer exits 3
    spine = "f (" * 499 + "f x" + ")" * 499
    code, out, err = run(capsys, "infer", "--bind", "A : *", "--bind", "f : A -> A", "--bind", "x : A", spine)
    assert (code, out, err) == (EXIT_OK, "A\n", "")


# Its argument type N reaches the lambda's annotation in two tight steps.
CONV_TERM = r"(\x:(\B:*. B) ((\C:*. C) N). x) M"
CONV_ERROR = (
    "DirectedConversionUndetermined: argument type N does not reduce to or from "
    r"(\[B : * -> *] B : * . B) @[B : * -> *] ((\[C : * -> *] C : * . C) @[C : * -> *] N)"
)


def test_depth_reaches_labeled_conversion_in_label(capsys):
    bind = ["--bind", "N : *", "--bind", "M : N"]
    code, out, err = run(capsys, "label", "--depth", "1", *bind, CONV_TERM)
    assert (code, out, err) == (EXIT_EXHAUSTED, "", f"error: {CONV_ERROR}\n")
    code, out, err = run(capsys, "label", "--depth", "1", "--format", "machine", *bind, CONV_TERM)
    assert code == EXIT_EXHAUSTED and err == ""
    assert json.loads(out) == {"command": "label", "ok": False, "error": CONV_ERROR}
    code, out, _ = run(capsys, "label", "--depth", "2", *bind, CONV_TERM)
    assert code == EXIT_OK and out.startswith(r"(\[x : ")
    code, out, _ = run(capsys, "label", "--depth", "2", "--format", "machine", *bind, CONV_TERM)
    assert code == EXIT_OK and json.loads(out)["ok"] is True


def test_depth_reaches_labeled_conversion_in_verify(capsys, tmp_path):
    (tmp_path / "conv.judg").write_text(f"ctx:\nN : *\nM : N\n\nterm:\n{CONV_TERM}\n")
    subject = f"conv.judg: {CONV_TERM}"
    code, out, _ = run(capsys, "verify", str(tmp_path), "--depth", "1")
    assert code == EXIT_REPORT_FAILED
    lines = out.splitlines()
    # a labeled-typing failure is one tight-erasure line, after the round trip's PASS
    assert lines[-3:-1] == [f"PASS labeled-roundtrip {subject}", f"FAIL tight-erasure {subject} ({CONV_ERROR})"]
    code, out, _ = run(capsys, "verify", str(tmp_path), "--depth", "1", "--format", "machine")
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-2] == {"ok": False, "check": "tight-erasure", "detail": f"{subject} ({CONV_ERROR})"}
    assert [r["check"] for r in records[:-1]].count("labeled-roundtrip") == 1
    code, out, _ = run(capsys, "verify", str(tmp_path), "--depth", "2")
    assert f"PASS tight-erasure {subject}" in out.splitlines()
    code, out, _ = run(capsys, "verify", str(tmp_path), "--depth", "2", "--format", "machine")
    assert {"ok": True, "check": "tight-erasure", "detail": subject} in [json.loads(line) for line in out.splitlines()]


def test_an_ill_typed_annotation_is_a_type_error_before_any_reduction(capsys):
    # the annotation's head self-applies a type; reducing it first would
    # run out of fuel instead of reporting the error
    term = r"\x:((\y:*. y y) (\y:*. y y)). x x"
    not_a_function = "NotAFunction: y has type *, which is not a function type"
    for argv in (["infer", term], ["check", term, "*"], ["classify", term], ["label", term]):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_TYPE_ERROR and not_a_function in err, argv
    code, _, err = run(capsys, "infer", "--sigma", r"<*, *> : ((\y:*. y y) (\y:*. y y))")
    assert code == EXIT_TYPE_ERROR and not_a_function in err


def test_infer_and_label_report_the_annotation_error_first(capsys):
    for term in (r"\z:a. (A A)", "(x:a) -> x x"):
        for command in ("infer", "label"):
            code, _, err = run(capsys, command, "--bind", "A : *", "--bind", "a : A", term)
            assert code == EXIT_TYPE_ERROR, (command, term)
            assert err.strip() == "error: SortUntypeable: a is classified by A, not a sort", (command, term)


def test_malformed_bindings_are_parse_errors(capsys):
    for binding, message in (
        ("x", "expected 'name : type'"),
        ("1x : *", "bad binding name '1x'"),
        ("x : ((", "in binding 'x'"),
    ):
        code, _, err = run(capsys, "infer", "--bind", binding, "*")
        assert code == EXIT_PARSE_ERROR and message in err, binding
    # an error in a binding's type is placed in the joined context's lines
    code, _, err = run(capsys, "infer", "--bind", "A : *", "--bind", "  x :  A @", "x")
    assert code == EXIT_PARSE_ERROR
    assert err == "error: parse error: 2:10: in binding 'x': unexpected trailing input '@'\n"
    # a malformed binding at its first non-blank column
    for binding, message in (("  1x : *", "2:3: bad binding name '1x'"), ("   x", "2:4: expected 'name : type'")):
        code, _, err = run(capsys, "infer", "--bind", "A : *", "--bind", binding, "*")
        assert (code, err) == (EXIT_PARSE_ERROR, f"error: parse error: {message}\n"), binding


def test_typing_and_translation_name_a_binder_alike(capsys, monkeypatch):
    # a binder that shadows a context name gets the same primed name in a
    # translation's companion and in a typing error: both come from Scope.name
    from ptskit.syntax import Scope

    named = []
    name = Scope.name
    monkeypatch.setattr(Scope, "name", lambda self, k: named.append(type(self).__name__) or name(self, k))
    code, out, _ = run(capsys, "translate", "--bind", "A : *", r"\A:*. \x:A. x")
    assert code == EXIT_OK and r"\_w$A':_0. " in out
    code, _, err = run(capsys, "infer", "--bind", "A : *", r"\A:*. \x:A. x x")
    assert (code, err) == (EXIT_TYPE_ERROR, "error: NotAFunction: x has type A', which is not a function type\n")
    assert set(named) == {"_Walk", "_Scope"}


def test_one_default_search_depth():
    import ast
    import inspect

    from ptskit.cli import build_parser
    from ptskit.corpus import run_report
    from ptskit.labeled import labeled_infer
    from ptskit.reduction import DEFAULT_DEPTH
    from ptskit.translate import check_reduction_preservation
    from ptskit.typecheck import _Scope, directed_convertible

    defaults = [build_parser().parse_args(["verify", CORPUS]).depth]
    for f, name in (
        (run_report, "depth"),
        (check_reduction_preservation, "max_depth"),
        (directed_convertible, "depth"),
        (labeled_infer, "conv_depth"),
        (_Scope, "depth"),
    ):
        defaults.append(inspect.signature(f).parameters[name].default)
    assert defaults == [DEFAULT_DEPTH] * 6 and DEFAULT_DEPTH == 12
    # the value is written out once, where the constant is defined
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "ptskit")
    written = []
    for module in sorted(os.listdir(src)):
        if module.endswith(".py"):
            with open(os.path.join(src, module), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            written += [(module, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == 12]
    assert [module for module, _ in written] == ["reduction.py"]
