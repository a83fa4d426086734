"""A parameterized pure type system kernel.

Type-checks and normalizes terms of STLC, System F, F-omega and CC,
translates CC into F-omega with dependency erasure, and ships
executable checks for the metatheory the translation relies on.

Importing the package loads none of its modules: each public name is
looked up in the module that defines it when it is first read (PEP 562),
so a command loads only the code it runs.
"""

_EXPORTS = {
    "syntax": """BOX BUILTIN_SPECS CC FOMEGA STAR STLC SYSTEM_F App BVar Context Expr LApp LLam LPi LSort
        LVar LabeledExpr Lam Pair ParseError Pi Proj1 Proj2 PtsSpec Sigma SortE Var close_binder
        free_vars open_binder parse_context parse_expr parse_labeled print_context print_expr print_labeled
        subst""",
    "reduction": """DEFAULT_FUEL UNDETERMINED FuelExhausted StepTrace beta_eq key_redex_of
        normalize reachable reduce_key_redex step_all trace whnf""",
    "typecheck": """Classification ErrorKind GammaConstructor GammaTerm Kind TypeCheckError check_type
        classify infer_type load_spec_file parse_spec_text resolve_spec wf_context""",
    "translate": """CheckEntry TransEnv canonical_inhabitant check_reduction_preservation
        check_subst_lemmas check_translation erase_kind translate_context translate_term translate_type""",
    "labeled": "LabeledContext erase label_context label_term labeled_infer tight_step_all",
    "corpus": "Judgement load_corpus_dir load_judgement_file parse_judgement run_report",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # importing a submodule binds it on the package; a name is bound on first read
    value = import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
