"""Workbench for a four-mode logic of proofs and refutations: parse,
type-check, normalize, and classify proof terms; translate them into
System F with recursive type constraints; evaluate and search finite
Kripke models; and compile classical natural-deduction proofs into
terms whose computational behaviour can be observed.  Each exported name
is imported from its home module on first use (PEP 562)."""

from importlib import import_module

_EXPORTS = {
    "syntax": "And MProp Mode Neg Or PVar PureProp Term dual fv measure opposite substitute truncate",
    "surface": "parse_mprop parse_term print_mprop print_term",
    "typecheck": "Context Derivation check_type infer_type mk_abs_general mk_contrapose mk_lem "
                 "project_derivation",
    "rewrite": "ETA PLAIN classify normalize step",
    "systemf": "check_simulation f_infer f_normalize f_step ftype_equiv polarity translate_prop "
               "translate_term",
    "kripke": "KripkeModel countermodel_search entails_in_model enumerate_models forces validate_model",
    "classical": "classem decide_oplus embed_nk run_classical_rule tt_valid",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_HOME, *_EXPORTS, "errors"])


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOME.get(name, name)}", __name__)
    return globals().setdefault(name, getattr(module, name) if name in _HOME else module)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
