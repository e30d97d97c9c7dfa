"""The package's public names: `import prk` loads no module, and each name
is the object of its home module, loaded when first used."""

import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import prk

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The names `prk` has exported since the seed commit, by home module.
HOMES = {
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
MODULES = [*HOMES, "errors"]


def _fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports prk from this checkout; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(prk.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          check=True, env=env).stdout


def test_all_is_the_seed_names():
    names = [name for names in HOMES.values() for name in names.split()] + MODULES
    assert len(names) == 58
    assert prk.__all__ == sorted(names)


def test_import_prk_loads_no_submodule_and_dir_lists_every_name():
    out = _fresh("import sys, prk\n"
                 "print(sorted(m for m in sys.modules if m.startswith('prk')))\n"
                 "print(sorted(set(prk.__all__) - set(dir(prk))))\n"
                 "print(sorted(m for m in sys.modules if m.startswith('prk')))")
    assert out.splitlines() == ["['prk']", "[]", "['prk']"]


def test_each_name_is_the_object_in_its_home_module():
    for module, names in HOMES.items():
        home = importlib.import_module(f"prk.{module}")
        assert getattr(prk, module) is home
        for name in names.split():
            assert getattr(prk, name) is getattr(home, name), name
    assert prk.errors is importlib.import_module("prk.errors")
    namespace = {}
    exec("from prk import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == prk.__all__
    assert all(namespace[name] is getattr(prk, name) for name in prk.__all__)


def test_a_name_not_exported_is_an_attribute_error():
    out = _fresh("import sys, prk\n"
                 "print(hasattr(prk, 'counter_model_lem'), hasattr(prk, 'gen'))\n"
                 "from prk import gen\n"
                 "print(gen is sys.modules['prk.gen'])")
    assert out.splitlines() == ["False False", "True"]


def test_the_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "from prk import *" in tour
    # a fresh interpreter, so the tour's names are loaded on first use
    assert _fresh(tour + "print(forces(counter_model_lem(), 'w0', p))\n") == "True\n"


def test_every_module_level_cache_keeps_a_stated_number_of_entries():
    found = {}
    for info in pkgutil.iter_modules(prk.__path__):
        module = importlib.import_module(f"prk.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                found[name] = value.cache_parameters()["maxsize"]
    assert {"_shared_leaf", "translate_prop", "funabs", "_shaped_orders", "_order_tables"} <= set(found)
    assert None not in found.values(), found


def test_every_record_class_is_built_by_frozen():
    from prk.syntax import Frozen
    records = set()
    for info in pkgutil.iter_modules(prk.__path__):
        module = importlib.import_module(f"prk.{info.name}")
        records |= {value for value in vars(module).values()
                    if isinstance(value, type) and hasattr(value, "__dataclass_fields__")}
    assert {"Mode", "MProp", "Derivation", "KripkeModel"} <= {cls.__name__ for cls in records}
    for cls in records:
        assert isinstance(cls, Frozen), cls


def test_loading_the_checking_layers_compiles_few_generated_functions():
    # counted, not timed: each compile of generated source (filename "<string>") costs start-up,
    # and no bytecode cache keeps it.  Frozen compiles one exec per class, and dataclass() none
    # for it; dataclass(frozen=True) generated five functions per class, 109 compiles in all on
    # Python 3.11, and 22 while Mode stayed a dataclass: 18 now.  From 3.13 on, dataclass()
    # compiles one empty builder per call.
    out = _fresh("import argparse, dataclasses, sys\n"
                 "n = []\n"
                 "sys.addaudithook(lambda e, a: n.append(a) if e == 'compile' and a[1] == '<string>' else None)\n"
                 "import prk.syntax, prk.surface, prk.typecheck\n"
                 "print(len(n), len(prk.syntax._VALUES))")
    compiles, classes = map(int, out.split())
    assert compiles <= 26 + (classes if sys.version_info >= (3, 13) else 0), compiles
