"""The package's public names are listed once, in each module's `__all__`,
and `fatiguekit` exports exactly their union."""

import importlib

import fatiguekit

MODULES = ("errors", "features", "kstore", "pipeline", "qualify", "rules", "scenario",
           "signals")


def test_package_exports_each_name_once():
    assert len(fatiguekit.__all__) == len(set(fatiguekit.__all__))


def test_each_module_name_is_defined_there_and_exported_as_itself():
    exported = []
    for name in MODULES:
        module = importlib.import_module(f"fatiguekit.{name}")
        for public in module.__all__:
            assert public in vars(module), f"{name}.{public}"
            # the same object, so a submodule never shadows a name, as the
            # module fatiguekit.qualify would the function qualify
            assert getattr(fatiguekit, public) is vars(module)[public], f"{name}.{public}"
        exported += module.__all__
    assert sorted(exported) == sorted(fatiguekit.__all__)
