"""The package's lazy exports, and the modules each entry point loads.

The load checks run in a fresh interpreter: what a test process has
imported already says nothing about what one command loads.  They
check sys.modules, not time.
"""

import importlib
import subprocess
import sys

import pytest

import primesums


def loaded(code):
    """The names in sys.modules after code runs in a fresh interpreter."""
    report = "\nimport sys\nprint(*sorted(sys.modules), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", code + report], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_import_loads_no_submodule():
    assert not [m for m in loaded("import primesums") if m.startswith("primesums.")]


def test_a_name_loads_only_its_module_and_what_that_imports():
    modules = loaded("import primesums\nprimesums.build")
    assert {"primesums.prefix", "primesums.sieve", "primesums.arith"} <= modules
    assert not modules & {"primesums.bounds", "primesums.duplicates", "decimal", "numpy"}


HEAVY = {"decimal", "numpy", "primesums.bounds", "primesums.duplicates", "primesums.enumeration"}


@pytest.mark.parametrize("argv, unloaded", [
    (["enumerate", "--k", "2", "--x", "1e6"], HEAVY),
    (["count", "--k", "2", "--x", "1e6"], HEAVY),
    # the float decides every floor of this table, so decimal stays out
    (["table", "--k", "3", "--from", "1e3", "--to", "1e9"], {"decimal", "numpy", "primesums.duplicates"}),
    (["bounds", "--k", "2", "--x", "1e15"], {"numpy", "primesums.duplicates"}),
], ids=["enumerate", "count", "table", "bounds"])
def test_a_command_loads_only_the_modules_it_runs(argv, unloaded):
    modules = loaded(f"from primesums.cli import main\nassert main({argv!r}) == 0")
    assert "primesums.counting" in modules
    assert not modules & unloaded


def test_every_export_is_its_defining_modules_object():
    for name in primesums.__all__:
        value = getattr(primesums, name)
        home = getattr(value, "__module__", "primesums.arith")  # UINT64_MAX and UINT128_MAX are ints
        assert getattr(importlib.import_module(home), name) is value, name


def test_dir_covers_all():
    assert set(primesums.__all__) <= set(dir(primesums))
    assert "__version__" in dir(primesums)


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'primesums' has no attribute 'no_such_name'"):
        primesums.no_such_name
    assert not hasattr(primesums, "prefix_sums")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from primesums import *", namespace)
    assert {name: namespace[name] for name in primesums.__all__} \
        == {name: getattr(primesums, name) for name in primesums.__all__}
