"""The package surface: what `import rgupzeeman` exports, resolved lazily."""

import os
import subprocess
import sys

import pytest

import rgupzeeman


def test_every_export_is_its_home_modules_object():
    for name in rgupzeeman.__all__:
        value = getattr(rgupzeeman, name)
        if name == "__version__":
            continue
        home = value.__module__
        assert home.startswith("rgupzeeman."), name
        assert value is getattr(sys.modules[home], name), name


def test_star_import_binds_exactly_all_and_dir_lists_it():
    namespace = {}
    exec("from rgupzeeman import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rgupzeeman.__all__)
    assert set(rgupzeeman.__all__) <= set(dir(rgupzeeman))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rgupzeeman.no_such_name  # noqa: B018
    assert not hasattr(rgupzeeman, "no_such_name")


def test_a_bare_import_runs_no_submodule_until_a_name_is_read():
    script = (
        "import sys\n"
        "import rgupzeeman\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('rgupzeeman.'))\n"
        "assert loaded() == [], loaded()\n"
        "assert set(rgupzeeman.__all__) <= set(dir(rgupzeeman))\n"
        "assert loaded() == [], loaded()\n"
        "assert rgupzeeman.spectrum.Regime is rgupzeeman.Regime\n"
        "assert loaded() == ['rgupzeeman.spectrum', 'rgupzeeman.units'], loaded()\n"
        "assert rgupzeeman.make_params is rgupzeeman.units.make_params\n"
        "assert rgupzeeman.oracle.p2_closed_form\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_units_is_the_leaf_module():
    # units imports no other rgupzeeman module, so dispersion, which imports
    # units, also loads first in a fresh interpreter
    loaded = "sorted(m for m in sys.modules if m.startswith('rgupzeeman.'))"
    for module, expected in (("units", ["rgupzeeman.units"]),
                             ("dispersion", ["rgupzeeman.dispersion", "rgupzeeman.units"])):
        script = (f"import sys, rgupzeeman.{module}\n"
                  f"assert {loaded} == {expected!r}, {loaded}\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert proc.returncode == 0, proc.stderr
