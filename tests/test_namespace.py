"""`import charvar` is lazy and binds what the eager package did.

The package namespace resolves each name on first access (PEP 562).  These
tests pin it to the names the eager `__init__` bound: the public names, keyed
by the module that defines them, the seven submodules and `__version__`.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import charvar

ROOT = pathlib.Path(__file__).parent.parent

PUBLIC = {
    "bounds": ("CodimReport", "SingularLocusReport", "Verdict", "c_pasbon_lower",
               "classify_singular_locus", "codim_bad_lower", "codim_red_lower",
               "codim_report", "stable_range"),
    "errors": ("CharvarError",),
    "groups": ("FgAbelianGroup", "GroupDescriptor", "Isogeny", "center_group", "is_ci",
               "min_simple_rank", "parse_group"),
    "homotopy": ("HomotopyDatabase", "HomotopyResult", "Validity", "good_locus_homotopy",
                 "load_database", "pi_group", "pi_simple"),
    "localmodel": ("HomologySupport", "WeightProfile", "homology_support", "is_sphere_like",
                   "is_topologically_singular", "parabolic_weights"),
    "rootsys": ("SimpleType", "dimension", "highest_root"),
    "subalg": ("BdSRecord", "LeviRecord", "bds_table", "levi_table", "min_bds_codim",
               "min_levi_codim"),
}
# what `from charvar import *` bound: every public name and every submodule
STAR = {*PUBLIC, *(name for names in PUBLIC.values() for name in names)}

# Run in a fresh interpreter, so each name goes through the lazy path once.
CHILD = """
import importlib, json, sys
import charvar

report = {"loaded": sorted(m for m in sys.modules if m.startswith("charvar.")),
          "dir": dir(charvar), "version": charvar.__version__, "differ": []}
for module, names in json.loads(sys.argv[1]).items():
    if getattr(charvar, module) is not importlib.import_module("charvar." + module):
        report["differ"].append(module)
    for name in names:
        if getattr(charvar, name) is not getattr(sys.modules["charvar." + module], name):
            report["differ"].append(name)
star = {}
exec("from charvar import *", star)
report["star"] = sorted(set(star) - {"__builtins__"})
report["dir_after"] = dir(charvar)
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def fresh():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(PUBLIC)],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_submodule(fresh):
    assert fresh["loaded"] == []


def test_every_name_is_the_object_its_module_defines(fresh):
    assert fresh["differ"] == []


def test_version_is_the_project_version(fresh):
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert fresh["version"] == re.search(r'^version = "(.+)"$', pyproject, re.M)[1]


def test_star_import_binds_the_eager_names(fresh):
    assert set(fresh["star"]) == STAR


@pytest.mark.parametrize("when", ["dir", "dir_after"])
def test_dir_lists_the_eager_names(fresh, when):
    names = set(fresh[when])
    assert {n for n in names if not n.startswith("_")} == STAR
    assert "__version__" in names


def test_unknown_name_names_module_and_attribute():
    with pytest.raises(AttributeError, match=r"^module 'charvar' has no attribute 'levi'$"):
        charvar.levi
