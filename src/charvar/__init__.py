"""Exact computational Lie theory for free-group character varieties.

Modules:
  rootsys    - simple types and their root data in closed form
  groups     - reductive group descriptors, centers, CI decision
  subalg     - Levi and Borel-de Siebenthal subalgebra tables
  bounds     - codimension lower bounds and singular-locus report
  homotopy   - pi_k of simple and reductive groups and of the good locus
  localmodel - slice weight profiles and link homology support
  cli        - command-line front end

`import charvar` loads none of them.  The package namespace is lazy
(PEP 562): the first access to a public name imports the module that
defines it and binds the name here, so `charvar.levi_table` loads
`subalg` and what it imports, and nothing else.  Each submodule is also
reachable as an attribute, and `from charvar import *` loads them all.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names, keyed by the module that defines them.
_PUBLIC = {
    "bounds": (
        "CodimReport",
        "SingularLocusReport",
        "Verdict",
        "c_pasbon_lower",
        "classify_singular_locus",
        "codim_bad_lower",
        "codim_red_lower",
        "codim_report",
        "stable_range",
    ),
    "errors": ("CharvarError",),
    "groups": (
        "FgAbelianGroup",
        "GroupDescriptor",
        "Isogeny",
        "center_group",
        "is_ci",
        "min_simple_rank",
        "parse_group",
    ),
    "homotopy": (
        "HomotopyDatabase",
        "HomotopyResult",
        "Validity",
        "good_locus_homotopy",
        "load_database",
        "pi_group",
        "pi_simple",
    ),
    "localmodel": (
        "HomologySupport",
        "WeightProfile",
        "homology_support",
        "is_sphere_like",
        "is_topologically_singular",
        "parabolic_weights",
    ),
    "rootsys": ("SimpleType", "dimension", "highest_root"),
    "subalg": (
        "BdSRecord",
        "LeviRecord",
        "bds_table",
        "levi_table",
        "min_bds_codim",
        "min_levi_codim",
    ),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_PUBLIC, *_OWNER]


def __getattr__(name):
    if name in _PUBLIC:
        # importing a submodule binds it in this namespace
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    # every public name, loaded or not, and the module dunders; not the helpers above
    bound = (n for n in globals() if n.startswith("__") or not n.startswith("_"))
    return sorted({*bound, *__all__})
