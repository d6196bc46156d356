"""Exact computational Lie theory for free-group character varieties.

Modules:
  rootsys    - simple types and their root data in closed form
  groups     - reductive group descriptors, centers, CI decision
  subalg     - Levi and Borel-de Siebenthal subalgebra tables
  bounds     - codimension lower bounds and singular-locus report
  homotopy   - pi_k of simple and reductive groups and of the good locus
  localmodel - slice weight profiles and link homology support
  cli        - command-line front end
"""

from .bounds import (
    CodimReport,
    SingularLocusReport,
    Verdict,
    c_pasbon_lower,
    classify_singular_locus,
    codim_bad_lower,
    codim_red_lower,
    codim_report,
    stable_range,
)
from .errors import CharvarError
from .groups import (
    FgAbelianGroup,
    GroupDescriptor,
    Isogeny,
    center_group,
    is_ci,
    min_simple_rank,
    parse_group,
)
from .homotopy import (
    HomotopyDatabase,
    HomotopyResult,
    Validity,
    good_locus_homotopy,
    load_database,
    pi_group,
    pi_simple,
)
from .localmodel import (
    HomologySupport,
    WeightProfile,
    homology_support,
    is_sphere_like,
    is_topologically_singular,
    parabolic_weights,
)
from .rootsys import SimpleType, dimension, highest_root
from .subalg import (
    BdSRecord,
    LeviRecord,
    bds_table,
    levi_table,
    min_bds_codim,
    min_levi_codim,
)

__version__ = "0.1.0"
