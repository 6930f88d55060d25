"""Maximally recoverable local reconstruction codes over small fields.

Subpackages build up from exact finite-field towers (:mod:`mrlrc.gf`)
through dense linear algebra (:mod:`mrlrc.linalg`), component codes
(:mod:`mrlrc.codes`) and subspace direct sum systems (:mod:`mrlrc.sdss`)
to the MR code constructions, exhaustive verification and erasure codec
in :mod:`mrlrc.mr`.  :mod:`mrlrc.fileio` holds the text formats and
:mod:`mrlrc.cli` the command-line front end.
"""

from .gf import Field, FieldTower, make_tower
from .linalg import FieldMatrix
from .mr import (
    MrCodeSpec,
    MrParityCheck,
    build_concatenated,
    build_direct,
    encode,
    erase_decode,
    generator_from_parity,
    verify_mr,
    verify_mr_structured,
)
from .sdss import (
    SubspaceSystem,
    bounds,
    gv_greedy,
    mds_construct,
    subfield_construct,
    verify_direct_sum,
)

__all__ = [
    "Field",
    "FieldTower",
    "FieldMatrix",
    "MrCodeSpec",
    "MrParityCheck",
    "SubspaceSystem",
    "bounds",
    "build_concatenated",
    "build_direct",
    "encode",
    "erase_decode",
    "generator_from_parity",
    "gv_greedy",
    "make_tower",
    "mds_construct",
    "subfield_construct",
    "verify_direct_sum",
    "verify_mr",
    "verify_mr_structured",
]
