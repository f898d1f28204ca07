"""Collapsing constructions and rate functionals on the torus."""

from .lattice import (
    OrderedTuple,
    PointConfig,
    TorusConfig,
    class_label_encode,
    validate_ordered,
)
from .measures import (
    ClosedArc,
    CumulativeFunction,
    PlateauDecomposition,
    TorusMeasure,
    concave_envelope,
    envelope_density,
    measure_leq,
)
from .collapse import (
    CollapseError,
    FluxProfile,
    JInterval,
    collapse_discrete,
    collapse_discrete_algorithmic,
    collapse_k,
    collapse_measure,
    collapse_points,
    commutation_check,
)

__version__ = "0.1.0"
