"""Exact-arithmetic toolkit for gap-p Virasoro algebras.

Brackets and anti-involutions, PBW straightening on Verma modules,
contravariant Gram forms with exact definiteness verdicts, the oscillator
realization, modules of intermediate series, and unitarity classification,
all over the Gaussian rationals.
"""

__version__ = "0.1.0"

from .algebra import AntiInvolution, Element, GapVirasoro, Gen
from .forms import DefinitenessVerdict, GramMatrix, definiteness, gram, phi_virasoro
from .scalars import Scalar, scalar, sign_of_real
from .series import FMatrix, SeriesModule, series_predicates, validate_f
from .unitarity import (classify, discrete_series, heisenberg_condition,
                        highest_weight_unitary, lowest_weight_dualize,
                        unitarity_oracle, unitarity_verdict)
from .verma import (HighestWeight, ModuleVector, PBWMonomial, Sector,
                    VermaModule, partition_count)
from .oscillator import (OscillatorModule, shifted_weight,
                         virasoro_relation_check)

__all__ = [
    "AntiInvolution", "DefinitenessVerdict", "Element", "FMatrix",
    "GapVirasoro", "Gen", "GramMatrix", "HighestWeight", "ModuleVector",
    "OscillatorModule", "PBWMonomial", "Scalar", "Sector",
    "SeriesModule", "VermaModule", "classify", "definiteness",
    "discrete_series", "gram", "heisenberg_condition",
    "highest_weight_unitary", "lowest_weight_dualize", "partition_count",
    "phi_virasoro", "scalar",
    "series_predicates", "shifted_weight", "sign_of_real",
    "unitarity_oracle", "unitarity_verdict", "validate_f",
    "virasoro_relation_check",
]
