"""shiftop: invertibility criteria and spectra for binomial functional
operators A = a*I - b*W with a diffeomorphic shift on the circle."""

from .exprlang import (Expr, ExprError, ParseError, EvalDomainError, parse,
                       serialize, evaluate, differentiate, find_zeros)
from .circle import (Arc, GammaArc, Shift, PeriodicStructure, StructureError,
                     NoPeriodicStructureError, wrap, circle_dist,
                     detect_orientation_and_multiplicity,
                     compute_periodic_structure, orbit_limit_endpoints)
from .indices import SpaceIndices, space_indices, lebesgue, associate_indices
from .analysis import (OperatorSpec, operator_spec, GammaPartition,
                       InvertibilityReport, orbit_product, eta_values,
                       eta_limits, build_partition, sigma_A, check_R, check_L,
                       decide, adjoint_spec, reduce_to_fixed)
from .spectrum import (Annulus, SpectrumSet, radius_bound,
                       shift_spectrum, one_sided_core_annuli, spectrum_contains,
                       spectrum_to_csv)
from .oracle import (GridOperator, discretize, weighted_shift_grid,
                     estimate_radius_numeric, invertibility_evidence,
                     neumann_apply)

__version__ = "0.1.0"
