"""Spectral-set optimization over Fan-Theobald-von Neumann systems."""

from .core import (AxiomReport, CommutationCert, DimensionMismatch, ElementV,
                   FtvnError, FtvnInstance, MonotonicityError, WitnessError,
                   axiom_suite, commute_check, cone_sum_witness, get_instance,
                   lambda_tilde, norm_sublinearity_gap, registered_instances,
                   register_instance, sublinearity_gap)
from . import eja, hyperbolic, nds  # noqa: F401  (instance registration)
from .eja import (JordanAlgebra, algebra_from_name,
                  idempotent_orbit_max, majorization_check,
                  operator_commute_check, q_cap_qdown, sigma_orbit, sort_desc)
from .hyperbolic import (CompletenessReport, HyperbolicPolynomial,
                         IsometricReport, NonHyperbolicError,
                         completeness_check, coordinate_product_polynomial,
                         det_sym_polynomial, hyperbolic_from_json,
                         isometric_falsify)
from .nds import (RectMatrixSpace, SubspacePseudoInstance, rotation_instance,
                  z_counterexample_instance)
from .reduce import (DistanceObjective, IntervalImage, LinearObjective,
                     LocalMinReport, MaxAffineObjective, SolveReport,
                     SubdiffReport, VIReport, envelope_lower_affine,
                     envelope_lower_exact, envelope_upper, hausdorff_spectral,
                     interval_image, local_min_commutation_check, orbit_distance,
                     orbit_linear, orbit_min, reduce_solve, reduce_solve_distance,
                     reduce_solve_linear, subdiff_min_commutation_check,
                     vi_commutation_check)
from .spectral_sets import (Combiner, FiniteSet, GridOracle, OrbitOf,
                            OrderedPolyhedron, PRODUCT, SpectralFunctionSpec,
                            SUM, ZERO_FN, neg_logdet_fn, table_fn)

__version__ = "0.1.0"
