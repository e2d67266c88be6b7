"""Desk-scale numerical lab for time averages of measure-preserving flows,
conditional expectations, and the processes composed from them."""

from .runner import VERSION as __version__

from .spaces import (Circle, Atoms, Product, Partition, Filtration,
                     VectorNorm, circle_space, discrete_space, product_space,
                     make_dyadic_partition)
from .functions import (CircleFunction, AtomFunction, merge_sum, sawtooth,
                        hat, cascade, from_smooth, harmonic_generator)
from .fields import (PolyField, SqrtPolyField, GenericField, AtomField,
                     pointwise_norm, lp_norm, sup_norm, upper_envelope,
                     grid_sup_field)
from .flows import (GOLDEN, Flow, rotation_flow, step_flow, identity_flow,
                    apply_flow, cesaro_average, dominant_cesaro)
from .condexp import (LinearFunctional, cond_exp, cond_exp_dominant,
                      defining_property_check, functional_commutation_check)
from .processes import (ProcessGrid, ProcessLimits, ConvergenceReport,
                        EnvelopeReport, me_process, em_process, limits,
                        cesaro_decomposition_check, commutation_check,
                        convergence_table, sup_integrability_report,
                        ergodic_envelope_constant, ergodic_envelope_check)
from .inequalities import (DominantReport, MaximalReport, SubmartingaleFamily,
                           SubmartingaleReport, dominant_ineq_me,
                           dominant_ineq_em, maximal_ineq_me, maximal_ineq_em,
                           domination_chain_check, submartingale_sup_check,
                           random_submartingale_family)
from .config import ScenarioConfig, ConfigError, parse_config, parse_text
from .runner import (CheckRecord, RunReport, CHECK_NAMES, run_scenario,
                     build_space, build_flow, build_function, build_context,
                     write_csv, write_json, emit_plot_data)
