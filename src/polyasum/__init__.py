"""Polya sum processes, Gamma random measures, and conjugate inference.

Simulation of the point processes directed by Gamma random measures,
their exact Laplace-functional oracles, the conjugate posterior update,
parameter recovery for doubly stochastic mixtures, and a Monte Carlo
harness verifying every functional identity against its closed form.
"""

__version__ = "0.1.0"

from .bayes import (kernel, papangelou_kernel, posterior_intensity,
                    posterior_params)
from .estimators import (InfeasibleDensitiesError, ZWEstimate, density_batch,
                         density_ratio, solve_zw, solve_zw_batch)
from .expint import e1, e1_inverse
from .samplers import (MixingMeasure, PolyaParams, RngSeed, as_generator,
                       sample_gamma_measure_batch, sample_mixed_batch,
                       sample_poisson_batch, sample_polya_cox_batch,
                       sample_polya_direct_batch, sample_posterior_batch)
from .state_space import (AtomicBatch, AtomicMeasure, ConfigurationBatch,
                          InvalidMeasureError, PointConfiguration,
                          ReferenceMeasure, TestFunction, Window,
                          WindowMismatchError, superpose, zeta)
from .transforms import (ParameterError, TransformResult, joint_laplace,
                         laplace_gp, laplace_polya, logseries_mean,
                         logseries_pmf, nb_pmf, nb_pmf_table,
                         polya_campbell_exact)
from .verify import (CheckReport, check_conjugacy, check_transform_identity,
                     check_mecke, check_mixed_ibp, check_polya_ibp)

__all__ = [name for name in dir() if not name.startswith("_")]
