"""Wave-equation toolkit for photoacoustic inclusion recovery."""

from .geometry import (Domain, SpeedField, StarInclusion, build_speed_field,
                       farthest_distance, star_shape_check)
from .initial_data import (InitialData, OpticalCoefficients,
                           check_compatibility, harmonic_g, make_initial_data,
                           reverse_inequality_probe, solve_diffusion)
from .wave_forward import (BoundaryTrace, EnergyReport, WaveTrajectory,
                           simulate_forward, trace_norms)
from .wave_dirichlet import DirichletProblem, simulate_dirichlet, transposition_check
from .observability import (ObservabilityReport, observability_ensemble,
                            observability_ratio)
from .control import (ControlCertificate, ControlProblem, hum_control,
                      representation_residual)
from .inversion import (InverseProblem, ReconstructionResult,
                        StabilityScanReport, adjoint_gradient, misfit,
                        reconstruct, stability_scan)

__version__ = "0.1.0"
