"""UAV-aided wireless link simulations.

Subpackages: channel models, trajectory generation, relaying cycles,
D2D-enhanced dissemination, altitude-coverage optimization, and the
experiment/CLI orchestration layer.
"""

__version__ = "0.1.0"

from .channel import (ChannelModel, LinkGeometry, SnrReference,
                      doppler_shift, free_space_path_loss,
                      sample_rician_gain, snr_at, spectral_efficiency,
                      two_ray_path_loss)
from .mobility import (RelayGeometry, Trajectory, ferry_trajectory,
                       mobile_relay_trajectory, overflight_trajectory,
                       validate_trajectory)
from .relay import (RelayRunResult, RelayStrategy, buffer_requirement,
                    simulate_cycle, sweep_delay)
from .coverage import (ExcessLoss, LosProbabilityModel, coverage_curve,
                       coverage_radius, expected_path_loss,
                       optimal_altitude)
from .dissemination import (D2dGraph, FileSpec, ReceptionModel,
                            cluster_nodes, compare_schemes, coverage_mask,
                            phase1_broadcast, phase2_exchange, run_baseline)

__all__ = [name for name in dir() if not name.startswith("_")]
