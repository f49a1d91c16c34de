"""Training-free streaming correction of latent-state sequences.

Each incoming state is corrected in closed form from a sliding window of
its recent predecessors: the window's row-normalized self-affinity gives
the weights, and the corrected state is the weighted combination of the
window. The package also ships the synthetic subspace-trajectory
generator (generate_scenario returns a Scenario: read-only state arrays
and the truth path as geodesic pieces),
baselines, metrics, and the experiment harness used to evaluate the
corrector.

The package namespace holds the entry points; everything else is
imported from its submodule (ssrlab.affinity, ssrlab.grassmann, ...).
"""

from ._version import TOOL_VERSION as __version__
from .affinity import compute_affinity
from .config import build_experiment_config
from .errors import SsrLabError
from .harness import run_experiment
from .metrics import ablate_window, score_run
from .regularizer import SsrConfig, run_stream
from .synth import NoiseModel, Scenario, TrajectoryConfig, derive_trial_seed, generate_scenario

__all__ = [
    "__version__",
    "compute_affinity",
    "build_experiment_config",
    "SsrLabError",
    "run_experiment",
    "ablate_window",
    "score_run",
    "SsrConfig",
    "run_stream",
    "NoiseModel",
    "Scenario",
    "TrajectoryConfig",
    "derive_trial_seed",
    "generate_scenario",
]
