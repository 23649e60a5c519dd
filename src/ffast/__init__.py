"""Sub-linear sparse DFT from noise-corrupted time samples.

The pipeline: a planner picks coprime subsampling stages and clustered
circular shifts for an admissible length n; the front end computes
short DFTs of the shifted subsampled streams, aliasing the k nonzero
spectrum coefficients into bins; a frequency estimator classifies each
bin and locates the coefficient a singleton bin carries; a peeling
decoder subtracts recovered coefficients until the alias graph empties.
Everything downstream of signal generation touches only
O(k * polylog n) samples.
"""
from .bench import ExperimentConfig, auto_sweep, run_experiment
from .frontend import BinBank, subsample_and_transform
from .metrics import support_recovery
from .peeling import DecodeResult, PeelEvent, decode
from .planner import PRESETS, FrontendPlan, PlanningError, build_plan
from .spectral import (
    Constellation,
    SparseSpectrum,
    TimeSignal,
    add_noise,
    random_spectrum,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "BinBank",
    "Constellation",
    "DecodeResult",
    "ExperimentConfig",
    "FrontendPlan",
    "PRESETS",
    "PeelEvent",
    "PlanningError",
    "SparseSpectrum",
    "TimeSignal",
    "add_noise",
    "auto_sweep",
    "build_plan",
    "decode",
    "random_spectrum",
    "run_experiment",
    "subsample_and_transform",
    "support_recovery",
    "synthesize",
]
