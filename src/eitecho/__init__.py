"""All-optical EIT spin-echo simulator for three-level lambda systems."""

# One BLAS thread unless the user sets one, before numpy loads: competing
# thread pools cost several times the 9x9 products they share.
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .qstate import DensityMatrix3, GroundQubitState, fidelity
from .lambda_system import LambdaParams
from .dynamics import PulseSpec, SequenceSpec, Trajectory, Wait, run_sequence
from .sequences import (
    EchoConfig,
    dark_target,
    make_echo_sequence,
    make_init_pulse,
    make_readout_pulse,
    make_rephase_pulse,
)
from .ensemble import EnsembleSpec, ensemble_average, member_stack
from .tomography import TomographyResult, projection_measurements, reconstruct
from .readout import (
    BeatTrace,
    DecayCurve,
    FitResult,
    assemble_decay_curve,
    assemble_decay_curves,
    beat_amplitude,
    fit_decay,
    synthesize_beat,
)
from .studies import (
    FieldModel,
    ScalingModel,
    TemperatureModel,
    compensation_search,
    field_sweep,
    scaling_study,
    splitting_from_field,
    temperature_scan,
)
from .config import RunConfig, parse_config, validate_config

__version__ = "0.1.0"

__all__ = [
    "BeatTrace", "DecayCurve", "DensityMatrix3", "EchoConfig", "EnsembleSpec",
    "FieldModel", "FitResult", "GroundQubitState", "LambdaParams", "PulseSpec",
    "RunConfig", "ScalingModel", "SequenceSpec", "TemperatureModel",
    "TomographyResult", "Trajectory", "Wait", "assemble_decay_curve",
    "assemble_decay_curves", "beat_amplitude", "compensation_search", "dark_target",
    "ensemble_average", "fidelity", "field_sweep", "fit_decay", "make_echo_sequence",
    "make_init_pulse", "make_readout_pulse", "make_rephase_pulse", "member_stack",
    "parse_config", "projection_measurements", "reconstruct", "run_sequence",
    "scaling_study", "splitting_from_field", "synthesize_beat", "temperature_scan",
    "validate_config",
]
