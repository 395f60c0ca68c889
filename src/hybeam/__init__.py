"""Hybrid analog-digital combining for wideband massive MIMO uplinks.

Channel generation, constant-modulus RF combiner construction, exact and
closed-form rate metrics, and a reproducible Monte-Carlo benchmark harness.
The package namespace is the documented API: what the README's quickstart
uses, plus the closed-form and zero-forcing helpers.  Everything else is
internal to its submodule.
"""

from .beamforming import (
    combiner_noise_power,
    decompose_to_phase_banks,
    effective_channel,
    mf_combiner,
    rf_1tap,
    rf_ltap,
    zf_baseband,
    zf_spectrum,
)
from .channel import (
    SystemDims,
    channel_spectrum,
    draw_rich,
    exponential_pdp,
    load_channel_dump,
)
from .closed_forms import (
    MODEL_LTAP,
    capacity_limit,
    predict,
    sinr_ceiling_1tap,
    sinr_ceiling_ltap,
    sinr_limit_1tap,
    sinr_limit_ltap,
)
from .experiments import (
    Scenario,
    derive_seed,
    draw_realization,
    rms_study,
    run_scenario,
)
from .metrics import (
    LinkBudget,
    achievable_rate_hybrid,
    capacity,
    pdp_of_effective,
    rate_spectral,
    sinr_from_pdp,
    sum_rate_from_sinr,
)
from .numerics import dft_of_taps

__version__ = "0.1.0"

__all__ = [
    "LinkBudget",
    "MODEL_LTAP",
    "Scenario",
    "SystemDims",
    "achievable_rate_hybrid",
    "capacity",
    "capacity_limit",
    "channel_spectrum",
    "combiner_noise_power",
    "decompose_to_phase_banks",
    "derive_seed",
    "dft_of_taps",
    "draw_realization",
    "draw_rich",
    "effective_channel",
    "exponential_pdp",
    "load_channel_dump",
    "mf_combiner",
    "pdp_of_effective",
    "predict",
    "rate_spectral",
    "rf_1tap",
    "rf_ltap",
    "rms_study",
    "run_scenario",
    "sinr_ceiling_1tap",
    "sinr_ceiling_ltap",
    "sinr_from_pdp",
    "sinr_limit_1tap",
    "sinr_limit_ltap",
    "sum_rate_from_sinr",
    "zf_baseband",
    "zf_spectrum",
]
