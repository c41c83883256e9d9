"""Thermal operations on energy-diagonal states with explicit battery models."""

from .spectra import (
    DiagonalState,
    EnergySpectrum,
    binary_entropy,
    d_max,
    fine_grained_free_energy,
    free_energy,
    gibbs_state,
    gibbs_weights,
    joint_spectrum,
    partition_function,
)
from .channels import (
    ETIReport,
    LadderChannel,
    ThermalChannel,
    ValidationReport,
    WitSubchannels,
    apply,
    check_eti,
    extract_subchannels,
    identity_channel,
    random_gibbs_stochastic,
    validate,
)
from .feasibility import (
    ThermoCurve,
    lp_feasible_transport,
    lp_transport_residual,
    min_formation_gap,
    thermo_curve,
    thermo_majorizes,
)
from .batteries import (
    CheckReport,
    CostFunction,
    WorkDistribution,
    average_work,
    f1_measure,
    general_cost,
    ladder_work_distribution,
    theorem4_check,
    variance,
    work_distribution,
)
from .construction import (
    ExtensionReport,
    auto_battery_size,
    closed_form_average_work,
    extend_to_oscillator,
    theorem3_deterministic_work,
    truncation_tail,
    verify_extension,
)
from .bounds import (
    SecondLawReport,
    conditional_jarzynski,
    conditional_jarzynski_band,
    corollary1_correction,
    eta_derivative,
    gaussian_battery_profile,
    jarzynski_average,
    theorem1_certify,
    theorem2_bound,
)
from .erasure import (
    StatsReport,
    exp_cost_oscillator,
    exp_cost_weight_bound,
    lambda_process,
    oscillator_erasure_stats,
    oscillator_erasure_subchannels,
    weight_error_bound,
    weight_process,
)

__version__ = "0.1.0"
