"""Thermal operations on energy-diagonal states with explicit battery models.

Every verdict the package takes in floating point is taken at a named
module constant, and no public function takes that threshold as a
parameter.  The exceptions are search targets and config keys:
`theorem1_certify`'s `tol` (certify-thm1 passes its config key), the
`tol` keys of certify-thm2 and example2, and the targets of
`min_formation_gap` and `auto_battery_size`.  The constants:

| constant | module | value | unit | what it bounds | callers |
|---|---|---|---|---|---|
| `EXP_GUARD` | spectra | 700.0 | absolute | the largest beta*abs(E) fed to exp() | `partition_function`, `gibbs_state`, `gibbs_weights` |
| `PROB_SUM_TOL` | spectra | 1e-12 | absolute | the distance of a probability vector's sum from 1 | `checked_probabilities`, so `DiagonalState` and `WorkDistribution` |
| `NEG_FLOOR` | spectra | -1e-15 | absolute | the least entry of a probability vector or a channel; entries between it and 0 count as rounding | `checked_probabilities`, `validate`, `WitSubchannels` |
| `SPACING_TOL` | spectra | 1e-12 | absolute at level 0, relative to max(1, top level) above | a battery level's distance from k*delta | `EnergySpectrum.uniform_spacing`, so `check_eti`, `theorem1_certify`, `theorem2_bound` |
| `STOCHASTIC_TOL` | channels | 1e-12 | absolute | a column sum's distance from 1 | `validate`, `WitSubchannels` |
| `GIBBS_TOL` | channels | 1e-10 | relative | a row's (or a wit pair's) Gibbs fixed-point residual | `validate`, `WitSubchannels` |
| `ETI_TOL` | channels | 1e-14 | absolute | the translation-invariance violation of a window | `check_eti`, so `verify_extension`, `theorem1_certify`, `theorem2_bound` |
| `MERGE_TOL` | batteries | 1e-12 | absolute | the distance within which work values merge | `WorkDistribution`, `WorkDistribution.prob_of` |
| `VARIANCE_FLOOR_TOL` | batteries | 1e-12 | absolute | the shortfall of Var[w] below gamma <w>^2 | `theorem4_check` |
| `TAIL_TOL` | construction | 1e-12 | absolute | the truncation tail, the 1-norm of r01^N, at the automatic battery size | `auto_battery_size`, `oscillator_erasure_stats` |
| `SERIES_MARGIN` | construction | 1e-10 | absolute | how far r01's spectral radius must lie below 1 | `auto_battery_size`, `closed_form_average_work` |
| `THEOREM_TOL` | bounds | 1e-10 | absolute | the shortfall of theorem 1's slack below 0 | `theorem1_certify` (certify-thm1 passes its `tol` key instead) |
| `CURVE_Y_TOL` | feasibility | 1e-12 | absolute | the shortfall of one thermo-curve below another at a vertex | `ThermoCurve.lies_above`, `thermo_majorizes`, `formation_feasible_at`, `min_formation_gap` |
| `LP_TOL` | feasibility | 1e-9 | absolute | the transport LP's phase-one residual | `lp_feasible_transport`, oracle-feasibility |
| `GIBBS_IDENTITY_TOL` | erasure | 1e-12 | absolute | the residual of the erasure work shifts' Gibbs identities | `weight_process`, `lambda_process` |

"Absolute" compares the quantity itself with the constant, "relative"
compares it after dividing by its target.  The README holds the same table.
"""

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
