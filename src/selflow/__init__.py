"""selflow: 2-D stochastic nematic liquid-crystal flow with relaxed director
dynamics, plus the diagnostics that verify its energy and multiplier
identities at finite relaxation parameter."""

__version__ = "0.1.0"

from .grids import Grid, GridError
from .fields import Field, TestFunction, read_snapshot, write_snapshot
from .dynamics import (
    BlowUpError,
    Params,
    SimState,
    StabilityError,
    gl_force,
    penalty_density,
    stability_dt,
    step_coupled,
    strat_correction,
)
from .noise import MagneticField, NoiseOperatorS, WienerDriver, split_seed
from .projection import ProjectionError, leray_project
from .pathrun import PathResult, PathSeries, simulate_path
from .diagnostics import (
    DefectReport,
    PohozaevReport,
    SweepResult,
    WeakFormTracker,
    defect_detect,
    energy_budget_residual,
    gronwall_bound_check,
    local_energy,
    pohozaev_residual,
    stress_pairing,
)
from .ensemble import EnsembleStats, coupled_sweep, run_ensemble, run_path
from .config import ConfigError, RunConfig, canonical_dump, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
