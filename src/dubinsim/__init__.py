"""Deterministic Dubins-car simulator with two tracking stacks and circular
obstacle bypass planning."""

from .avoidance import (BypassPlan, DangerZone, Obstacle, discover,
                        path_crosses_zone, plan_both_sides, plan_bypass,
                        select_side, splice)
from .errors import (ConfigError, ControllerFault, DegeneratePathError,
                     DubinsimError, HorizonTooLongError, InfeasibleBypassError,
                     StateIntegrityError)
from .harness import (emit, emit_csv, emit_summary, emit_sweep,
                      place_crossing_obstacle, run_scenario, run_sweep)
from .heol import HeolConfig, HeolController, heol_step
from .mfpc import (BoundarySolution, MfpcConfig, MfpcController, UltraLocalAxis,
                   mfpc_axis_step, solve_two_point)
from .model import (ControlInput, NoiseModel, PerturbationSchedule,
                    VehicleState, aux_to_true, measure, step_plant,
                    true_to_aux)
from .reference import (CirclePath, PolylinePath, ReferenceTrajectory,
                        SinePath, SyncEvent, apply_sync, build_reference,
                        flat_feedforward, sync_offset)
from .scenario import ScenarioConfig, ScenarioResult, compute_metrics

__version__ = "0.1.0"
