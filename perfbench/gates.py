"""Correctness gates applied to every benchmark operation.

The tolerances are the ones the repository already uses: the acceptance
suite's identity criterion and the ``check`` subcommand's thresholds for
solves, criterion 6's conservation bound and criterion 8's orbit bound for
evolutions, and the snapshot format's bit-exact round trip. A gate
re-evaluates the state it is given instead of trusting the solver's own
report.
"""

from __future__ import annotations

import json
from pathlib import Path

from dnls3.cli import CHECK_THRESHOLDS
from dnls3.functionals import evaluate
from dnls3.ground_state import pohozaev_residual
from dnls3.snapshot import load_field, save_field

#: Relative drift of charge and momentum allowed over one evolution.
DRIFT_LIMIT = 1e-8
#: Orbit distance allowed, in units of the perturbation size delta.
ORBIT_LIMIT = 10.0


class GateFailed(Exception):
    """An operation's output missed one of the repository's tolerances."""

    def __init__(self, gate: str, value, limit):
        super().__init__(f"{gate}: {value!r} (limit {limit!r})")
        self.gate = gate


def failure_name(exc: BaseException) -> str:
    """Name under which a failed operation is counted."""
    if isinstance(exc, GateFailed):
        return f"GateFailed:{exc.gate}"
    return type(exc).__name__


def _require_below(gate: str, value: float, limit: float) -> None:
    if not value < limit:
        raise GateFailed(gate, value, limit)


def check_ground_state(phi, phys, wave, mu: float) -> None:
    """Identity residuals, Nehari constraint, Pohozaev and (4-d) identities."""
    rep = evaluate(phi, phys, wave)
    d = phi.grid.d
    _require_below("identity_max", max(rep.identity_residuals().values()), CHECK_THRESHOLDS["identity_max"])
    _require_below("nehari_K", abs(rep.K) / max(1.0, rep.Lqc), CHECK_THRESHOLDS["nehari_K"])
    _require_below("pohozaev", pohozaev_residual(phi, phys, wave), CHECK_THRESHOLDS["pohozaev"])
    fourd = abs(2.0 * rep.omega * rep.Q + rep.cP - (4.0 - d) * mu) / ((4.0 - d) * mu)
    _require_below("fourd", fourd, CHECK_THRESHOLDS["fourd"])


def check_orbit(trace, delta: float) -> None:
    """Charge and momentum drift, and the sup orbit distance, of one evolution."""
    _require_below("drift_Q", trace.drift("Q"), DRIFT_LIMIT)
    _require_below("drift_P", trace.drift("P"), DRIFT_LIMIT)
    _require_below("orbit_distance", float(max(trace.orbit_distance)), ORBIT_LIMIT * delta)


def check_pipeline(gs_code: int, check_code: int, check_json: Path, snapshot: Path, copy: Path) -> None:
    """Exit codes, the check verdict and a bit-exact snapshot round trip."""
    if gs_code != 0:
        raise GateFailed("gs_exit_code", gs_code, 0)
    if check_code != 0:
        raise GateFailed("check_exit_code", check_code, 0)
    if json.loads(check_json.read_text())["passed"] is not True:
        raise GateFailed("check_passed", False, True)
    save_field(load_field(snapshot), copy)
    if copy.read_bytes() != snapshot.read_bytes():
        raise GateFailed("snapshot_round_trip", "differs", "bit-exact")
