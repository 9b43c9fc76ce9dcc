"""Run configuration: strict JSON with materialized defaults.

A config document has exactly the key groups "physics", "wave", "grid",
"solver", "evolve", "experiment" and "output"; unknown keys anywhere are
rejected by name. ``parse_config`` fills every default and returns both
the constructed parameter objects and the fully-expanded document, whose
canonical serialization (sorted keys) is hashed into run manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from .errors import ParseError, ValidationError
from .evolution import SCHEMES, EvolveConfig
from .grid import DEFAULT_EXTENT, Grid
from .ground_state import AnsatzConfig, SolverConfig
from .params import PhysParams, WaveParams

# experiments whose wave parameters must be admissible before any solve
SOLVE_EXPERIMENTS = ("gs", "check", "mu-scan", "h-curve", "stability", "decay", "evolve")

# scalar experiment keys as (key, positive, integer)
EXPERIMENT_NUMBERS = (
    ("samples", True, True),
    ("perturbation_seed", False, True),
    ("delta", False, False),
    ("tau_step", True, False),
)


@dataclass
class RunConfig:
    phys: PhysParams
    wave: WaveParams
    grid: Grid
    solver: SolverConfig
    evolve: EvolveConfig
    experiment: dict
    output_dir: str
    seed: int
    effective: dict

    def canonical_json(self) -> str:
        return json.dumps(self.effective, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _require_keys(group: dict, allowed: set, context: str):
    for key in group:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {context!r}")


def _get_number(group, key, default, context, positive=False, integer=False):
    return _number(group.get(key, default), f"{context}.{key}", positive, integer)


def _number(value, field, positive=False, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, f"expected a number, got {value!r}")
    if integer and not (isinstance(value, int) or value.is_integer()):
        raise ValidationError(field, f"expected an integer, got {value!r}")
    if positive and not value > 0:
        raise ValidationError(field, f"must be positive, got {value!r}")
    return int(value) if integer else float(value)


def _get_bool(group, key, default, context):
    value = group.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{context}.{key}", f"expected true/false, got {value!r}")
    return value


def parse_config(source: str, experiment: str = "gs") -> RunConfig:
    """Parse a JSON document (text or path) into a validated RunConfig.

    ``experiment`` names the subcommand about to run; admissibility of
    (omega, c) is enforced for experiments that solve or classify.
    """
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config root must be an object")

    _require_keys(
        doc,
        {"physics", "wave", "grid", "solver", "evolve", "experiment", "output"},
        "config",
    )

    # -- physics ------------------------------------------------------------
    phys_doc = doc.get("physics", {})
    _require_keys(phys_doc, {"alpha", "beta", "gamma"}, "physics")
    default = PhysParams()
    try:
        phys = PhysParams(
            _get_number(phys_doc, "alpha", default.alpha, "physics", positive=True),
            _get_number(phys_doc, "beta", default.beta, "physics", positive=True),
            _get_number(phys_doc, "gamma", default.gamma, "physics", positive=True),
        )
    except ValueError as exc:
        raise ValidationError("physics", str(exc)) from exc

    # -- grid ---------------------------------------------------------------
    grid_doc = doc.get("grid", {})
    _require_keys(grid_doc, {"d", "n", "extent", "dealias"}, "grid")
    n = grid_doc.get("n", [512])
    if isinstance(n, (int, float)):
        n = [n]
    if not isinstance(n, list) or not n:
        raise ValidationError("grid.n", f"expected a list of point counts, got {n!r}")
    n = [_number(nk, "grid.n", integer=True) for nk in n]
    d = _get_number(grid_doc, "d", len(n), "grid", integer=True)
    if d != len(n):
        raise ValidationError("grid.d", f"d={d} but n has {len(n)} axes")
    extent = grid_doc.get("extent", [DEFAULT_EXTENT.get(len(n), 40.0)] * len(n))
    if isinstance(extent, (int, float)):
        extent = [extent] * len(n)
    if not isinstance(extent, list):
        raise ValidationError("grid.extent", f"expected a list of box lengths, got {extent!r}")
    extent = [_number(ek, "grid.extent") for ek in extent]
    dealias = _get_bool(grid_doc, "dealias", False, "grid")
    try:
        grid = Grid(n, extent, dealias=dealias)
    except ValueError as exc:
        raise ValidationError("grid", str(exc)) from exc

    # -- wave ---------------------------------------------------------------
    wave_doc = doc.get("wave", {})
    _require_keys(wave_doc, {"omega", "c"}, "wave")
    omega = _get_number(wave_doc, "omega", 1.0, "wave")
    c = wave_doc.get("c", [0.0] * grid.d)
    if isinstance(c, (int, float)):
        c = [c]
    if not isinstance(c, list) or len(c) != grid.d:
        raise ValidationError("wave.c", f"expected {grid.d} speed components, got {c!r}")
    wave = WaveParams(omega, tuple(_number(ck, "wave.c") for ck in c))
    if experiment in SOLVE_EXPERIMENTS and not wave.admissible(phys):
        raise ValidationError(
            "wave",
            f"omega={omega} <= sigma*|c|^2/4={phys.sigma * wave.speed ** 2 / 4.0}: "
            "not admissible",
        )

    # -- solver ---------------------------------------------------------------
    solver_doc = doc.get("solver", {})
    _require_keys(solver_doc, {"max_iter", "residual_tol", "ansatz", "seed", "restarts"}, "solver")
    ansatz_doc = solver_doc.get("ansatz", {})
    _require_keys(ansatz_doc, {"width", "carrier"}, "solver.ansatz")
    default = SolverConfig()
    ansatz = AnsatzConfig(
        width=_get_number(ansatz_doc, "width", default.ansatz.width, "solver.ansatz", positive=True),
        carrier=_get_bool(ansatz_doc, "carrier", default.ansatz.carrier, "solver.ansatz"),
    )
    try:
        solver = SolverConfig(
            max_iter=_get_number(solver_doc, "max_iter", default.max_iter, "solver", positive=True, integer=True),
            residual_tol=_get_number(solver_doc, "residual_tol", default.residual_tol, "solver", positive=True),
            ansatz=ansatz,
            seed=_get_number(solver_doc, "seed", default.seed, "solver", integer=True),
            restarts=_get_number(solver_doc, "restarts", default.restarts, "solver", positive=True, integer=True),
        )
    except ValueError as exc:
        raise ValidationError("solver", str(exc)) from exc

    # -- evolve ---------------------------------------------------------------
    evolve_doc = doc.get("evolve", {})
    _require_keys(evolve_doc, {"dt", "t_final", "record_stride", "scheme"}, "evolve")
    default = EvolveConfig()
    dt = evolve_doc.get("dt", default.dt)
    if dt is not None:
        dt = _get_number(evolve_doc, "dt", None, "evolve", positive=True)
    scheme = evolve_doc.get("scheme", default.scheme)
    if scheme not in SCHEMES:
        raise ValidationError("evolve.scheme", f"expected one of {SCHEMES}, got {scheme!r}")
    t_final = _get_number(evolve_doc, "t_final", default.t_final, "evolve")
    if t_final < 0:
        raise ValidationError("evolve.t_final", "must be nonnegative")
    evolve_cfg = EvolveConfig(
        dt=dt,
        t_final=t_final,
        record_stride=_get_number(evolve_doc, "record_stride", default.record_stride, "evolve", positive=True, integer=True),
        scheme=scheme,
    )

    # -- experiment / output ----------------------------------------------------
    exp_doc = dict(doc.get("experiment", {}))
    _require_keys(
        exp_doc,
        {"field", "delta", "perturbation_seed", "omegas", "c0", "tau_step", "tau0s", "window", "samples"},
        "experiment",
    )
    for key, positive, integer in EXPERIMENT_NUMBERS:
        if key in exp_doc:
            exp_doc[key] = _number(exp_doc[key], f"experiment.{key}", positive, integer)
    if "omegas" in exp_doc:
        omegas = exp_doc["omegas"]
        if not isinstance(omegas, list) or not omegas:
            raise ValidationError("experiment.omegas", f"expected a list of frequencies, got {omegas!r}")
        exp_doc["omegas"] = [_number(w, "experiment.omegas", positive=True) for w in omegas]
    out_doc = doc.get("output", {})
    _require_keys(out_doc, {"dir"}, "output")
    output_dir = out_doc.get("dir", "out")

    effective = {
        "physics": asdict(phys),
        "wave": {"omega": wave.omega, "c": list(wave.c)},
        "grid": {"d": grid.d, "n": list(grid.n), "extent": list(grid.extent), "dealias": grid.dealias},
        "solver": asdict(solver),
        "evolve": asdict(evolve_cfg),
        "experiment": exp_doc,
        "output": {"dir": output_dir},
    }
    return RunConfig(
        phys=phys,
        wave=wave,
        grid=grid,
        solver=solver,
        evolve=evolve_cfg,
        experiment=dict(exp_doc),
        output_dir=output_dir,
        seed=solver.seed,
        effective=effective,
    )
