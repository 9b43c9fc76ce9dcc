"""Run configuration: strict JSON with materialized defaults.

A config document has exactly the key groups "physics", "wave", "grid",
"solver", "evolve", "experiment" and "output"; unknown keys anywhere are
rejected by name. ``parse_config`` fills every default and returns the
constructed parameter objects; the fully-expanded document is built from
them, and its canonical serialization (sorted keys) is hashed into run
manifests.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

from .errors import ParseError, ValidationError
from .evolution import SCHEMES, EvolveConfig
from .grid import DEFAULT_EXTENT, Grid
from .ground_state import SolverConfig
from .params import PhysParams, WaveParams

# experiments whose wave parameters must be admissible before any solve
SOLVE_EXPERIMENTS = ("gs", "check", "mu-scan", "h-curve", "stability", "decay", "evolve")


@dataclass
class RunConfig:
    """The parsed objects of one run; each setting is held once.

    ``effective`` is the fully-defaulted document, built from these objects
    on every access, so changes to them (the command line's ``--seed`` and
    ``--out``) show in it and in the hash.
    """

    phys: PhysParams
    wave: WaveParams
    grid: Grid
    solver: SolverConfig
    evolve: EvolveConfig
    experiment: dict
    output_dir: str

    @property
    def effective(self) -> dict:
        g = self.grid
        return {
            "physics": asdict(self.phys),
            "wave": {"omega": self.wave.omega, "c": list(self.wave.c)},
            "grid": {"d": g.d, "n": list(g.n), "extent": list(g.extent), "dealias": g.dealias},
            "solver": asdict(self.solver),
            "evolve": asdict(self.evolve),
            "experiment": dict(self.experiment),
            "output": {"dir": self.output_dir},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.effective, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _require_keys(group: dict, allowed: set, context: str):
    for key in group:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {context!r}")


def _group(doc: dict, name: str) -> dict:
    """The key group ``name`` of the document, an object; absent, it is empty."""
    group = doc.get(name, {})
    if not isinstance(group, dict):
        raise ValidationError(name, f"expected an object, got {group!r}")
    return group


def _get_number(group, key, default, context, positive=False, integer=False):
    return _number(group.get(key, default), f"{context}.{key}", positive, integer)


def _number(value, field, positive=False, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, f"expected a number, got {value!r}")
    if integer and not (isinstance(value, int) or value.is_integer()):
        raise ValidationError(field, f"expected an integer, got {value!r}")
    if positive and not value > 0:
        raise ValidationError(field, f"must be positive, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(field, f"must be finite, got {value!r}")
    return int(value) if integer else float(value)


def _seed(value, field):
    """A seed for numpy's generator: a nonnegative integer."""
    seed = _number(value, field, integer=True)
    if seed < 0:
        raise ValidationError(field, f"must be nonnegative, got {value!r}")
    return seed


def _numbers(value, field, positive=False):
    """A non-empty list of numbers."""
    if not isinstance(value, list) or not value:
        raise ValidationError(field, f"expected a non-empty list of numbers, got {value!r}")
    return [_number(v, field, positive) for v in value]


def _speed(value, field, d):
    """A speed vector of d numbers; a bare number stands for a one-entry list."""
    if isinstance(value, (int, float)):
        value = [value]
    if not isinstance(value, list) or len(value) != d:
        raise ValidationError(field, f"expected {d} speed components, got {value!r}")
    return [_number(v, field) for v in value]


def _path(value, field):
    """A file or directory path: a non-empty string."""
    if not isinstance(value, str) or not value:
        raise ValidationError(field, f"expected a non-empty path, got {value!r}")
    return value


def _window(value, field):
    """A fit window [lo, hi] of half-box fractions with 0 <= lo < hi."""
    window = _numbers(value, field)
    if len(window) != 2 or not 0 <= window[0] < window[1]:
        raise ValidationError(field, f"expected [lo, hi] with 0 <= lo < hi, got {value!r}")
    return window


def _get_bool(group, key, default, context):
    value = group.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{context}.{key}", f"expected true/false, got {value!r}")
    return value


def parse_config(source: str, experiment: str = "gs") -> RunConfig:
    """Parse a JSON document (text or path) into a validated RunConfig.

    ``experiment`` names the subcommand about to run; admissibility of
    (omega, c) is enforced for experiments that solve or classify. An
    unknown key raises ParseError; a value of the wrong type or out of
    range raises ValidationError naming its field, such as ``solver.seed``
    (a nonnegative integer) or ``experiment.window``.
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
    phys_doc = _group(doc, "physics")
    _require_keys(phys_doc, {"alpha", "beta", "gamma"}, "physics")
    default = PhysParams()
    # the field checks cover the one rule of PhysParams
    phys = PhysParams(
        _get_number(phys_doc, "alpha", default.alpha, "physics", positive=True),
        _get_number(phys_doc, "beta", default.beta, "physics", positive=True),
        _get_number(phys_doc, "gamma", default.gamma, "physics", positive=True),
    )

    # -- grid ---------------------------------------------------------------
    grid_doc = _group(doc, "grid")
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
    wave_doc = _group(doc, "wave")
    _require_keys(wave_doc, {"omega", "c"}, "wave")
    omega = _get_number(wave_doc, "omega", 1.0, "wave")
    wave = WaveParams(omega, tuple(_speed(wave_doc.get("c", [0.0] * grid.d), "wave.c", grid.d)))
    if experiment in SOLVE_EXPERIMENTS and not wave.admissible(phys):
        raise ValidationError(
            "wave",
            f"omega={omega} <= sigma*|c|^2/4={phys.sigma * wave.speed ** 2 / 4.0}: "
            "not admissible",
        )

    # -- solver ---------------------------------------------------------------
    solver_doc = _group(doc, "solver")
    _require_keys(solver_doc, {"max_iter", "residual_tol", "seed", "restarts"}, "solver")
    default = SolverConfig()
    # the field checks cover every rule of SolverConfig
    solver = SolverConfig(
        max_iter=_get_number(solver_doc, "max_iter", default.max_iter, "solver", positive=True, integer=True),
        residual_tol=_get_number(solver_doc, "residual_tol", default.residual_tol, "solver", positive=True),
        seed=_seed(solver_doc.get("seed", default.seed), "solver.seed"),
        restarts=_get_number(solver_doc, "restarts", default.restarts, "solver", positive=True, integer=True),
    )

    # -- evolve ---------------------------------------------------------------
    evolve_doc = _group(doc, "evolve")
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
    exp_doc = dict(_group(doc, "experiment"))
    checks = {
        "field": _path,
        "samples": lambda v, f: _number(v, f, positive=True, integer=True),
        "perturbation_seed": _seed,
        "delta": _number,
        "tau_step": lambda v, f: _number(v, f, positive=True),
        "omegas": lambda v, f: _numbers(v, f, positive=True),
        "tau0s": lambda v, f: _numbers(v, f, positive=True),
        "window": _window,
        "c0": lambda v, f: _speed(v, f, grid.d),
    }
    _require_keys(exp_doc, set(checks), "experiment")
    for key, check in checks.items():
        if key in exp_doc:
            exp_doc[key] = check(exp_doc[key], f"experiment.{key}")
    out_doc = _group(doc, "output")
    _require_keys(out_doc, {"dir"}, "output")

    return RunConfig(
        phys=phys,
        wave=wave,
        grid=grid,
        solver=solver,
        evolve=evolve_cfg,
        experiment=exp_doc,
        output_dir=_path(out_doc.get("dir", "out"), "output.dir"),
    )
