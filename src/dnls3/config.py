"""Run configuration: strict JSON with materialized defaults.

A config document has exactly the key groups "physics", "wave", "grid",
"solver", "evolve", "experiment" and "output". The keys and defaults of
"physics", "solver" and "evolve" are the fields of their dataclasses, and
the dataclass alone judges each value; the experiment keys a subcommand
reads, and their defaults, are its row of ``EXPERIMENTS``. Unknown keys
are rejected by name. ``parse_config`` fills every default and returns the
constructed parameter objects; the fully-expanded document is built from
them, and its canonical serialization (sorted keys) is hashed into run
manifests.

Every number is judged by one rule, ``grid._setting``: a bool, a string,
NaN, an infinity, an int past float range (such as 2**1100), a fraction
where a count is due and a value below its bound are refused. The
parameter objects and ``Grid`` apply the rule themselves; the config adds
the field's name, so a refused value is a ValidationError naming it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

from .errors import InadmissibleParameters, ParseError, ValidationError
from .evolution import EvolveConfig
from .grid import DEFAULT_EXTENT, Grid, _setting
from .ground_state import SolverConfig
from .params import PhysParams, WaveParams

# the experiment keys each subcommand reads, with their defaults; None is
# "no snapshot" for field and "derived from omega" for tau_step and tau0s
EXPERIMENTS = {
    "gs": {},
    "evolve": {"field": None, "delta": 0.0},
    "check": {"field": None, "samples": 200},
    "mu-scan": {"omegas": [0.5, 1.0, 2.0, 4.0]},
    "h-curve": {"tau_step": None},
    "stability": {"delta": 1e-2, "tau0s": None},
    "decay": {"field": None, "window": [0.5, 0.9]},
}


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


def _require_keys(group: dict, allowed, context: str):
    for key in group:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {context!r}")


def _group(doc: dict, name: str) -> dict:
    """The key group ``name`` of the document, an object; absent, it is empty."""
    group = doc.get(name, {})
    if not isinstance(group, dict):
        raise ValidationError(name, f"expected an object, got {group!r}")
    return group


def _judged(field, build, *args, **kwargs):
    """``build(*args, **kwargs)``; the ValueError of a value it refuses becomes a ValidationError naming ``field``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(field, str(exc)) from exc


def _number(value, field, **rule):
    """``value`` judged by the one rule for a numeric setting (``grid._setting``), a failure named by ``field``."""
    return _judged(field, _setting, value, "the value", **rule)


def _numbers(value, field, lone=None, **rule):
    """The list ``value``, each entry judged as ``_number`` judges it.

    Given ``lone``, a value that is not a list stands for ``lone`` equal
    entries, and the caller checks the length; without it the value must be
    a non-empty list.
    """
    if lone is not None and not isinstance(value, list):
        value = [value] * lone
    if not isinstance(value, list) or not (value or lone):
        raise ValidationError(field, f"expected a non-empty list of numbers, got {value!r}")
    return [_number(v, field, **rule) for v in value]


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


# the rule of each experiment key, whichever subcommand reads it
_EXPERIMENT_RULES = {
    "field": _path,
    "samples": lambda v, f: _number(v, f, whole=True, least=1),
    "delta": _number,
    "tau_step": lambda v, f: _number(v, f, above=0),
    "omegas": lambda v, f: _numbers(v, f, above=0),
    "tau0s": lambda v, f: _numbers(v, f, above=0),
    "window": _window,
}


def _params(doc: dict, name: str, cls):
    """The key group ``name`` read into the dataclass ``cls``.

    Its keys and defaults are the fields of ``cls``, and ``cls`` alone
    judges each value: a value it refuses is a ValidationError naming the
    field.
    """
    group = _group(doc, name)
    _require_keys(group, {f.name for f in fields(cls)}, name)
    for key, value in group.items():
        _judged(f"{name}.{key}", cls, **{key: value})
    return cls(**group)


def parse_config(source: str, experiment: str = "gs") -> RunConfig:
    """Parse a JSON document (text or path) into a validated RunConfig.

    ``experiment`` names the subcommand about to run and selects its row of
    ``EXPERIMENTS``: the experiment keys it accepts, whose defaults fill
    ``RunConfig.experiment``. (omega, c) must be admissible. An unknown key,
    an experiment key included, raises ParseError naming it; a value of the
    wrong type or out of range raises ValidationError naming its field,
    such as ``solver.seed`` (a nonnegative integer) or ``experiment.window``.
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
    except ValueError as exc:  # an integer literal longer than Python converts to an int
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config root must be an object")

    _require_keys(
        doc,
        {"physics", "wave", "grid", "solver", "evolve", "experiment", "output"},
        "config",
    )
    phys = _params(doc, "physics", PhysParams)

    # -- grid ---------------------------------------------------------------
    grid_doc = _group(doc, "grid")
    _require_keys(grid_doc, {"d", "n", "extent", "dealias"}, "grid")
    n = _numbers(grid_doc.get("n", 512), "grid.n", lone=1, whole=True)
    if not n:
        raise ValidationError("grid.n", "expected at least one point count, got []")
    d = _number(grid_doc.get("d", len(n)), "grid.d", whole=True)
    if d != len(n):
        raise ValidationError("grid.d", f"d={d} but n has {len(n)} axes")
    extent = _numbers(grid_doc.get("extent", DEFAULT_EXTENT.get(d, 40.0)), "grid.extent", lone=d)
    dealias = grid_doc.get("dealias", False)
    if not isinstance(dealias, bool):
        raise ValidationError("grid.dealias", f"expected true/false, got {dealias!r}")
    grid = _judged("grid", Grid, n, extent, dealias=dealias)

    # -- wave ---------------------------------------------------------------
    wave_doc = _group(doc, "wave")
    _require_keys(wave_doc, {"omega", "c"}, "wave")
    omega = _number(wave_doc.get("omega", 1.0), "wave.omega")
    c = _numbers(wave_doc.get("c", [0.0] * grid.d), "wave.c", lone=1)
    if len(c) != grid.d:
        raise ValidationError("wave.c", f"expected {grid.d} speed components, got {c!r}")
    wave = WaveParams(omega, tuple(c))
    try:
        wave.require_admissible(phys)
    except InadmissibleParameters as exc:
        raise ValidationError("wave", str(exc)) from exc

    solver = _params(doc, "solver", SolverConfig)
    evolve_cfg = _params(doc, "evolve", EvolveConfig)

    # -- experiment / output ----------------------------------------------------
    row = EXPERIMENTS[experiment]
    exp_doc = _group(doc, "experiment")
    _require_keys(exp_doc, row, f"experiment of {experiment}")
    exp = {}
    for key, default in row.items():
        value = exp_doc.get(key, default)
        # null stays null where the default is; each rule returns a fresh value
        exp[key] = None if value is None and default is None else _EXPERIMENT_RULES[key](value, f"experiment.{key}")
    out_doc = _group(doc, "output")
    _require_keys(out_doc, {"dir"}, "output")

    return RunConfig(
        phys=phys,
        wave=wave,
        grid=grid,
        solver=solver,
        evolve=evolve_cfg,
        experiment=exp,
        output_dir=_path(out_doc.get("dir", "out"), "output.dir"),
    )
