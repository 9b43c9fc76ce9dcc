import contextlib
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls3 import cli, config, ground_state, snapshot
from dnls3.cli import run_subcommand
from dnls3.config import parse_config
from dnls3.errors import (
    Dnls3Error,
    FormatError,
    LengthMismatch,
    NoConvergence,
    NonFinite,
    ParseError,
    UnsupportedVersion,
    ValidationError,
)
from dnls3.evolution import EvolveConfig
from dnls3.functionals import FunctionalReport, evaluate
from dnls3.grid import Grid, State
from dnls3.ground_state import SolverConfig
from dnls3.params import PhysParams, WaveParams
from dnls3.snapshot import FORMAT_VERSION, load_field, save_field

from tests.conftest import random_state

MINIMAL = json.dumps(
    {
        "physics": {"alpha": 1, "beta": 1, "gamma": 1},
        "wave": {"omega": 1, "c": [0]},
        "grid": {"d": 1, "n": [512], "extent": [40]},
    }
)


class TestSnapshot:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        g = Grid((16, 16), (5.0, 7.5))
        state = random_state(g, rng, smooth=False)
        path = tmp_path / "field.ldsf"
        save_field(state, path)
        back = load_field(path)
        assert back.grid == g
        assert np.array_equal(back.u, state.u)
        save_field(back, tmp_path / "again.ldsf")
        assert (tmp_path / "again.ldsf").read_bytes() == path.read_bytes()

    def test_truncated_payload(self, rng, tmp_path):
        g = Grid(16, 5.0)
        path = tmp_path / "field.ldsf"
        save_field(random_state(g, rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(LengthMismatch):
            load_field(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ldsf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_field(path)

    def test_future_version(self, rng, tmp_path):
        g = Grid(16, 5.0)
        path = tmp_path / "field.ldsf"
        save_field(random_state(g, rng), path)
        blob = bytearray(path.read_bytes())
        blob[4] = FORMAT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersion):
            load_field(path)

    @pytest.mark.parametrize(
        "n, extent",
        [(7, 40.0), (16, -40.0), (16, float("nan")), (16, 5e-324), (16, 1e300)],
        ids=["n7", "negative_extent", "nan_extent", "subnormal_extent", "huge_extent"],
    )
    def test_header_without_a_grid(self, tmp_path, capsys, n, extent):
        # consistent magic, version and length, but no grid has these points or box
        path = tmp_path / "bad_header.ldsf"
        path.write_bytes(b"LDSF" + struct.pack("<IIQd", FORMAT_VERSION, 1, n, extent) + bytes(3 * n * 16))
        with pytest.raises(FormatError):
            load_field(path)
        cfg_path, _ = small_config(tmp_path, "check_bad_header", experiment={"field": str(path), "samples": 20})
        capsys.readouterr()
        assert run_subcommand(["check", "--config", str(cfg_path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "FormatError"


    def test_header_whose_point_product_wraps_around(self, tmp_path, monkeypatch):
        # in int64, 3 d prod(n) wraps to 0 for n = (2**32, 2**32), so this
        # header alone passed the length check and reached a Grid whose one
        # coordinate axis alone would take 32 GiB
        def no_grid(*args, **kwargs):
            raise AssertionError("the header reached Grid")

        monkeypatch.setattr(snapshot, "Grid", no_grid)
        path = tmp_path / "wrapped.ldsf"
        path.write_bytes(b"LDSF" + struct.pack("<II2Q2d", FORMAT_VERSION, 2, 2**32, 2**32, 40.0, 40.0))
        with pytest.raises(LengthMismatch, match=f"header promises {3 * 2 * 2**64 * 16}"):
            load_field(path)


class TestInputChecks:
    @pytest.mark.parametrize(
        "blob, error, fragment",
        [
            (b"LDSF\x01\x00\x00\x00", LengthMismatch, "truncated header"),
            (b"LDSF" + struct.pack("<II2Q", FORMAT_VERSION, 2, 16, 16), LengthMismatch, "truncated header"),
            (b"LDSF" + struct.pack("<II", FORMAT_VERSION, 4) + b"\x00" * 64, FormatError, "dimension 4 out of range"),
            (b"LDSF" + struct.pack("<II", FORMAT_VERSION, 0), FormatError, "dimension 0 out of range"),
        ],
        ids=["no-version-or-dimension", "no-extent", "dimension-4", "dimension-0"],
    )
    def test_snapshot_header_refused(self, tmp_path, capsys, monkeypatch, blob, error, fragment):
        path = tmp_path / "field.ldsf"
        path.write_bytes(blob)
        with pytest.raises(error, match=fragment):
            load_field(path)
        # named by experiment.field, the snapshot is read before any solve and any write
        cfg_path, outdir = small_config(tmp_path, "bad_header", experiment={"field": str(path), "samples": 20})
        monkeypatch.setattr(cli, "solve_ground_state", _no_solve)
        capsys.readouterr()
        assert run_subcommand(["check", "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == error.__name__ and fragment in record["message"]
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "source, written, error, field, fragment",
        [
            ("absent.json", None, ParseError, None, "cannot read config"),
            ("root.json", "[1, 2]", ParseError, None, "config root must be an object"),
            ('{"grid": {"n": []}}', None, ValidationError, "grid.n", "expected at least one point count"),
            ('{"grid": {"dealias": "yes"}}', None, ValidationError, "grid.dealias", "expected true/false"),
            ('{"grid": {"dealias": 1}}', None, ValidationError, "grid.dealias", "expected true/false"),
        ],
        ids=["unreadable-path", "list-root", "no-point-counts", "string-dealias", "int-dealias"],
    )
    def test_config_refused(self, tmp_path, capsys, monkeypatch, source, written, error, field, fragment):
        monkeypatch.chdir(tmp_path)
        if written is not None:
            Path(source).write_text(written)
        with pytest.raises(error, match=fragment) as info:
            parse_config(source)
        assert field is None or info.value.field == field
        capsys.readouterr()
        assert run_subcommand(["gs", "--config", source, "--out", "out"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == error.__name__ and fragment in record["message"]
        assert field is None or record["message"].startswith(f"{field}:")
        assert not Path("out").exists()


def _rule(value, whole=False, above=None, least=None):
    """The rule for a numeric setting written out: the value as an int (if whole) or a float, or None if refused.

    The values drawn below are Python ints, floats and bools, numpy bools and strings.
    """
    if type(value) not in (int, float) or not -sys.float_info.max <= value <= sys.float_info.max:
        return None
    if whole and not float(value).is_integer():
        return None
    if (above is not None and not value > above) or (least is not None and not value >= least):
        return None
    return int(value) if whole else float(value)


# each numeric config field: (field, subcommand, the config's rule, the object and its
# name for the value, the object's rule, and the field that names a value the rule
# passes but the object's own checks (a grid, an admissible pair, a window) refuse; a
# dispersion coefficient near float range makes the pair's margins overflow, which the
# pair refuses by the name wave)
NUMERIC_FIELDS = {
    "physics.alpha": ("gs", {"above": 0}, lambda v: PhysParams(alpha=v), "alpha", None, "wave"),
    "physics.beta": ("gs", {"above": 0}, lambda v: PhysParams(beta=v), "beta", None, "wave"),
    "physics.gamma": ("gs", {"above": 0}, lambda v: PhysParams(gamma=v), "gamma", None, "wave"),
    "solver.max_iter": ("gs", {"whole": True, "least": 1}, lambda v: SolverConfig(max_iter=v), "max_iter", None, None),
    "solver.residual_tol": ("gs", {"above": 0}, lambda v: SolverConfig(residual_tol=v), "residual_tol", None, None),
    "solver.seed": ("gs", {"whole": True, "least": 0}, lambda v: SolverConfig(seed=v), "seed", None, None),
    "solver.restarts": ("gs", {"whole": True, "least": 1}, lambda v: SolverConfig(restarts=v), "restarts", None, None),
    "evolve.dt": ("evolve", {"above": 0}, lambda v: EvolveConfig(dt=v), "dt", None, None),
    "evolve.t_final": ("evolve", {"least": 0}, lambda v: EvolveConfig(t_final=v), "t_final", None, None),
    "evolve.record_stride": (
        "evolve", {"whole": True, "least": 1}, lambda v: EvolveConfig(record_stride=v), "record_stride", None, None,
    ),
    "grid.n": ("gs", {"whole": True}, lambda v: Grid(v, 40.0), "points per axis", None, "grid"),
    "grid.d": ("gs", {"whole": True}, None, None, None, "grid.d"),
    "grid.extent": ("gs", {}, lambda v: Grid(16, v), "box length per axis", {"above": 0}, "grid"),
    "wave.omega": ("gs", {}, lambda v: WaveParams(v), "omega", {}, "wave"),
    "wave.c": ("gs", {}, lambda v: WaveParams(1.0, (v,)), "c", {}, "wave"),
    "experiment.samples": ("check", {"whole": True, "least": 1}, None, None, None, None),
    "experiment.delta": ("evolve", {}, None, None, None, None),
    "experiment.tau_step": ("h-curve", {"above": 0}, None, None, None, None),
    "experiment.omegas": ("mu-scan", {"above": 0}, None, None, None, None),
    "experiment.tau0s": ("stability", {"above": 0}, None, None, None, None),
    "experiment.window": ("decay", {}, None, None, None, "experiment.window"),
}
# bools, numpy bools, numeric strings, NaN, infinities, ints past float range, fractions and
# values below every bound, beside counts and reals; no power of two a grid could be built on
# beyond 1024 points, so an accepted count never allocates much
NUMERIC_VALUES = st.one_of(
    st.sampled_from(
        [
            True, False, np.True_, np.False_, "1", "512", "0.5", float("nan"), float("inf"), float("-inf"),
            2**1100, -(2**1100), 2**1024, 2**1023, 10**400, 0, -1, 1, 8, 16, 512, 0.0, -0.0, 0.5, 1.5, 16.0,
            512.7, -2.5, 1e-300, 1e308,
        ]
    ),
    st.integers(-1024, 1024),
    st.floats(-1024.0, 1024.0),
)


def _numeric_config(field, value, lone):
    """A small valid document with ``value`` at ``field``: as a list entry where the field is a list, or alone."""
    doc = {"physics": {}, "wave": {"omega": 1, "c": [0]}, "grid": {"n": [256], "extent": [40]}, "solver": {"restarts": 1}}
    group, key = field.split(".")
    entry = {"window": [value, 0.9], "omegas": [value], "tau0s": [value]}.get(key, value)
    if key in ("n", "extent", "c") and not lone:
        entry = [value]
    doc.setdefault(group, {})[key] = entry
    # json writes a numpy bool as the bool it is
    return json.dumps(doc, default=bool)


class TestConfig:
    @settings(max_examples=400, deadline=None)
    @given(field=st.sampled_from(sorted(NUMERIC_FIELDS)), value=NUMERIC_VALUES, lone=st.booleans())
    @example(field="grid.extent", value=5e-324, lone=False)
    def test_every_numeric_setting_is_judged_by_one_rule(self, field, value, lone):
        # the config's reader and the object that holds the value accept it or refuse it by
        # name, whatever it is: at the parent 2**1100 raised OverflowError, and the objects
        # accepted or raised TypeError on values the config refused
        command, rule, build, name, object_rule, domain_field = NUMERIC_FIELDS[field]
        expected = _rule(value, **rule)
        text = _numeric_config(field, value, lone)
        try:
            cfg = parse_config(text, experiment=command)
        except ValidationError as exc:
            assert exc.field == field if expected is None else exc.field == domain_field
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
                out = Path(tmp) / "out"
                assert run_subcommand([command, "--config", text, "--out", str(out)]) == 2
                assert not out.exists()
            assert json.loads(err.getvalue())["message"].startswith(f"{exc.field}:")
        else:
            assert expected is not None
            group, key = field.split(".")
            read = {
                "physics": cfg.phys, "solver": cfg.solver, "evolve": cfg.evolve, "grid": cfg.grid, "wave": cfg.wave,
            }.get(group, cfg.experiment)
            read = read[key] if group == "experiment" else getattr(read, key)
            read = read[0] if isinstance(read, (list, tuple)) else read
            assert read == expected and type(read) is type(expected)
        if build is None:
            return
        expected = _rule(value, **(rule if object_rule is None else object_rule))
        try:
            built = build(value)
        except ValueError as exc:
            assert name in str(exc)
            # only a grid refuses more than its rule: counts that are no power of two, and boxes
            # too small for the cell or the wavenumbers to fit in a float (5e-324 raised
            # ZeroDivisionError, and 1e-300 built infinite wavenumbers)
            assert expected is None or field in ("grid.n", "grid.extent")
        else:
            assert expected is not None
            assert built is not None

    @pytest.mark.parametrize(
        "command, group, value, field",
        [
            ("gs", "grid", {"n": [2**1100]}, "grid.n"),
            ("gs", "grid", {"n": 2**1100}, "grid.n"),
            ("gs", "grid", {"extent": [-(2**1100)]}, "grid.extent"),
            ("gs", "wave", {"omega": 2**1100}, "wave.omega"),
            ("gs", "physics", {"alpha": 2**1100}, "physics.alpha"),
            ("gs", "solver", {"seed": 2**1100}, "solver.seed"),
            ("gs", "solver", {"max_iter": 2**1100}, "solver.max_iter"),
            ("evolve", "evolve", {"record_stride": 2**1100}, "evolve.record_stride"),
            ("mu-scan", "experiment", {"omegas": [2**1100]}, "experiment.omegas"),
            ("check", "experiment", {"samples": 2**1100}, "experiment.samples"),
            ("gs", "wave", {"omega": 1e308}, "wave"),
            ("gs", "grid", {"extent": [1e300]}, "grid"),
        ],
        ids=[
            "n", "lone_n", "extent", "omega", "alpha", "seed", "max_iter", "record_stride", "omegas", "samples", "margins",
            "huge_box",
        ],
    )
    def test_ints_past_float_range_refused_by_name(self, tmp_path, capsys, command, group, value, field):
        # each raised OverflowError past the run's start, omega 1e308, whose margins
        # overflow, wrote effective_config.json and exited 3 on Lqc=inf, and a box of 1e300,
        # whose squared radii overflow, did the same on Lqc=4.688e+298
        cfg_path, outdir = small_config(tmp_path, "huge", **{group: value})
        with pytest.raises(ValidationError) as info:
            parse_config(str(cfg_path), experiment=command)
        assert info.value.field == field
        capsys.readouterr()
        assert run_subcommand([command, "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith(f"{field}:")
        assert not outdir.exists()

    def test_seed_flag_past_float_range_refused_by_name(self, tmp_path, capsys):
        cfg_path, outdir = small_config(tmp_path, "huge_seed")
        capsys.readouterr()
        assert run_subcommand(["gs", "--config", str(cfg_path), "--seed", str(2**1100)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["message"].startswith("solver.seed:")
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "text", ["1.5", "-1", "true", '"3"', "NaN", "1e400", "abc", ""],
        ids=["fraction", "negative", "bool", "string", "nan", "inf", "not-json", "empty"],
    )
    def test_seed_flag_refused_as_the_key_is(self, tmp_path, capsys, text):
        # argparse's int() read the flag: --seed 1.5 printed its usage text and no JSON record
        cfg_path, outdir = small_config(tmp_path, "bad_seed")
        capsys.readouterr()
        assert run_subcommand(["gs", "--config", str(cfg_path), "--seed", text]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError" and record["message"].startswith("solver.seed:")
        assert not outdir.exists()

    @pytest.mark.parametrize("text", ["3", "3.0", "3e0"])
    def test_seed_flag_accepted_as_the_key_is(self, tmp_path, text):
        # --seed 3.0 was refused, although solver.seed: 3.0 is accepted as 3
        cfg_path, _ = small_config(tmp_path, "seed")
        flag = cli._load_config(cli._build_parser().parse_args(["gs", "--config", str(cfg_path), "--seed", text]), "gs")
        key_path, _ = small_config(tmp_path, "seed", solver={"seed": json.loads(text)})
        key = parse_config(str(key_path))
        assert flag.solver == key.solver == SolverConfig(seed=3, restarts=1)
        assert type(flag.solver.seed) is int and flag.config_hash() == key.config_hash()

    def test_integer_literal_too_long_to_read(self, tmp_path, capsys):
        # Python reads no int literal of more than 4300 digits: json.loads raised a bare ValueError
        text = MINIMAL.replace("[512]", "[" + "1" * 5000 + "]")
        with pytest.raises(ParseError):
            parse_config(text)
        capsys.readouterr()
        assert run_subcommand(["gs", "--config", text, "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ParseError"
        assert not (tmp_path / "out").exists()

    def test_constructors_name_the_value_they_refuse(self):
        # PhysParams took True as 1 and raised TypeError on "1"; Grid raised OverflowError on 2**1100
        for value in (True, np.True_, "1", 2**1100):
            with pytest.raises(ValueError, match="alpha"):
                PhysParams(alpha=value)
        with pytest.raises(ValueError, match="points per axis"):
            Grid(2**1100, 40.0)
        with pytest.raises(ValueError, match="points per axis"):
            Grid(2**1000, 40.0)
        assert PhysParams(1, 2, 1) == PhysParams(1.0, 2.0, 1.0)
        assert type(PhysParams(alpha=1).alpha) is float

    def test_minimal_config_accepts_and_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.n == (512,)
        assert cfg.solver.max_iter == 20000
        assert cfg.solver.residual_tol == 1e-9
        assert cfg.evolve.scheme == "strang"
        # canonical form is stable, also when a point count is written as an integral float
        assert cfg.config_hash() == parse_config(MINIMAL).config_hash()
        assert cfg.config_hash() == parse_config(MINIMAL.replace("[512]", "[512.0]")).config_hash()

    @pytest.mark.parametrize("source", ["{}", MINIMAL], ids=["empty", "minimal"])
    def test_effective_sections_are_the_parsed_objects(self, source):
        cfg = parse_config(source)
        assert cfg.effective["physics"] == dataclasses.asdict(cfg.phys)
        assert cfg.effective["solver"] == dataclasses.asdict(cfg.solver)
        assert cfg.effective["evolve"] == dataclasses.asdict(cfg.evolve)
        if source == "{}":
            # every default is the dataclass's own
            assert (cfg.phys, cfg.solver, cfg.evolve) == (PhysParams(), SolverConfig(), EvolveConfig())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: PhysParams(alpha=x),
            lambda x: PhysParams(gamma=x),
            lambda x: SolverConfig(max_iter=x),
            lambda x: SolverConfig(residual_tol=x),
            lambda x: SolverConfig(seed=x),
            lambda x: SolverConfig(restarts=x),
            lambda x: EvolveConfig(dt=x),
            lambda x: EvolveConfig(t_final=x),
            lambda x: EvolveConfig(record_stride=x),
        ],
        ids=[
            "alpha", "gamma", "max_iter", "residual_tol", "seed", "restarts", "dt", "t_final", "record_stride",
        ],
    )
    def test_parameter_objects_reject_nonfinite(self, build, bad):
        # a NaN made evolve return one record, or fail converting a step
        # count, and made the solver raise NoConvergence after 0 iterations
        with pytest.raises(ValueError):
            build(bad)

    def test_inadmissible_rejected(self):
        doc = json.loads(MINIMAL)
        doc["wave"] = {"omega": 0.1, "c": [1.0]}
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_unknown_key_named(self):
        doc = json.loads(MINIMAL)
        doc["wave"]["omga"] = 1.0
        with pytest.raises(ParseError, match="omga"):
            parse_config(json.dumps(doc))

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_config('{"physics": \n {bad}}')

    def test_type_errors(self):
        doc = json.loads(MINIMAL)
        doc["solver"] = {"max_iter": "many"}
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_step_size_rejected_by_name(self):
        # neither the step size nor the seed profile's shape is a setting
        for key, value in (("step_size", 0.5), ("ansatz", {"width": 1.5})):
            doc = json.loads(MINIMAL)
            doc["solver"] = {key: value}
            with pytest.raises(ParseError, match=key):
                parse_config(json.dumps(doc))
            assert key not in parse_config(MINIMAL).effective["solver"]

    @pytest.mark.parametrize("source", ["{}", MINIMAL], ids=["empty", "minimal"])
    def test_effective_document_parses_to_itself(self, source):
        # each subcommand's document lists exactly the experiment keys it reads, defaults included
        rows = {
            "gs": {},
            "evolve": {"field": None, "delta": 0.0},
            "check": {"field": None, "samples": 200},
            "mu-scan": {"omegas": [0.5, 1.0, 2.0, 4.0]},
            "h-curve": {"tau_step": None},
            "stability": {"delta": 0.01, "tau0s": None},
            "decay": {"field": None, "window": [0.5, 0.9]},
        }
        assert set(rows) == set(cli.COMMANDS)
        for command, row in rows.items():
            cfg = parse_config(source, experiment=command)
            written = json.dumps(cfg.effective, sort_keys=True, indent=2)
            assert json.loads(written)["experiment"] == row
            again = parse_config(written, experiment=command)
            assert again.effective == cfg.effective
            assert again.config_hash() == cfg.config_hash()

    def test_every_subcommand_has_an_experiment_row(self):
        assert config.EXPERIMENTS.keys() == cli.COMMANDS.keys()

    @pytest.mark.parametrize(
        "command, key, value",
        [("gs", "delta", 1e-3), ("stability", "field", "ground_state.ldsf"), ("check", "window", [0.5, 0.9])],
        ids=["gs_delta", "stability_field", "check_window"],
    )
    def test_key_the_subcommand_does_not_read(self, tmp_path, capsys, command, key, value):
        cfg_path, _ = small_config(tmp_path, "unread_key", experiment={key: value})
        with pytest.raises(ParseError, match=key):
            parse_config(str(cfg_path), experiment=command)
        capsys.readouterr()
        assert run_subcommand([command, "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"
        assert repr(key) in record["message"]

    @pytest.mark.parametrize(
        "group, value, field",
        [
            ("grid", {"n": [512.7]}, "grid.n"),
            ("wave", {"c": [True]}, "wave.c"),
            ("wave", {"c": ["a"]}, "wave.c"),
            ("grid", {"extent": [True]}, "grid.extent"),
            ("grid", {"d": True}, "grid.d"),
            ("evolve", {"dt": float("nan")}, "evolve.dt"),
            ("evolve", {"dt": float("inf")}, "evolve.dt"),
            ("evolve", {"t_final": float("nan")}, "evolve.t_final"),
            ("solver", {"residual_tol": float("inf")}, "solver.residual_tol"),
            ("solver", {"seed": -1}, "solver.seed"),
            ("solver", {"seed": 1.5}, "solver.seed"),
            ("wave", {"c": [0.1, 0.2]}, "wave.c"),
            ("physics", 5, "physics"),
            ("experiment", [1], "experiment"),
            ("experiment", {"field": 5}, "experiment.field"),
            ("experiment", {"field": ""}, "experiment.field"),
            ("output", {"dir": 5}, "output.dir"),
        ],
        ids=[
            "fractional_n", "bool_c", "string_c", "bool_extent", "bool_d", "nan_dt", "inf_dt", "nan_t_final",
            "inf_residual_tol", "negative_seed", "fractional_seed", "long_c", "scalar_group", "list_group", "int_field",
            "empty_field", "int_output_dir",
        ],
    )
    def test_entries_validated(self, tmp_path, capsys, group, value, field):
        # a dict value is merged into its group, any other value replaces the group;
        # check is a subcommand that reads experiment.field
        doc = json.loads(MINIMAL)
        if isinstance(value, dict):
            doc.setdefault(group, {}).update(value)
        else:
            doc[group] = value
        with pytest.raises(ValidationError) as info:
            parse_config(json.dumps(doc), experiment="check")
        assert info.value.field == field
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_subcommand(["check", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "command, value, field",
        [
            ("check", {"samples": 0}, "experiment.samples"),
            ("check", {"samples": -5}, "experiment.samples"),
            ("check", {"samples": 2.5}, "experiment.samples"),
            ("check", {"samples": "x"}, "experiment.samples"),
            ("evolve", {"delta": "big"}, "experiment.delta"),
            ("h-curve", {"tau_step": 0}, "experiment.tau_step"),
            ("mu-scan", {"omegas": 2}, "experiment.omegas"),
            ("mu-scan", {"omegas": [1.0, -2.0]}, "experiment.omegas"),
            ("check --seed -1", {}, "solver.seed"),
            ("decay", {"window": 5}, "experiment.window"),
            ("decay", {"window": [0.9, 0.5]}, "experiment.window"),
            ("decay", {"window": [0.5]}, "experiment.window"),
            ("stability", {"tau0s": 3}, "experiment.tau0s"),
            ("stability", {"tau0s": []}, "experiment.tau0s"),
            ("stability", {"tau0s": [0.05, -0.1]}, "experiment.tau0s"),
        ],
        ids=[
            "zero_samples", "negative_samples", "fractional_samples", "string_samples",
            "string_delta", "zero_tau_step", "scalar_omegas", "negative_omega", "negative_seed_flag",
            "scalar_window", "reversed_window", "one_bound_window", "scalar_tau0s", "empty_tau0s", "negative_tau0",
        ],
    )
    def test_experiment_entries_validated(self, tmp_path, capsys, command, value, field):
        cfg_path, _ = small_config(tmp_path, "bad_experiment", experiment=value)
        capsys.readouterr()
        assert run_subcommand([*command.split(), "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith(f"{field}:")

    def test_grid_dimension_consistency(self):
        doc = json.loads(MINIMAL)
        doc["grid"] = {"d": 2, "n": [64]}
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))


def test_write_json_writes_numpy_values_as_their_python_values(tmp_path):
    # numpy scalars (a bool included), 0-d and 2-d arrays, NaN and inf, nested in tuples and dicts
    payload = {
        "f64": np.float64(0.1),
        "f32": np.float32(0.1),
        "i64": np.int64(-7),
        "flag": np.bool_(True),
        "nested": ({"nan": np.float64(np.nan), "inf": np.array(-np.inf)}, (np.int32(3), np.False_)),
        "grid": np.array([[1.5, np.nan], [np.inf, 2.0]]),
        "ints": np.arange(3),
    }
    plain = {
        "f64": 0.1,
        "f32": float(np.float32(0.1)),
        "i64": -7,
        "flag": True,
        "nested": [{"nan": float("nan"), "inf": float("-inf")}, [3, False]],
        "grid": [[1.5, float("nan")], [float("inf"), 2.0]],
        "ints": [0, 1, 2],
    }
    cli._write_json(tmp_path / "numpy.json", payload)
    cli._write_json(tmp_path / "plain.json", plain)
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def small_config(tmp_path, outname, **overrides):
    doc = {
        "physics": {"alpha": 1, "beta": 1, "gamma": 1},
        "wave": {"omega": 1, "c": [0]},
        "grid": {"d": 1, "n": [256], "extent": [40]},
        "solver": {"restarts": 1},
        "output": {"dir": str(tmp_path / outname)},
    }
    for key, val in overrides.items():
        doc.setdefault(key, {}).update(val)
    path = tmp_path / f"{outname}.json"
    path.write_text(json.dumps(doc))
    return path, tmp_path / outname


def _no_solve(*args, **kwargs):
    raise AssertionError("solved although the run's inputs are invalid")


class TestCli:
    def test_gs_subcommand(self, tmp_path):
        cfg_path, outdir = small_config(tmp_path, "gs_run")
        code = run_subcommand(["gs", "--config", str(cfg_path)])
        assert code == 0
        payload = json.loads((outdir / "ground_state.json").read_text())
        assert payload["mu"] > 0
        assert payload["final_residual"] < 1e-9
        assert (outdir / "ground_state.ldsf").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["field_format_version"] == 1
        assert manifest["subcommand"] == "gs"

    def test_gs_solver_history(self, tmp_path):
        # the descent's history and termination are deterministic outputs too
        runs = []
        for name in ("hist_a", "hist_b"):
            cfg_path, outdir = small_config(tmp_path, name, solver={"restarts": 2})
            assert run_subcommand(["gs", "--config", str(cfg_path), "--seed", "5"]) == 0
            names = ("solver_history.csv", "ground_state.json", "ground_state.ldsf")
            runs.append({name: (outdir / name).read_bytes() for name in names})
        assert runs[0] == runs[1]
        payload = json.loads(runs[0]["ground_state.json"])
        assert payload["termination"] == ["converged"]
        lines = runs[0]["solver_history.csv"].decode().splitlines()
        assert lines[0] == "descent,iteration,S,residual,step,mixed"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert len(rows) == payload["iterations"] + 1
        assert np.array_equal(rows[:, 1], np.arange(len(rows)))
        assert rows[-1, 2] == payload["mu"]
        assert rows[-1, 3] == payload["final_residual"]
        assert set(rows[:, 5]) == {0.0, 1.0}

    def test_gs_evaluates_only_the_ansatz(self, tmp_path, evaluate_calls):
        cfg_path, outdir = small_config(tmp_path, "gs_once")
        assert run_subcommand(["gs", "--config", str(cfg_path)]) == 0
        # the identity verdict is read off the solver's report: no evaluation beyond the ansatz
        assert evaluate_calls["calls"] == 1
        assert json.loads((outdir / "ground_state.json").read_text())["identities_passed"] is True

    def test_validation_exit_code(self, tmp_path):
        doc = {"physics": {"alpha": 1, "beta": 1, "gamma": 1}, "wave": {"omega": 0.1, "c": [1.0]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_subcommand(["gs", "--config", str(path)]) == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg_path, _ = small_config(tmp_path, "noconv", solver={"max_iter": 2, "restarts": 1})
        assert run_subcommand(["gs", "--config", str(cfg_path)]) == 3

    def test_gs_keeps_failed_descents(self, tmp_path, capsys):
        # every descent fails: their histories and terminations still reach the output
        cfg_path, outdir = small_config(tmp_path, "noconv_hist", solver={"max_iter": 3, "restarts": 2})
        capsys.readouterr()
        assert run_subcommand(["gs", "--config", str(cfg_path)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NoConvergence"
        assert record["termination"] == ["iteration_cap", "iteration_cap"]
        lines = (outdir / "solver_history.csv").read_text().splitlines()
        assert lines[0] == "descent,iteration,S,residual,step,mixed"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, 0], np.repeat([0.0, 1.0], 4))
        assert np.array_equal(rows[:, 1], np.tile(np.arange(4.0), 2))
        assert not (outdir / "ground_state.json").exists()

    @pytest.mark.parametrize("subcommand", ["gs", "evolve", "check", "decay", "stability", "h-curve"])
    @pytest.mark.parametrize(
        "error,overrides,termination",
        [
            ("NoConvergence", {"solver": {"max_iter": 1}}, ["iteration_cap"]),
            # the descent converges, and the box check refuses its profile
            ("DomainTooSmall", {"grid": {"n": [128], "extent": [14]}}, ["converged"]),
        ],
        ids=["NoConvergence", "DomainTooSmall"],
    )
    def test_failed_solve_keeps_its_descents(self, tmp_path, capsys, subcommand, error, overrides, termination):
        # every subcommand that solves keeps a failed solve's descents and a manifest whose error is the stderr record
        cfg_path, outdir = small_config(tmp_path, "failed", evolve={"dt": 1e-3, "t_final": 0.01}, **overrides)
        capsys.readouterr()
        assert run_subcommand([subcommand, "--config", str(cfg_path)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["termination"]) == (error, termination)
        lines = (outdir / "solver_history.csv").read_text().splitlines()[1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert set(rows[:, 0]) == {0.0}
        assert _descent_confirms(termination[0], rows, parse_config(str(cfg_path)).solver)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["subcommand"], manifest["exit_code"], manifest["error"]) == (subcommand, 3, record)

    @pytest.mark.parametrize("subcommand,name", [("evolve", "trace.csv"), ("stability", "stability.csv")])
    def test_diverging_run_keeps_its_trace(self, tmp_path, capsys, subcommand, name):
        # a kick of 200 on a step of 0.05 overflows the state: the records before it are kept
        cfg_path, outdir = small_config(
            tmp_path, f"diverge_{subcommand}", evolve={"dt": 0.05, "t_final": 1.0}, experiment={"delta": 200}
        )
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_subcommand([subcommand, "--config", str(cfg_path)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NonFinite"
        assert record["divergence_time"] == pytest.approx(0.15)
        lines = (outdir / name).read_text().splitlines()
        assert lines[0] == "t,Q,E,P_1,S,K,h1norm,orbit_dist"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert len(rows) >= 1 and rows[0, 0] == 0.0
        assert np.all(rows[:, 0] < record["divergence_time"]) and np.all(np.isfinite(rows))

    def test_wrong_dimension_exit_code(self, tmp_path, capsys, monkeypatch):
        # a 3D h-curve is an invalid input: it exited 3 after writing effective_config.json
        cfg_path, outdir = small_config(
            tmp_path, "hc_3d", grid={"d": 3, "n": [8, 8, 8], "extent": [10, 10, 10]}, wave={"c": [0, 0, 0]}
        )
        monkeypatch.setattr(ground_state, "solve_ground_state", _no_solve)
        capsys.readouterr()
        assert run_subcommand(["h-curve", "--config", str(cfg_path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "WrongDimension"
        assert not outdir.exists()

    def test_decay_window_without_grid_points_exit_code(self, tmp_path, capsys, monkeypatch):
        # on 512/40 no point has a radius in [18, 18.002]: the run exited 3 after a solve and a write
        cfg_path, outdir = small_config(tmp_path, "decay_empty", grid={"n": [512]}, experiment={"window": [0.9, 0.9001]})
        monkeypatch.setattr(cli, "solve_ground_state", _no_solve)
        capsys.readouterr()
        assert run_subcommand(["decay", "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "FitWindowEmpty"
        assert "[18, 18]" in record["message"]
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "case, field",
        [
            ("missing_field", "experiment.field"),
            ("directory_field", "experiment.field"),
            ("outdir_is_a_file", "output.dir"),
            ("outdir_under_a_file", "output.dir"),
        ],
    )
    def test_unreadable_input_or_output_exit_code(self, tmp_path, capsys, case, field):
        # a path the operating system refuses is an invalid input, named by its config field
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        experiment, outdir = {
            "missing_field": ({"field": str(tmp_path / "absent.ldsf"), "samples": 20}, None),
            "directory_field": ({"field": str(tmp_path), "samples": 20}, None),
            "outdir_is_a_file": ({"samples": 20}, blocker),
            "outdir_under_a_file": ({"samples": 20}, blocker / "out"),
        }[case]
        overrides = {"experiment": experiment}
        if outdir is not None:
            overrides["output"] = {"dir": str(outdir)}
        cfg_path, default_out = small_config(tmp_path, case, **overrides)
        capsys.readouterr()
        assert run_subcommand(["check", "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith(f"{field}:")
        if field == "experiment.field":
            # the input is read before the output directory is made
            assert not default_out.exists()

    @pytest.mark.parametrize("tau0s", [[1.0, 1.5, 2.5], [2.5]], ids=["omega_minus_zero", "omega_minus_above"])
    def test_stability_rejects_tau0_off_the_curve(self, tmp_path, capsys, monkeypatch, tau0s):
        # at omega = 1 a tau0 >= 1 moves the lower shifted pair off the scaling curve
        cfg_path, outdir = small_config(
            tmp_path,
            "stab_tau0",
            wave={"c": [0.3]},
            evolve={"dt": 1e-3, "t_final": 0.01},
            experiment={"tau0s": tau0s},
        )
        monkeypatch.setattr(cli, "solve_ground_state", _no_solve)
        capsys.readouterr()
        assert run_subcommand(["stability", "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InadmissibleParameters"
        assert "tau0=" in record["message"]
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"experiment": {"tau_step": 0.5}}, "tau_step="),
            ({"experiment": {"tau_step": 2.8}}, "tau_step="),
            ({"wave": {"omega": 2e307}}, "(omega, c)=(2.4200000000000004e+307, [0.0]) is not admissible"),
        ],
        ids=["0.5", "2.8", "margins"],
    )
    def test_h_curve_rejects_tau_step_off_the_curve(self, tmp_path, capsys, monkeypatch, overrides, fragment):
        # at omega = 1 the point at tau = 2 tau_step leaves the scaling curve once 2 tau_step >= 1;
        # at omega = 2e307 the margins of the point at tau = -2 tau_step pass float range, and
        # the run wrote effective_config.json before its solve refused that point
        cfg_path, outdir = small_config(tmp_path, "hc_tau", **overrides)
        monkeypatch.setattr(ground_state, "solve_ground_state", _no_solve)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_subcommand(["h-curve", "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InadmissibleParameters"
        assert fragment in record["message"]
        assert not outdir.exists()

    def test_mu_scan_checks_its_unit_pair_before_writing(self, tmp_path, capsys, monkeypatch):
        # (4, [3]) is admissible, but mu-scan solves along the curve through (1, [3]), which is not:
        # the run wrote effective_config.json, then failed on omega=1.0, a value the config never set;
        # the margins of the point at omega = 1e308 pass float range, and the run wrote
        # mu_scan.csv and its manifest before it exited 3 on that point
        monkeypatch.setattr(ground_state, "solve_ground_state", _no_solve)
        for name, wave, omegas, fragment in (
            ("mu_unit", {"omega": 4, "c": [3]}, [4.0], "unit pair (1, c)=(1, [3.0])"),
            ("mu_margins", {}, [1.0, 1e308], "(omega, c)=(1e+308, [0.0]) is not admissible"),
        ):
            cfg_path, outdir = small_config(tmp_path, name, wave=wave, experiment={"omegas": omegas})
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_subcommand(["mu-scan", "--config", str(cfg_path)]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "InadmissibleParameters"
            assert fragment in record["message"]
            assert not outdir.exists()

    def test_empty_out_refused_as_output_dir(self, tmp_path, capsys, monkeypatch):
        # --out '' ran in the working directory and wrote an effective_config.json that did not parse
        monkeypatch.chdir(tmp_path)
        cfg_path, outdir = small_config(tmp_path, "empty_out")
        monkeypatch.setattr(cli, "solve_ground_state", _no_solve)
        capsys.readouterr()
        assert run_subcommand(["gs", "--config", str(cfg_path), "--out", ""]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("output.dir:")
        assert sorted(p.name for p in tmp_path.iterdir()) == [cfg_path.name]

    def test_divergence_time_in_error_record(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise NonFinite(0.5)

        monkeypatch.setattr(cli, "evolve", diverge)
        cfg_path, _ = small_config(tmp_path, "diverge", evolve={"dt": 1e-3, "t_final": 1.0})
        capsys.readouterr()
        assert run_subcommand(["evolve", "--config", str(cfg_path)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NonFinite"
        assert record["divergence_time"] == 0.5

    def test_manifest_records_the_exit(self, tmp_path, capsys, monkeypatch):
        # a NonFinite with no trace writes no trace file, and its record still reaches the manifest
        def diverge(*args, **kwargs):
            raise NonFinite(0.5)

        monkeypatch.setattr(cli, "evolve", diverge)
        cfg_path, outdir = small_config(tmp_path, "diverge_no_trace", evolve={"dt": 1e-3, "t_final": 1.0})
        capsys.readouterr()
        assert run_subcommand(["evolve", "--config", str(cfg_path)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["exit_code"], manifest["error"]) == (3, record)
        assert sorted(p.name for p in outdir.iterdir()) == ["effective_config.json", "manifest.json"]

    @pytest.mark.parametrize(
        "physics,unknown",
        [({"alpha": 1, "beta": 1, "gamma": 1}, True), ({"alpha": 2, "beta": 1, "gamma": 3}, False)],
        ids=["kappa-1-1-1", "kappa-2-1-3"],
    )
    def test_manifest_records_the_regime_flag(self, tmp_path, physics, unknown):
        # (alpha - gamma)(beta + gamma) = 0 is outside the known well-posedness regime: every manifest says so
        cfg_path, outdir = small_config(tmp_path, "regime", physics=physics)
        assert run_subcommand(["gs", "--config", str(cfg_path)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["well_posedness_unknown"], manifest["exit_code"], manifest["error"]) == (unknown, 0, None)
        assert PhysParams(**physics).well_posedness_unknown is unknown

    def test_evolve_zero_time_single_row(self, tmp_path):
        cfg_path, outdir = small_config(
            tmp_path, "ev0", evolve={"dt": 1e-3, "t_final": 0.0}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_subcommand(["evolve", "--config", str(cfg_path)])
        assert code == 0
        lines = (outdir / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,Q,E,P_1,S,K,h1norm,orbit_dist"
        assert len(lines) == 2

    def test_effective_config_file_parses_to_itself(self, tmp_path):
        cfg_path, _ = small_config(tmp_path, "as_written")
        outdir = tmp_path / "overridden"
        assert run_subcommand(["gs", "--config", str(cfg_path), "--seed", "7", "--out", str(outdir)]) == 0
        written = outdir / "effective_config.json"
        again = parse_config(str(written))
        assert again.effective == json.loads(written.read_text())
        assert (again.solver.seed, again.output_dir) == (7, str(outdir))
        assert again.config_hash() == json.loads((outdir / "manifest.json").read_text())["config_hash"]

    def test_evolve_starts_from_the_field(self, tmp_path, rng, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("evolve solved a ground state although experiment.field is set")

        field = tmp_path / "start.ldsf"
        start = random_state(Grid(256, 40.0), rng)
        save_field(start, field)
        monkeypatch.setattr(cli, "solve_ground_state", no_solve)
        cfg_path, outdir = small_config(
            tmp_path, "ev_field", evolve={"dt": 1e-3, "t_final": 0.0}, experiment={"field": str(field)}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_subcommand(["evolve", "--config", str(cfg_path)]) == 0
        lines = (outdir / "trace.csv").read_text().strip().splitlines()
        # no solved profile, so no orbit-distance reference
        assert lines[0] == "t,Q,E,P_1,S,K,h1norm"
        q_start = evaluate(start, PhysParams(), WaveParams(1.0)).Q
        assert float(lines[1].split(",")[1]) == pytest.approx(q_start, rel=1e-12)

    def test_check_subcommand(self, tmp_path):
        cfg_path, outdir = small_config(tmp_path, "check_run", experiment={"samples": 40})
        code = run_subcommand(["check", "--config", str(cfg_path)])
        payload = json.loads((outdir / "check.json").read_text())
        assert code == 0
        assert payload["passed"] is True
        assert payload["well_disagreements"] == 0
        assert max(payload["identity_residuals"].values()) < 1e-13

    @pytest.mark.parametrize("kept", [9, 0])
    def test_check_fails_on_fewer_samples(self, tmp_path, monkeypatch, kept):
        # a sampler that stops short (say at its draw cap) leaves the well equality unchecked
        sample = cli.reports_below_level

        def first(*args):
            batch = sample(*args)
            Q, L, N, P = (getattr(batch, name)[:kept] for name in "QLNP")
            return FunctionalReport.from_parts(Q, L, N, P, batch.omega, batch.c)

        monkeypatch.setattr(cli, "reports_below_level", first)
        cfg_path, outdir = small_config(tmp_path, "short_check", experiment={"samples": 10})
        assert run_subcommand(["check", "--config", str(cfg_path)]) == 3
        payload = json.loads((outdir / "check.json").read_text())
        assert payload["passed"] is False
        assert payload["identities_passed"] is True
        assert (payload["well_samples"], payload["well_disagreements"]) == (kept, 0)

    @pytest.mark.parametrize(
        "omega, c, code", [(1.0000000000000002, 2.0, 3), (2.5e-319, 1e-159, 2)], ids=["one_float_from_edge", "underflow"]
    )
    def test_check_certificate_at_the_admissibility_edge(self, tmp_path, rng, capsys, omega, c, code):
        # the first pair is admissible by one float and keeps a positive certificate; the random
        # field fails the identities, so the run ends 3. The second underflows and is refused.
        field = tmp_path / "edge.ldsf"
        save_field(random_state(Grid(64, 40.0), rng), field)
        cfg_path, outdir = small_config(
            tmp_path,
            "edge_check",
            wave={"omega": omega, "c": [c]},
            grid={"n": [64]},
            experiment={"field": str(field), "samples": 20},
        )
        capsys.readouterr()
        assert run_subcommand(["check", "--config", str(cfg_path)]) == code
        if code == 3:
            assert json.loads((outdir / "check.json").read_text())["coercivity"]["min_coeff"] > 0.0
        else:
            assert json.loads(capsys.readouterr().err.strip())["error"] == "InadmissibleParameters"

    def test_byte_reproducibility(self, tmp_path):
        outputs = []
        for name in ("rep_a", "rep_b"):
            cfg_path, outdir = small_config(
                tmp_path,
                name,
                evolve={"dt": 1e-2, "t_final": 0.05, "record_stride": 2},
                experiment={"delta": 1e-3},
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = run_subcommand(["evolve", "--config", str(cfg_path), "--seed", "11"])
            assert code == 0
            outputs.append((outdir / "trace.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_decay_subcommand(self, tmp_path):
        # the tail fit needs the residual converged below the tail amplitudes
        cfg_path, outdir = small_config(
            tmp_path, "decay_run", grid={"n": [512]}, solver={"residual_tol": 1e-11}
        )
        code = run_subcommand(["decay", "--config", str(cfg_path)])
        assert code == 0
        payload = json.loads((outdir / "decay.json").read_text())
        assert payload["half_bound"] == 1.0
        assert min(payload["rates"]) > 0.9
        # the exact rates at (omega, c) = (1, 0): sqrt(8)/2 and 1
        assert payload["exact_rates"] == pytest.approx([np.sqrt(2.0), 1.0, 1.0], rel=1e-15)

    def test_mu_scan_subcommand(self, tmp_path):
        cfg_path, outdir = small_config(
            tmp_path, "scan_run", experiment={"omegas": [1.0, 2.0]}
        )
        assert run_subcommand(["mu-scan", "--config", str(cfg_path)]) == 0
        lines = (outdir / "mu_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "omega,mu,mu_predicted,rel_error,q_scaling_error,status"
        assert len(lines) == 3
        q_errors = [float(line.split(",")[-2]) for line in lines[1:]]
        assert all(np.isfinite(q) and q < 1e-4 for q in q_errors)
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_mu_scan_writes_the_points_that_solve(self, tmp_path):
        # at c = 0.3 the omega = 4 profile leaves too much tail in the 40-box:
        # the run fails, and still writes the three points that solved
        cfg_path, outdir = small_config(tmp_path, "scan_fail", wave={"c": [0.3]})
        assert run_subcommand(["mu-scan", "--config", str(cfg_path)]) == 3
        lines = (outdir / "mu_scan.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["0.5", "1", "2", "4"]
        assert [row[-1] for row in rows] == ["ok", "ok", "ok", "DomainTooSmall"]
        for row in rows[:3]:
            assert all(np.isfinite(float(v)) for v in row[1:-1])
            assert float(row[-2]) < 1e-4
        assert all(v == "nan" for v in rows[3][1:-1])
        assert (outdir / "manifest.json").exists()

    def test_h_curve_subcommand(self, tmp_path):
        cfg_path, outdir = small_config(tmp_path, "hc_run")
        assert run_subcommand(["h-curve", "--config", str(cfg_path)]) == 0
        payload = json.loads((outdir / "h_curve.json").read_text())
        assert payload["rel_h1"] < 2e-2
        assert payload["rel_h2"] < 5e-2
        assert len((outdir / "h_curve.csv").read_text().strip().splitlines()) == 6

    @pytest.mark.parametrize("delta", [1e-3, -1e-3])
    def test_stability_subcommand(self, tmp_path, delta):
        # a negative delta perturbs as much as a positive one
        cfg_path, outdir = small_config(
            tmp_path,
            "stab_run",
            evolve={"dt": 1e-3, "t_final": 0.2, "record_stride": 50},
            experiment={"delta": delta},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_subcommand(["stability", "--config", str(cfg_path)]) == 0
        verdict = json.loads((outdir / "verdict.json").read_text())
        assert verdict["bounded_by_10_delta"] is True
        assert verdict["sandwich"][0]["k_plus_sign_constant"] is True
        header = (outdir / "stability.csv").read_text().splitlines()[0]
        assert header.endswith("orbit_dist")

    def test_dealiased_snapshot_keeps_its_identities(self, tmp_path, capsys):
        # snapshots do not store the dealias flag; check must rebuild the
        # field on the (dealiased) config grid it was solved on
        grid = {"n": [128], "extent": [30], "dealias": True}
        cfg_path, outdir = small_config(tmp_path, "gs_da", grid=grid, wave={"c": [0.3]})
        assert run_subcommand(["gs", "--config", str(cfg_path)]) == 0
        field = outdir / "ground_state.ldsf"
        cfg2, outdir2 = small_config(
            tmp_path, "check_da", grid=grid, wave={"c": [0.3]}, experiment={"field": str(field), "samples": 20}
        )
        assert run_subcommand(["check", "--config", str(cfg2)]) == 0
        payload = json.loads((outdir2 / "check.json").read_text())
        assert payload["passed"] is True
        # on a plain grid the constraint residual reads about 2e-8
        assert payload["nehari_K_residual"] < 1e-12

        # a snapshot from another grid is refused by name, before the output directory is made
        cfg3, outdir3 = small_config(tmp_path, "check_bad", experiment={"field": str(field), "samples": 20})
        capsys.readouterr()
        assert run_subcommand(["check", "--config", str(cfg3)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ValidationError"
        assert "experiment.field" in record["message"]
        assert not outdir3.exists()

    @pytest.mark.parametrize(
        "name, grid, resolved",
        [
            ("resolved", {"n": [256], "extent": [40]}, True),
            # Pohozaev and (4-d) residuals read about 9e-6 and 2e-5 here
            ("coarse", {"n": [128], "extent": [40], "dealias": True}, False),
        ],
    )
    def test_gs_identity_flag_matches_check(self, tmp_path, name, grid, resolved):
        cfg_path, outdir = small_config(tmp_path, f"gs_{name}", grid=grid, wave={"c": [0.3]})
        assert run_subcommand(["gs", "--config", str(cfg_path)]) == 0
        gs = json.loads((outdir / "ground_state.json").read_text())
        cfg2, outdir2 = small_config(
            tmp_path,
            f"check_{name}",
            grid=grid,
            wave={"c": [0.3]},
            experiment={"field": str(outdir / "ground_state.ldsf"), "samples": 20},
        )
        code = run_subcommand(["check", "--config", str(cfg2)])
        check = json.loads((outdir2 / "check.json").read_text())
        assert gs["thresholds"] == check["thresholds"]
        assert gs["identities_passed"] is check["identities_passed"] is resolved
        assert code == (0 if resolved else 3)

    def test_cold_start_leaves_scipy_unloaded(self):
        # importing the CLI pulls in every library module, which need numpy
        # alone; scipy.fft adds about 0.3 s to a cold start and scipy.optimize
        # would nearly quadruple it. concurrent.futures (about 6 ms with the
        # logging it loads) is not needed: the well sampler draws on the
        # caller's thread
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import json, sys, dnls3.cli; "
            "print(json.dumps([dnls3.cli.__file__, [m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')]]))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        where, loaded = json.loads(run.stdout)
        assert Path(where).resolve() == Path(cli.__file__).resolve()
        assert loaded == []

    def test_no_threads_flag(self, tmp_path):
        cfg_path, outdir = small_config(tmp_path, "nothreads")
        assert run_subcommand(["gs", "--config", str(cfg_path), "--threads", "2"]) == 2
        assert run_subcommand(["gs", "--config", str(cfg_path)]) == 0
        assert "threads" not in json.loads((outdir / "manifest.json").read_text())

    def test_field_snapshot_feeds_check(self, tmp_path):
        cfg_path, outdir = small_config(tmp_path, "gs_for_check")
        assert run_subcommand(["gs", "--config", str(cfg_path)]) == 0
        field = outdir / "ground_state.ldsf"
        cfg2, outdir2 = small_config(
            tmp_path, "check_from_field", experiment={"field": str(field), "samples": 20}
        )
        assert run_subcommand(["check", "--config", str(cfg2)]) == 0


def _error_types(cls=Dnls3Error):
    """Every subclass of ``cls``, however deep."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_types(sub)


def _readme_exit_list(code):
    """The error names the README lists for exit ``code``: "<code> <what> (`A`, `B`, ...)" in its exit-code sentence."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(rf"Exit codes: .*?\b{code} [a-z /]+ \(([^)]*)\)", readme, re.S)
    return set(re.findall(r"`(\w+)`", listed.group(1)))


def _descent_confirms(termination, rows, solver):
    """Whether one descent's rows of solver_history.csv show how it ended.

    A row holds (descent, iteration, S, residual, step, mixed); the descent's
    rows are its start and each accepted step.
    """
    its, S, residual = int(rows[-1, 1]), rows[:, 2], rows[:, 3]
    finite = bool(np.isfinite(S[-1]) and np.isfinite(residual[-1]))
    unconverged = finite and residual[-1] >= solver.residual_tol
    return {
        "converged": finite and residual[-1] < solver.residual_tol,
        "iteration_cap": unconverged and its == solver.max_iter,
        "non_finite": not finite,
        # the best residual came MEMORY accepted steps before the end, and the next trial did not lower it either
        "residual_growth": unconverged and len(rows) - 1 - int(np.argmin(residual)) == ground_state.MEMORY,
        "invalid_step": unconverged and its < solver.max_iter,
    }[termination]


def _finite(value):
    """Every number in a JSON value is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or np.isfinite(value)


# a whole gs config: moderate values of every key, on which the dealiased 64-point 1D
# grid converges, and extreme but valid values (None leaves a key out) for up to four
# keys drawn at once; a speed is a fraction of the admissibility edge
MODERATE_KEYS = {
    "d": [1],
    "alpha": [None, 1.0],
    "beta": [None, 1.0],
    "gamma": [None, 1.0],
    "omega": [4.0, 2.0],
    "edge_fraction": [0.0, 0.5],
    "n": [64],
    "extent": [16.0, 24.0],
    "dealias": [True],
    "max_iter": [400],
    "residual_tol": [None, 1e-6],
    "restarts": [None, 1, 2],
    "seed": [None, 0],
}
EXTREME_KEYS = {
    "d": [2],
    "alpha": [1e-300, 1e300],
    "beta": [1e-300, 1e300],
    "gamma": [1e-300, 1e300],
    "omega": [None, 1e-300, 1e300],
    "edge_fraction": [0.99, 1.0 - 2.0**-40, 1.0 + 2.0**-40],
    "n": [8, 16, 32],
    "extent": [None, 1e-300, 1e100, 1e300],
    "dealias": [None, False],
    "max_iter": [1, 2],
    "residual_tol": [1e-300, 1e300],
    "seed": [2**53],
}


@st.composite
def gs_configs(draw):
    """A whole gs config on a grid of 8 to 64 points: 1D, or 2D on 8 x 8."""
    extreme = draw(st.sets(st.sampled_from(sorted(EXTREME_KEYS)), max_size=4))
    pick = {key: draw(st.sampled_from(EXTREME_KEYS[key] if key in extreme else values)) for key, values in MODERATE_KEYS.items()}
    d = pick["d"]
    omega = 1.0 if pick["omega"] is None else pick["omega"]
    sigma = min(2.0 * (pick["alpha"] or 1.0), pick["beta"] or 1.0, pick["gamma"] or 1.0)
    # |c| = f sqrt(4 omega sigma) zeroes the least margin; past float range the speed is 0
    edge = np.sqrt(4.0 * omega * sigma) if np.isfinite(4.0 * omega * sigma) else 0.0
    groups = {
        "physics": {key: pick[key] for key in ("alpha", "beta", "gamma")},
        "wave": {"omega": pick["omega"], "c": [pick["edge_fraction"] * edge] + [0.0] * (d - 1)},
        "grid": {
            "d": d,
            "n": [pick["n"]] if d == 1 else [8, 8],
            "extent": None if pick["extent"] is None else [pick["extent"]] * d,
            "dealias": pick["dealias"],
        },
        "solver": {key: pick[key] for key in ("max_iter", "residual_tol", "restarts", "seed")},
    }
    return {name: {k: v for k, v in group.items() if v is not None} for name, group in groups.items()}


class TestExitContract:
    @settings(max_examples=80, deadline=None)
    @given(doc=gs_configs())
    def test_gs_exit_says_what_happened(self, doc):
        # exit 0 with finite outputs, 2 naming a field before any write, or 3 with a
        # termination that the written history confirms; every exit 0 or 3 leaves a
        # manifest whose error is the stderr record (null on success)
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
            out = Path(tmp) / "out"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_subcommand(["gs", "--config", json.dumps(doc), "--out", str(out)])
            record = json.loads(err.getvalue()) if code else None
            if code == 2:
                assert record["error"] == "ValidationError"
                assert record["message"].split(":")[0].split(".")[0] in doc
                assert not out.exists()
                return
            manifest = json.loads((out / "manifest.json").read_text())
            assert (manifest["exit_code"], manifest["error"]) == (code, record)
            solver = parse_config(json.dumps(doc)).solver
            if code == 3 and record["error"] == "DegenerateNonlinearity":
                # the seed's Nehari projection failed: no descent ran
                assert record["error"] in _readme_exit_list(3)
                return
            if code == 0:
                payload = json.loads((out / "ground_state.json").read_text())
                assert _finite(payload) and np.isfinite(load_field(out / "ground_state.ldsf").u).all()
                terminations = payload["termination"]
            else:
                assert code == 3 and record["error"] in ("NoConvergence", "DomainTooSmall")
                terminations = record["termination"]
            if code == 3 and record["error"] == "NoConvergence":
                assert "converged" not in terminations
            else:
                # a success, or a DomainTooSmall: the box check refused the profile the last descent converged to
                assert terminations[-1] == "converged" and "converged" not in terminations[:-1]
            lines = (out / "solver_history.csv").read_text().splitlines()[1:]
            rows = np.array([[float(v) for v in line.split(",")] for line in lines])
            assert code == 3 or np.isfinite(rows).all()
            assert sorted(set(rows[:, 0])) == list(range(len(terminations)))
            for k, termination in enumerate(terminations):
                assert _descent_confirms(termination, rows[rows[:, 0] == k], solver), (k, termination)

    def test_every_error_type_has_one_exit_code(self, tmp_path, capsys, monkeypatch):
        # WrongDimension and FitWindowEmpty were in neither class and exited 3 on invalid inputs
        user, numerical = _readme_exit_list(2), _readme_exit_list(3)
        types = list(_error_types())
        assert user == {cls.__name__ for cls in cli.USER_ERRORS}
        assert numerical <= {cls.__name__ for cls in types} and not user & numerical
        args = {
            ValidationError: ("grid", "refused"),
            NonFinite: (0.5,),
            NoConvergence: ([ground_state.DescentHistory(*np.ones((4, 1)), 1, "iteration_cap")],),
        }
        cfg_path, _ = small_config(tmp_path, "raises")
        for cls in types:
            assert (cls.__name__ in user) != (cls.__name__ in numerical), cls.__name__

            def raise_it(cfg, outdir, field, cls=cls):
                raise cls(*args.get(cls, ("raised",)))

            monkeypatch.setitem(cli.COMMANDS, "gs", raise_it)
            capsys.readouterr()
            assert run_subcommand(["gs", "--config", str(cfg_path)]) == (2 if cls.__name__ in user else 3)
            assert json.loads(capsys.readouterr().err)["error"] == cls.__name__
