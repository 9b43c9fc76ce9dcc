import json
import warnings

import numpy as np
import pytest

from dnls3.cli import run_subcommand
from dnls3.config import parse_config
from dnls3.errors import (
    FormatError,
    LengthMismatch,
    ParseError,
    UnsupportedVersion,
    ValidationError,
)
from dnls3.grid import Grid, State
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


class TestConfig:
    def test_minimal_config_accepts_and_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.n == (512,)
        assert cfg.solver.max_iter == 20000
        assert cfg.solver.residual_tol == 1e-9
        assert cfg.evolve.scheme == "strang"
        assert cfg.effective["solver"]["ansatz"]["width"] == 1.5
        # canonical form is stable
        assert cfg.config_hash() == parse_config(MINIMAL).config_hash()

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
        doc = json.loads(MINIMAL)
        doc["solver"] = {"step_size": 0.5}
        with pytest.raises(ParseError, match="step_size"):
            parse_config(json.dumps(doc))
        assert "step_size" not in parse_config(MINIMAL).effective["solver"]

    def test_grid_dimension_consistency(self):
        doc = json.loads(MINIMAL)
        doc["grid"] = {"d": 2, "n": [64]}
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))


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

    def test_validation_exit_code(self, tmp_path):
        doc = {"physics": {"alpha": 1, "beta": 1, "gamma": 1}, "wave": {"omega": 0.1, "c": [1.0]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_subcommand(["gs", "--config", str(path)]) == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg_path, _ = small_config(tmp_path, "noconv", solver={"max_iter": 2, "restarts": 1})
        assert run_subcommand(["gs", "--config", str(cfg_path)]) == 3

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

    def test_check_subcommand(self, tmp_path):
        cfg_path, outdir = small_config(tmp_path, "check_run", experiment={"samples": 40})
        code = run_subcommand(["check", "--config", str(cfg_path)])
        payload = json.loads((outdir / "check.json").read_text())
        assert code == 0
        assert payload["passed"] is True
        assert payload["well_disagreements"] == 0
        assert max(payload["identity_residuals"].values()) < 1e-13

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

    def test_mu_scan_subcommand(self, tmp_path):
        cfg_path, outdir = small_config(
            tmp_path, "scan_run", experiment={"omegas": [1.0, 2.0], "c0": [0.0]}
        )
        assert run_subcommand(["mu-scan", "--config", str(cfg_path)]) == 0
        lines = (outdir / "mu_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "omega,mu,mu_predicted,rel_error,q_scaling_error"
        assert len(lines) == 3

    def test_h_curve_subcommand(self, tmp_path):
        cfg_path, outdir = small_config(tmp_path, "hc_run")
        assert run_subcommand(["h-curve", "--config", str(cfg_path)]) == 0
        payload = json.loads((outdir / "h_curve.json").read_text())
        assert payload["rel_h1"] < 2e-2
        assert payload["rel_h2"] < 5e-2
        assert len((outdir / "h_curve.csv").read_text().strip().splitlines()) == 6

    def test_stability_subcommand(self, tmp_path):
        cfg_path, outdir = small_config(
            tmp_path,
            "stab_run",
            evolve={"dt": 1e-3, "t_final": 0.2, "record_stride": 50},
            experiment={"delta": 1e-3},
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

        # a snapshot from another grid is refused by name
        cfg3, _ = small_config(tmp_path, "check_bad", experiment={"field": str(field), "samples": 20})
        capsys.readouterr()
        assert run_subcommand(["check", "--config", str(cfg3)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ValidationError"
        assert "experiment.field" in record["message"]

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
