"""Config round-trips, validation delegation, CLI artifacts, determinism."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tricomi_lab.cli as cli
from tricomi_lab.cli import EXPONENT_HEADER, _snapshot_times, main, run_exponents
from tricomi_lab.config import SCHEMA, RunConfig, emit_config, parse_config
from tricomi_lab.errors import ParameterError
from tricomi_lab.geometry import phi_inverse
from tricomi_lab.symbols import amplitude_envelope_bound, v1_symbol, v2_symbol

ROOT = Path(__file__).resolve().parent.parent
MINIMAL_EXPONENTS = json.dumps({"scenario": "exponents", "model": {"m": 1, "n": 3, "p": 2.0}})


class TestConfig:
    def test_minimal_parses(self):
        cfg = parse_config(MINIMAL_EXPONENTS)
        assert cfg.scenario == "exponents"
        assert cfg.model_params().m == 1

    def test_round_trip_identity(self):
        cfg = parse_config(MINIMAL_EXPONENTS)
        assert parse_config(emit_config(cfg)) == cfg

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(42)
        scenarios = ["exponents", "solve-linear", "check-geometry", "symbols"]
        for _ in range(100):
            payload = {
                "scenario": str(rng.choice(scenarios)),
                "model": {
                    "m": int(rng.integers(1, 6)),
                    "n": int(rng.integers(3, 8)),
                    "p": float(np.round(rng.uniform(1.1, 3.0), 6)),
                    "eps": float(np.round(rng.uniform(1e-4, 1.0), 8)),
                    "M": float(np.round(rng.uniform(1.2, 4.0), 6)),
                },
                "grid": {"r_max": float(rng.integers(10, 100)), "N": int(2 ** rng.integers(5, 10))},
                "seed": int(rng.integers(0, 1000)),
                "output_dir": "out",
            }
            cfg = parse_config(json.dumps(payload))
            assert parse_config(emit_config(cfg)) == cfg

    def test_parse_error_has_location(self):
        with pytest.raises(ParameterError, match="line"):
            parse_config("{not json}")

    def test_unknown_scenario(self):
        with pytest.raises(ParameterError, match="unknown scenario"):
            parse_config(json.dumps({"scenario": "noodle"}))

    def test_picard_window_delegated(self):
        payload = {
            "scenario": "solve-semilinear",
            "model": {"m": 1, "n": 3, "p": 5.0},
            "semilinear": {"mode": "picard"},
        }
        with pytest.raises(ParameterError, match=r"exponent out of range \(p_crit"):
            parse_config(json.dumps(payload))

    def test_model_validation_delegated(self):
        with pytest.raises(ParameterError, match="model.n must be at least 3, got 2"):
            parse_config(json.dumps({"scenario": "exponents", "model": {"m": 1, "n": 2, "p": 2.0}}))


def _schema_lines():
    """README's key list, one bullet per section, written out from the schema table."""
    kinds = {int: "integer", float: "number", bool: "boolean", str: "string", list: "list of numbers"}

    def text(name, key):
        if isinstance(key.kind, dict):
            return f"`{name}` (object, below)" if name == "data" else None
        kind = " or ".join(f'"{k}"' for k in key.kind) if isinstance(key.kind, tuple) else kinds[key.kind]
        kind += " or null" if key.nullable else ""
        limit = f", {key.limit}" if key.limit else ""
        default = " (required)" if name == "scenario" else f" = `{json.dumps(key.default)}`"
        return f"`{name}` ({kind}{limit}){default}"

    def bullet(title, keys):
        return f"* {title}: " + "; ".join(t for t in (text(k, v) for k, v in keys.items()) if t)

    top = {k: v for k, v in SCHEMA.items() if not isinstance(v.kind, dict)}
    lines = [bullet("top level", top)]
    lines += [bullet(f"`{name}`", key.kind) for name, key in SCHEMA.items() if isinstance(key.kind, dict)]
    return lines + [bullet("`data` (in `linear`, `semilinear`, `sweep`)", SCHEMA["linear"].kind["data"].kind)]


def test_readme_lists_the_schema():
    readme = (ROOT / "README.md").read_text()
    for line in _schema_lines():
        assert line in readme, line


class TestExponentsCommand:
    def test_header_exact(self):
        text = run_exponents(1, 3, 2.0)
        assert text.splitlines()[0] == EXPONENT_HEADER

    def test_single_row_values(self):
        row = run_exponents(1, 3, 2.0).splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(1.7699809884328215, abs=1e-12)
        assert float(row[4]) == pytest.approx(15.0 / 7.0, abs=1e-12)
        assert float(row[10]) == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert float(row[11]) == pytest.approx(5.0 / 18.0, abs=1e-12)

    def test_gamma_cells_empty_without_p(self):
        row = run_exponents(2, 4, None).splitlines()[1].split(",")
        assert row[2] == "" and row[10] == "" and row[11] == ""

    def test_sweep_rows(self):
        text = run_exponents(None, None, None, sweep="m=1..6 n=3..8")
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 6 * 6

    def test_bad_sweep_spec(self):
        with pytest.raises(ParameterError, match="bad sweep"):
            run_exponents(None, None, None, sweep="m=1-6")

    def test_cli_stdout_and_exit(self, capsys):
        assert main(["exponents", "--m", "1", "--n", "3", "--p", "2.0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == EXPONENT_HEADER

    def test_cli_gamma_cells_empty_without_p(self, capsys):
        # without --p the payload carries p = null through parse_config
        assert main(["exponents", "--m", "2", "--n", "4"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == "" and row[10] == "" and row[11] == ""

    def test_cli_validation_exit_2(self, capsys):
        assert main(["exponents", "--m", "1", "--n", "2"]) == 2

    @pytest.mark.parametrize("sweep", ["m=3..1 n=3..4", "m=0..1 n=3..3", "m=1..1 n=2..3"],
                             ids=["reversed", "m-below-1", "n-below-3"])
    def test_sweep_outside_the_model_limits(self, capsys, sweep):
        # a reversed range printed only the header, m = 0 printed a row, and n = 2 did not name the key
        assert main(["exponents", "--sweep", sweep]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"exponents.sweep: ranges must ascend with m >= 1 and n >= 3, got {sweep!r}" in err


class TestGeometrySymbolsCommands:
    def test_check_geometry(self, capsys):
        assert main(["check-geometry", "--m", "1", "--M", "2.0", "--T0", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "inequality,holds,margin,delta_max"
        assert len(lines) == 4
        unshifted = lines[1].split(",")
        assert unshifted[0] == "unshifted-cone" and unshifted[1] == "true"
        assert float(unshifted[3]) >= 1e-4
        # the holds cell of a numpy bool prints like a Python bool
        assert [line.split(",")[:2] for line in lines[2:]] == [
            ["shifted-cone-lower", "true"], ["shifted-cone-upper", "true"]]

    def test_symbols_dump(self, capsys):
        assert main(["symbols", "--m", "1", "--grid", "50:16"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,lambda,re_v1,im_v1,re_v2,im_v2,envelope_bound"
        assert len(lines) == 17
        first = [float(x) for x in lines[1].split(",")]
        assert abs(first[3]) < 1e-9  # im_v1 ~ 0

    def test_symbols_dump_at_huge_w(self, capsys):
        # w from 1e16 to 1e20: the Kummer route's asymptotics hold there, and agree with the Bessel route
        assert main(["symbols", "--m", "1", "--grid", "1e20:4"]) == 0
        rows = [[float(x) for x in line.split(",")] for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 4
        for t, lam, re_v1, _, re_v2, _, _ in rows:
            assert re_v1 == pytest.approx(v1_symbol(1, t, lam, "bessel").real, rel=1e-7)
            assert re_v2 == pytest.approx(v2_symbol(1, t, lam, "bessel").real, rel=1e-7)

    def test_symbols_bad_grid(self, capsys):
        assert main(["symbols", "--m", "1", "--grid", "oops"]) == 2

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_symbols_rows_equal_per_point_calls(self, capsys, m):
        # a scalar phi_inverse or envelope power takes libm's pow, an array power numpy's
        # own loop, and the two differ in the last bit at some points: so one call per point
        assert main(["symbols", "--m", str(m), "--grid", "100:256"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        want = []
        for w in np.geomspace(1e-2, 100.0, 256):
            t = phi_inverse(m, w)
            v1, v2 = v1_symbol(m, t, 1.0), v2_symbol(m, t, 1.0)
            cells = [t, 1.0, v1.real, v1.imag, v2.real, v2.imag, float(amplitude_envelope_bound(m, t, 1.0))]
            want.append(",".join(cli._fmt(x) for x in cells))
        assert rows == want


_NON_FINITE = [(kind(x), cell) for kind in (float, np.float64, np.float32)
               for x, cell in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"))]


class TestCsvCells:
    @pytest.mark.parametrize("value, cell", [
        (None, ""), (True, "true"), (False, "false"), (np.bool_(True), "true"), (np.bool_(False), "false"),
        (7, "7"), (np.int64(-3), "-3"), (0.1, "0.10000000000000001"), (-0.0, "-0"),
        (np.float64(1.0 / 3.0), "0.33333333333333331"), (np.float32(0.1), "0.10000000149011612"),
        *_NON_FINITE, ("hom:bump-w0.5", "hom:bump-w0.5"),
    ], ids=repr)
    def test_every_branch_pins_its_string(self, value, cell):
        assert cli._fmt(value) == cell


class TestScenarioRuns:
    def _linear_cfg(self, outdir):
        return {
            "scenario": "solve-linear",
            "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1.0, "M": 2.0},
            "grid": {"r_max": 25.0, "N": 256},
            "output_dir": str(outdir),
            "linear": {"t_final": 8.0, "snapshots": 6, "data": {"profile": "bump", "amplitude": 1.0}},
        }

    def test_solve_linear_artifacts_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        sums = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            cfg_path.write_text(json.dumps(self._linear_cfg(outdir)))
            assert main(["solve-linear", "--config", str(cfg_path)]) == 0
            field = outdir / "field.csv"
            summary = outdir / "summary.csv"
            manifest = json.loads((outdir / "manifest.json").read_text())
            assert field.exists() and summary.exists()
            assert summary.read_text().splitlines()[0] == "t,sup_norm,l2_norm,support_leak"
            assert set(manifest["outputs"]) == {"field.csv", "summary.csv"}
            sums.append(
                (
                    hashlib.sha256(field.read_bytes()).hexdigest(),
                    hashlib.sha256(summary.read_bytes()).hexdigest(),
                )
            )
        assert sums[0] == sums[1]

    def test_manifest_checksums_match_files_on_disk(self, tmp_path):
        # the manifest hashes the bytes it writes; every listed file must read back to them
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self._linear_cfg(tmp_path / "out")))
        assert main(["solve-linear", "--config", str(cfg_path)]) == 0
        outputs = json.loads((tmp_path / "out" / "manifest.json").read_text())["outputs"]
        on_disk = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "out").iterdir()}
        assert outputs == {name: digest for name, digest in on_disk.items() if name != "manifest.json"}
        assert len(outputs) == 2

    def test_scenario_mismatch_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self._linear_cfg(tmp_path)))
        assert main(["solve-semilinear", "--config", str(cfg_path)]) == 2

    def test_solve_semilinear_march(self, tmp_path):
        cfg = {
            "scenario": "solve-semilinear",
            "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1e-3, "M": 2.0},
            "grid": {"r_max": 16.0, "N": 256, "transform": "fft"},
            "output_dir": str(tmp_path / "out"),
            "semilinear": {"horizon": 5.0, "dt": 0.05, "snapshots": 4},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve-semilinear", "--config", str(cfg_path)]) == 0
        rec = json.loads((tmp_path / "out" / "outcome.json-lines").read_text())
        assert rec["kind"] == "global-horizon"
        assert "weighted_norm" in rec

    def test_data_above_the_threshold_blow_up_at_the_first_midpoint(self, tmp_path):
        # a documented outcome, not a validation error: data whose own sup exceeds BLOWUP_THRESHOLD
        cfg = {
            "scenario": "solve-semilinear",
            "model": {"m": 1, "n": 3, "p": 2.0, "M": 2.0},
            "grid": {"r_max": 16.0, "N": 64},
            "output_dir": str(tmp_path / "out"),
            "semilinear": {"horizon": 4.0, "dt": 1.0, "snapshots": 2, "data": {"amplitude": 1e40}},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve-semilinear", "--config", str(cfg_path)]) == 0
        rec = json.loads((tmp_path / "out" / "outcome.json-lines").read_text())
        assert rec["kind"] == "blowup" and rec["blowup_time"] == 0.5 and len(rec["norm_history"]) == 1

    def test_sweep_p_grid_flag(self, tmp_path):
        cfg = {
            "scenario": "sweep-p",
            "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1e-3, "M": 2.0},
            "grid": {"r_max": 16.0, "N": 256, "transform": "fft"},
            "output_dir": str(tmp_path / "out"),
            "sweep": {"horizon": 4.0, "dt": 0.05},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep-p", "--config", str(cfg_path), "--p-grid", "1.5,2.5"]) == 0
        lines = (tmp_path / "out" / "outcome.json-lines").read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["p"] == 1.5

    def test_sweep_requires_grid(self, tmp_path):
        cfg = {
            "scenario": "sweep-p",
            "model": {"m": 1, "n": 3, "p": 2.0},
            "grid": {"r_max": 16.0, "N": 256},
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep-p", "--config", str(cfg_path)]) == 2

    def test_missing_config_exit_2(self):
        assert main(["solve-linear", "--config", "/nonexistent.json"]) == 2


class TestBadInput:
    def _run(self, tmp_path, edit, extra=()):
        cfg = {
            "scenario": "solve-linear",
            "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1.0, "M": 2.0},
            "grid": {"r_max": 25.0, "N": 256},
            "output_dir": str(tmp_path / "out"),
            "linear": {"t_final": 2.0, "snapshots": 2},
        }
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return main([cfg["scenario"], "--config", str(cfg_path), *extra])

    def test_unknown_profile(self, tmp_path, capsys):
        def edit(cfg):
            cfg["linear"]["data"] = {"profile": "bumpp"}

        assert self._run(tmp_path, edit) == 2
        assert "'bumpp'" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        def edit(cfg):
            cfg["linaer"] = cfg.pop("linear")

        assert self._run(tmp_path, edit) == 2
        assert "'linaer'" in capsys.readouterr().err

    def test_direct_transform(self, tmp_path, capsys):
        def edit(cfg):
            cfg["grid"]["transform"] = "direct"

        assert self._run(tmp_path, edit) == 2
        assert "retired" in capsys.readouterr().err

    @pytest.mark.parametrize("p_grid,extra", [(["x"], ()), ([2.0], ("--p-grid", "x"))])
    def test_non_numeric_p_grid(self, tmp_path, capsys, p_grid, extra):
        def edit(cfg):
            cfg["scenario"] = "sweep-p"
            cfg["sweep"] = {"p_grid": p_grid, "horizon": 1.0, "dt": 0.05}

        assert self._run(tmp_path, edit, extra) == 2
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [("model", "m"), ("grid", "N")])
    def test_non_numeric_model_and_grid(self, tmp_path, capsys, section, key):
        def edit(cfg):
            cfg[section][key] = "x"

        assert self._run(tmp_path, edit) == 2
        assert f"{section}.{key} must be a number, got 'x'" in capsys.readouterr().err

    def test_non_numeric_exponent_table_m(self):
        # without p the exponent table skips the model check, but m must still be a number
        with pytest.raises(ParameterError, match="model.m must be a number"):
            parse_config(json.dumps({"scenario": "exponents", "model": {"m": "x", "p": None}}))

    def test_accepts_benchmark_sections(self):
        for key in ("exponents", "geometry", "symbols", "semilinear", "strichartz", "sweep", "linear"):
            parse_config(json.dumps({"scenario": "exponents", key: {}}))

    def test_accepts_readme_grammar_and_benchmark_configs(self, monkeypatch):
        readme = (ROOT / "README.md").read_text()
        parse_config(readme.split("### Config grammar", 1)[1].split("```json", 1)[1].split("```", 1)[0])
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from workloads import WORKLOADS

        for make in WORKLOADS.values():
            for cfg in make(np.random.default_rng(1)):
                parse_config(json.dumps(cfg))

    @pytest.mark.parametrize("section,value", [("model", 5), ("linear", 3)])
    def test_non_object_section(self, tmp_path, capsys, section, value):
        def edit(cfg):
            cfg[section] = value

        assert self._run(tmp_path, edit) == 2
        assert f"config section {section!r} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario,path",
        [("solve-semilinear", "semilinear.dt"), ("solve-linear", "linear.snapshots"),
         ("solve-linear", "linear.data.amplitude")],
    )
    def test_non_numeric_section_value(self, tmp_path, capsys, scenario, path):
        def edit(cfg):
            cfg["scenario"] = scenario
            *outer, key = path.split(".")
            sec = cfg
            for name in outer:
                sec = sec.setdefault(name, {})
            sec[key] = "x"

        assert self._run(tmp_path, edit) == 2
        assert f"{path} must be a number, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["linear.snapshot", "linear.data.amplitud", "model.mm"])
    def test_unknown_section_key(self, tmp_path, capsys, path):
        def edit(cfg):
            *outer, key = path.split(".")
            sec = cfg
            for name in outer:
                sec = sec.setdefault(name, {})
            sec[key] = 1.0

        assert self._run(tmp_path, edit) == 2
        assert f"unknown key(s) {path};" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("mode", "picrad", "semilinear.mode must be one of march, picard, got 'picrad'"),
            ("snapshot_spacing", "lin", "semilinear.snapshot_spacing must be one of log, linear, got 'lin'"),
            ("write_field", "false", "semilinear.write_field must be true or false, got 'false'"),
            ("max_iters", 0, "semilinear.max_iters must be at least 1, got 0"),
            ("max_iters", -3, "semilinear.max_iters must be at least 1, got -3"),
        ],
    )
    def test_semilinear_values(self, tmp_path, capsys, key, value, message):
        def edit(cfg):
            del cfg["linear"]
            cfg["scenario"] = "solve-semilinear"
            cfg["semilinear"] = {"horizon": 1.0, "dt": 0.05, "mode": "picard", key: value}

        assert self._run(tmp_path, edit) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario,section,values",
        [
            ("solve-semilinear", "semilinear", {"horizon": 0}),
            ("solve-semilinear", "semilinear", {"horizon": 0, "mode": "picard"}),
            ("sweep-p", "sweep", {"horizon": 0, "p_grid": [2.0]}),
            ("sweep-p", "sweep", {"dt": 0, "p_grid": [2.0]}),
            ("solve-linear", "linear", {"t_final": 0}),
        ],
    )
    def test_zero_time_or_step(self, tmp_path, capsys, scenario, section, values):
        key = next(iter(values))

        def edit(cfg):
            del cfg["linear"]
            cfg["scenario"] = scenario
            cfg[section] = values

        assert self._run(tmp_path, edit) == 2
        assert f"{section}.{key} must be positive, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_snapshot_start_is_a_step(self, tmp_path):
        # horizon / 100 = 0.01 would round to step 0 of dt = 0.05
        def edit(cfg):
            del cfg["linear"]
            cfg["scenario"] = "solve-semilinear"
            cfg["semilinear"] = {"horizon": 1.0, "dt": 0.05}

        assert self._run(tmp_path, edit) == 0
        defaults = parse_config(json.dumps({"scenario": "solve-semilinear"})).data["semilinear"]
        assert _snapshot_times(defaults, 1.0, dt=0.05)[0] == 0.05
        # where horizon / 100 >= dt the snapshot times stay as they were
        assert np.array_equal(_snapshot_times(defaults, 1.0, dt=0.01), np.geomspace(0.01, 1.0, 16))
        assert np.array_equal(_snapshot_times(defaults, 20.0, dt=0.01), np.geomspace(0.2, 20.0, 16))

    def test_picard_non_finite_norm_exit_3(self, tmp_path, capsys):
        def edit(cfg):
            del cfg["linear"]
            cfg["scenario"] = "solve-semilinear"
            cfg["semilinear"] = {"horizon": 8.0, "dt": 0.02, "mode": "picard", "max_iters": 2,
                                 "data": {"profile": "bump", "amplitude": 1e80}}
            cfg["grid"]["transform"] = "fft"
            cfg["grid"]["N"] = 512

        with np.errstate(over="ignore", invalid="ignore"):
            assert self._run(tmp_path, edit) == 3
        assert "iterate 1 has a non-finite weighted norm" in capsys.readouterr().err
        assert not (tmp_path / "out" / "outcome.json-lines").exists()

    def test_nan_in_a_symbol_exits_3(self, tmp_path, capsys, nan_in_kernel):
        # a NaN from the 5th kernel call of a march is a numerical fault, not a blowup
        def edit(cfg):
            del cfg["linear"]
            cfg["scenario"] = "solve-semilinear"
            cfg["semilinear"] = {"horizon": 2.0, "dt": 0.005}

        calls = nan_in_kernel(5)
        assert self._run(tmp_path, edit) == 3
        assert len(calls) == 5
        assert "numerical failure: march step 96 at t=0.4825: sup|u| = nan" in capsys.readouterr().err
        assert not (tmp_path / "out" / "outcome.json-lines").exists()

    def test_picard_overflow_prints_only_the_failure(self, tmp_path, capfd):
        def edit(cfg):
            del cfg["linear"]
            cfg["scenario"] = "solve-semilinear"
            cfg["semilinear"] = {"horizon": 8.0, "dt": 0.02, "mode": "picard", "max_iters": 2,
                                 "data": {"profile": "bump", "amplitude": 1e80}}
            cfg["grid"] = {"r_max": 25.0, "N": 512, "transform": "fft"}

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self._run(tmp_path, edit) == 3
        assert [str(w.message) for w in caught] == []
        err = capfd.readouterr().err
        assert err.startswith("numerical failure: iterate 1 has a non-finite weighted norm")
        assert err.count("\n") == 1

    def test_non_numeric_seed(self):
        with pytest.raises(ParameterError, match="seed must be a number"):
            parse_config(json.dumps({"scenario": "check-geometry", "seed": "x"}))

    def test_inhomogeneous_T0_past_the_box(self, tmp_path, capsys):
        def edit(cfg):
            del cfg["linear"]
            cfg["scenario"] = "verify-strichartz"
            cfg["grid"] = {"r_max": 60.0, "N": 512}
            cfg["strichartz"] = {"kind": "inhomogeneous", "t_max": 10.0, "T0": 40.0}

        assert self._run(tmp_path, edit) == 2
        assert "T0=40.0 leaves fewer than two snapshot times" in capsys.readouterr().err


class TestSchemaLimits:
    """Each key is a finite number of its kind within its limit, else exit 2 naming it."""

    SECTIONS = {
        "solve-linear": ("linear", {"t_final": 2.0, "snapshots": 2}),
        "solve-semilinear": ("semilinear", {"horizon": 1.0, "dt": 0.05}),
        "sweep-p": ("sweep", {"p_grid": [2.0], "horizon": 1.0, "dt": 0.05}),
        "verify-strichartz": ("strichartz", {"t_max": 10.0}),
    }

    def _run(self, tmp_path, scenario, edits):
        section, values = self.SECTIONS[scenario]
        cfg = {
            "scenario": scenario,
            "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1.0, "M": 2.0},
            "grid": {"r_max": 25.0, "N": 256},
            "output_dir": str(tmp_path / "out"),
            section: dict(values),
        }
        for path, value in edits.items():
            *outer, key = path.split(".")
            sec = cfg
            for name in outer:
                sec = sec.setdefault(name, {})
            sec[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return main([scenario, "--config", str(cfg_path)])

    @pytest.mark.parametrize(
        "scenario,edits,message",
        [
            ("solve-linear", {"grid.r_max": float("nan")}, "grid.r_max must be finite, got nan"),
            ("solve-linear", {"linear.data.amplitude": float("nan")}, "linear.data.amplitude must be finite, got nan"),
            ("solve-linear", {"linear.t_final": float("inf")}, "linear.t_final must be finite, got inf"),
            ("solve-semilinear", {"semilinear.dt": float("inf")}, "semilinear.dt must be finite, got inf"),
            ("sweep-p", {"sweep.p_grid": [float("inf")]}, "sweep.p_grid entry must be finite, got inf"),
            ("solve-linear", {"grid.N": 64.7}, "grid.N must be an integer, got 64.7"),
            ("solve-linear", {"model.m": True}, "model.m must be a number, got True"),
            ("solve-linear", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ],
    )
    def test_finite_number_of_its_kind(self, tmp_path, capsys, scenario, edits, message):
        assert self._run(tmp_path, scenario, edits) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario,edits,message",
        [
            ("solve-linear", {"linear.snapshots": 0}, "linear.snapshots must be at least 1, got 0"),
            ("solve-linear", {"linear.snapshots": -1}, "linear.snapshots must be at least 1, got -1"),
            ("solve-semilinear", {"semilinear.snapshots": -2}, "semilinear.snapshots must be at least 1, got -2"),
            ("solve-linear", {"linear.field_r_points": 0}, "linear.field_r_points must be at least 1, got 0"),
            ("solve-linear", {"linear.field_r_points": -5}, "linear.field_r_points must be at least 1, got -5"),
            ("solve-semilinear", {"semilinear.write_field": True, "semilinear.field_r_points": 0},
             "semilinear.field_r_points must be at least 1, got 0"),
            ("solve-linear", {"linear.t_start": 0}, "linear.t_start must be positive, got 0"),
            ("verify-strichartz", {"strichartz.t_max": 0}, "strichartz.t_max must be greater than 2, got 0"),
            ("verify-strichartz", {"strichartz.kind": "inhomogeneous", "strichartz.t_max_inhom": 0},
             "strichartz.t_max_inhom must be greater than 2, got 0"),
            ("sweep-p", {"sweep.T0": -1}, "sweep.T0 must be in (0, 1), got -1"),
            # a box of length 2 or less would bend the snapshot grid back on itself
            ("verify-strichartz", {"strichartz.t_max": 1.0}, "strichartz.t_max must be greater than 2, got 1.0"),
            ("verify-strichartz", {"strichartz.kind": "inhomogeneous", "strichartz.t_max_inhom": 2.0},
             "strichartz.t_max_inhom must be greater than 2, got 2.0"),
        ],
    )
    def test_limit(self, tmp_path, capsys, scenario, edits, message):
        assert self._run(tmp_path, scenario, edits) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edits,message",
        [
            ({"strichartz.q": 1.1}, "strichartz.q: q window violated: q too small, need q > q_min="),
            ({"strichartz.gamma": 5.0}, "strichartz.gamma: gamma window violated: need 0 < gamma <"),
            ({"strichartz.delta": 5.0}, "strichartz.delta: delta window violated: need 0 < delta <"),
            ({"strichartz.kind": "inhomogeneous", "strichartz.q_inhom": 2.0},
             "strichartz.q_inhom: q window violated: q too small"),
            ({"strichartz.kind": "inhomogeneous", "strichartz.gamma1": 0.9},
             "strichartz.gamma1: gamma1 window violated"),
            ({"strichartz.kind": "inhomogeneous", "strichartz.gamma2": 0.1},
             "strichartz.gamma2: gamma2 window violated"),
            # no snapshot time of the box [0, 10] reaches T0/2 = 100
            ({"grid.r_max": 64.0, "strichartz.kind": "inhomogeneous", "strichartz.T0": 200.0},
             "strichartz.T0: T0=200.0 leaves fewer than two snapshot times"),
            # the first snapshot time 2/24 rounds to step 0 of a 0.2 step
            ({"grid.r_max": 64.0, "strichartz.kind": "inhomogeneous", "strichartz.dt": 0.2},
             "strichartz.dt: snapshot time 0.0833333 falls on step 0, outside steps 1..50 of the march (step 0.2)"),
        ],
    )
    def test_strichartz_window_names_its_key(self, tmp_path, capsys, edits, message):
        assert self._run(tmp_path, "verify-strichartz", edits) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # the directory is made only after the run succeeds

    @pytest.mark.parametrize(
        "scenario,edits",
        [
            ("solve-linear", {"linear.t_final": 1e300}),
            ("solve-semilinear", {"semilinear.horizon": 1e300, "semilinear.dt": 1e299}),
            ("verify-strichartz", {"strichartz.t_max": 1e300}),
        ],
    )
    def test_horizon_whose_phase_overflows(self, tmp_path, capsys, scenario, edits):
        # phi(t) overflows to inf: the wall check printed numpy's overflow warning before its message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._run(tmp_path, scenario, edits) == 2
        err = capsys.readouterr().err
        assert err == "validation error: grid.r_max=25.0 too small for t_final=1e+300: support radius + 2h = inf\n"

    def test_sweep_horizon_whose_phase_overflows(self, tmp_path):
        # each power's row records the wall check's error; the sweep itself succeeds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._run(tmp_path, "sweep-p", {"sweep.horizon": 1e300}) == 0
        row = json.loads((tmp_path / "out" / "outcome.json-lines").read_text())
        assert row["error"] == "GridError: grid.r_max=25.0 too small for t_final=1e+300: support radius + 2h = inf"

    @pytest.mark.parametrize("N", [8, 16, 32])
    @pytest.mark.parametrize(
        "kind,message",
        [
            ("inhomogeneous", "the weighted norm of source 'pulse-1-2' reads 0 (h="),
            ("homogeneous", "the data of 'bump-w0.35' vanish at every node r > 0 (h="),
        ],
    )
    def test_strichartz_grid_too_coarse_for_the_profiles(self, tmp_path, capsys, N, kind, message):
        # on r_max 30 the narrowest profile is nonzero only at the node r = 0, where the r^2 weight
        # vanishes: the forced RHS read 0 (a ZeroDivisionError traceback) and the homogeneous LHS read 0
        edits = {"grid.r_max": 30.0, "grid.N": N, "strichartz.kind": kind}
        assert self._run(tmp_path, "verify-strichartz", edits) == 2
        assert f"validation error: grid.N={N}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("N,message", [
        (48, "the data of 'bump-w0.35' vanish at every node r > 0 (h=0.625)"),
        (128, "the L2 norm of the data of 'dilate-1.3' on this grid (h=0.2344) differs by 0.12 from theirs on the "
              "W^(s,1) grid, relative (more than 0.1), so it under-resolves them; raise grid.N"),
    ])
    def test_strichartz_under_resolved_data(self, tmp_path, capsys, N, message):
        # at N = 128 a member the grid under-resolves read as a ratio and exited 0; at N = 48 the
        # narrowest member vanishes at every node r > 0, which the earlier check names
        edits = {"grid.r_max": 30.0, "grid.N": N, "strichartz.kind": "homogeneous"}
        assert self._run(tmp_path, "verify-strichartz", edits) == 2
        assert f"validation error: grid.N={N}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid,t_max", [
        ({"r_max": 30.0, "N": 256}, 10.0),
        ({"r_max": 170.0, "N": 4096, "transform": "fft"}, 25.0),  # the benchmark's strichartz pass
    ])
    def test_strichartz_resolved_data(self, tmp_path, grid, t_max):
        edits = {"grid": grid, "strichartz.kind": "homogeneous", "strichartz.t_max": t_max}
        assert self._run(tmp_path, "verify-strichartz", edits) == 0
        rows = (tmp_path / "out" / "ratios.csv").read_text().splitlines()[1:]
        assert len(rows) == 8

    def test_strichartz_forced_probe_on_a_finer_grid(self, tmp_path):
        edits = {"grid.r_max": 30.0, "grid.N": 48, "strichartz.kind": "inhomogeneous"}
        assert self._run(tmp_path, "verify-strichartz", edits) == 0
        rows = (tmp_path / "out" / "ratios.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(float(row.split(",")[2]) > 0 for row in rows)

    def test_picard_empty_norm_box(self, tmp_path, capsys):
        # no step midpoint of a 0.2 horizon reaches T0/2 = 0.25, so every norm would be an empty trapezoid
        edits = {"semilinear.mode": "picard", "semilinear.horizon": 0.2, "semilinear.dt": 0.02, "semilinear.T0": 0.5}
        assert self._run(tmp_path, "solve-semilinear", edits) == 2
        assert "semilinear.horizon: horizon too short" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_snapshot_march_has_no_weighted_norm(self, tmp_path):
        # a trapezoid over one snapshot time is 0, not a norm
        assert self._run(tmp_path, "solve-semilinear", {"semilinear.snapshots": 1}) == 0
        record = json.loads((tmp_path / "out" / "outcome.json-lines").read_text())
        assert record["kind"] == "global-horizon" and "weighted_norm" not in record
        assert self._run(tmp_path, "solve-semilinear", {"semilinear.snapshots": 2}) == 0
        assert "weighted_norm" in json.loads((tmp_path / "out" / "outcome.json-lines").read_text())

    def test_geometry_nu_names_its_key(self, capsys):
        assert main(["check-geometry", "--m", "1", "--M", "2.0", "--T0", "0.5", "--nu", "100"]) == 2
        assert "geometry.nu: nu out of range: need 0 <= nu <=" in capsys.readouterr().err

    def test_geometry_weight_lost_to_rounding_exits_3(self, capsys):
        # phi(1e3) = 1.7e17 at m = 10, so (phi+M)^2 - r^2 loses M and the sampled ratio reads 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-geometry", "--m", "10", "--M", "2", "--T0", "0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numerical failure: the sampled ratio") and "loses M=2.0" in err

    @pytest.mark.parametrize(
        "scenario,edits,message",
        [
            ("solve-linear", {"linear.t_start": 2.0}, "linear.t_start must be before the final time 2.0, got 2.0"),
            ("solve-semilinear", {"semilinear.t_start": 5.0, "semilinear.horizon": 2.0},
             "semilinear.t_start must be before the final time 2.0, got 5.0"),
            # a start that the march snaps to its step 0; its steps are horizon / n = 0.05 long
            ("solve-semilinear", {"semilinear.t_start": 0.01},
             "semilinear.t_start: snapshot time 0.01 falls on step 0, outside steps 1..20 of the march (step 0.05)"),
            ("solve-semilinear", {"semilinear.t_start": 0.12, "semilinear.dt": 0.3},
             "semilinear.t_start: snapshot time 0.12 falls on step 0, outside steps 1..4 of the march (step 0.25)"),
            # dt divides the horizon: 30 steps of 0.03, although 0.9 / 0.03 > 30 in floating point
            ("solve-semilinear", {"semilinear.t_start": 0.0148, "semilinear.horizon": 0.9, "semilinear.dt": 0.03},
             "semilinear.t_start: snapshot time 0.0148 falls on step 0, outside steps 1..30 of the march (step 0.03)"),
        ],
    )
    def test_snapshot_start_past_the_end(self, tmp_path, capsys, scenario, edits, message):
        assert self._run(tmp_path, scenario, edits) == 2
        assert message in capsys.readouterr().err

    def test_default_snapshot_start_below_a_short_end(self, tmp_path):
        # the 1e-3 floor of the default start would reach t_final; it falls back to t_final / 100
        assert self._run(tmp_path, "solve-linear", {"linear.t_final": 1e-4}) == 0
        times = [float(line.split(",")[0]) for line in (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]]
        assert times == list(np.geomspace(1e-6, 1e-4, 2))

    @pytest.mark.parametrize("grid", ["100:-3", "100:0", "nan:8"])
    def test_symbols_grid(self, capsys, grid):
        assert main(["symbols", "--m", "1", "--grid", grid]) == 2
        assert f"bad symbols.grid {grid!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("m, grid", [(1, "1e308:2"), (2, "5e307:2")])
    def test_symbols_grid_whose_time_overflows(self, capsys, m, grid):
        # phi_inverse(m, WMAX) overflows in (m + 2) WMAX: the dump printed inf,1,nan,... and exited 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["symbols", "--m", str(m), "--grid", grid]) == 2
        assert f"bad symbols.grid {grid!r}: the time phi_inverse(m={m}, WMAX) overflows" in capsys.readouterr().err

    def test_symbols_grid_just_below_the_overflow(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["symbols", "--m", "2", "--grid", "4e307:2"]) == 0
        assert "nan" not in capsys.readouterr().out

    def test_filled_defaults_round_trip(self):
        cfg = parse_config(json.dumps({"scenario": "verify-strichartz"}))
        assert cfg.data["strichartz"]["t_max"] == 100.0 and cfg.data["strichartz"]["q"] is None
        assert cfg.data["grid"] == {"r_max": 64.0, "N": 2048, "transform": "auto"}
        assert parse_config(emit_config(cfg)) == cfg

    def test_ints_become_floats(self):
        cfg = parse_config(json.dumps({"scenario": "solve-linear", "linear": {"t_final": 8}}))
        assert type(cfg.data["linear"]["t_final"]) is float and type(cfg.data["model"]["m"]) is int


class TestFileSystemInput:
    """An unreadable config or an unusable output directory exits 2 naming the path."""

    CFG = {"scenario": "solve-linear", "grid": {"r_max": 25.0, "N": 256}, "linear": {"t_final": 2.0}}

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["solve-linear", "--config", str(tmp_path)]) == 2
        assert f"cannot read config {str(tmp_path)!r}" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"scenario": "solve-linear", "output_dir": "\xff"}')
        assert main(["solve-linear", "--config", str(path)]) == 2
        assert f"cannot read config {str(path)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [3, None])
    def test_output_dir_not_a_string(self, tmp_path, capsys, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.CFG, "output_dir": value}))
        assert main(["solve-linear", "--config", str(path)]) == 2
        assert f"output_dir must be a string, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [False, True])
    def test_output_dir_is_a_file(self, tmp_path, capsys, flag):
        taken = tmp_path / "taken"
        taken.write_text("")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.CFG, "output_dir": str(tmp_path / "out" if flag else taken)}))
        extra = ["--output-dir", str(taken)] if flag else []
        assert main([*extra, "solve-linear", "--config", str(path)]) == 2
        assert f"cannot make output directory {str(taken)!r}" in capsys.readouterr().err
        assert taken.read_text() == ""

    def test_output_dir_is_a_file_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.CFG, "output_dir": str(taken)}))
        ran = []
        monkeypatch.setitem(cli._RUNNERS, "solve-linear", lambda cfg: ran.append(cfg) or {})
        assert main(["solve-linear", "--config", str(path)]) == 2
        assert f"cannot make output directory {str(taken)!r}" in capsys.readouterr().err
        assert ran == []

    def test_output_dir_name_too_long(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        ran = []
        monkeypatch.setitem(cli._RUNNERS, "exponents", lambda cfg: ran.append(cfg) or {})
        name = "x" * 300
        assert main(["--output-dir", name, "exponents", "--m", "1", "--n", "3"]) == 2
        reason = os.strerror(errno.ENAMETOOLONG)
        assert f"cannot make output directory {name!r}: {reason}" in capsys.readouterr().err
        assert ran == [] and list(tmp_path.iterdir()) == []

    def test_output_dir_with_null_byte(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.CFG, "output_dir": "a\x00b"}))
        monkeypatch.chdir(tmp_path)
        ran = []
        monkeypatch.setitem(cli._RUNNERS, "solve-linear", lambda cfg: ran.append(cfg) or {})
        assert main(["solve-linear", "--config", str(path)]) == 2
        assert "cannot make output directory 'a\\x00b': embedded null byte" in capsys.readouterr().err
        assert ran == [] and list(tmp_path.iterdir()) == [path]

    def test_output_dir_dangling_symlink_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        os.symlink("nowhere", "dangling")
        ran = []
        monkeypatch.setitem(cli._RUNNERS, "exponents", lambda cfg: ran.append(cfg) or {})
        code = main(["--output-dir", "dangling", "exponents", "--m", "1", "--n", "3"])
        assert ran == [] and list(tmp_path.iterdir()) == [tmp_path / "dangling"]
        assert code == 2
        assert "cannot make output directory 'dangling': a dangling symlink" in capsys.readouterr().err


class TestFlagCommandManifests:
    CASES = [
        ("exponents", ["exponents", "--m", "1", "--n", "3"]),
        ("exponents", ["exponents", "--sweep", "m=1..2 n=3..4", "--p", "2.0"]),
        ("check-geometry", ["--seed", "3", "check-geometry", "--m", "1", "--M", "2.0", "--T0", "0.5"]),
        ("symbols", ["symbols", "--m", "2", "--grid", "30:8"]),
    ]

    @pytest.mark.parametrize("scenario,argv", CASES)
    def test_manifest_reproduces(self, tmp_path, capsys, scenario, argv):
        digests = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            assert main(["--output-dir", str(outdir), *argv]) == 0
            stdout = capsys.readouterr().out
            manifest = json.loads((outdir / "manifest.json").read_text())
            assert manifest["config"]["scenario"] == scenario
            (name,) = manifest["outputs"]
            assert (outdir / name).read_text() == stdout
            digests.append(manifest["outputs"])
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("scenario,argv", CASES)
    def test_no_output_dir_writes_nothing(self, tmp_path, monkeypatch, scenario, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert list(tmp_path.iterdir()) == []


COLD_START = """
import contextlib, io, json, sys, tempfile
import numpy as np
import tricomi_lab.cli as cli
from tricomi_lab.config import SCENARIOS, parse_config
from tricomi_lab.grids import RadialGrid

for scenario in SCENARIOS:
    parse_config(json.dumps({"scenario": scenario, "sweep": {"p_grid": [2.0]}}))
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["exponents", "--m", "1", "--n", "3", "--p", "2.0"]) == 0
    assert cli.main(["--output-dir", tmp, "check-geometry", "--m", "1", "--M", "2.0", "--T0", "0.5"]) == 0
    assert cli.main(["symbols", "--m", "1", "--grid", "100:8"]) == 0
print("scipy.fft" in sys.modules)
print(any(name in sys.modules for name in ("concurrent.futures", "logging", "queue")))  # none before a transform
RadialGrid(r_max=1.0, N=8).forward(np.ones(7))
print("scipy.fft" in sys.modules)
"""


def test_cold_start_leaves_scipy_fft_to_the_first_transform():
    # a fresh interpreter: this process has long since imported scipy.fft
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "True"]
