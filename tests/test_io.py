"""Config parsing, export formats, determinism, presets, CLI."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from majorana_nh import ConfigurationError, Variant, parse_config
from majorana_nh.export import export_table, fmt_float, write_svg_scatter
from majorana_nh.pipelines import run_command
from majorana_nh.presets import PRESET_IDS, get_preset


MINIMAL = """
command: bloch-spectrum
model:
  variant: pure_yl
  j: [[1, 0], [1, 0], [1, 0]]
"""


class TestParseConfig:
    def test_minimal_defaults_filled(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model.variant is Variant.PURE_YL
        assert cfg.model.j.jx == 1.0
        assert cfg.grid.bz_n == 128
        assert cfg.tolerance.overlap_tol == 1e-4
        assert cfg.output.formats == ("csv", "json")
        assert cfg.resolved["grid"]["kx_n"] == 402
        assert cfg.resolved["model"]["energy_scale"] == "raw"

    def test_gamma_key_rejected_for_k_model(self):
        text = """
command: ribbon-sweep
model:
  variant: k_model
  j: [[1,0],[1,0],[1,0]]
  gamma: 0.4
"""
        with pytest.raises(ConfigurationError, match="not valid for variant"):
            parse_config(text)

    def test_unknown_key_with_line(self):
        text = MINIMAL + "grid:\n  bz_n: 64\n  bogus: 1\n"
        with pytest.raises(ConfigurationError, match=r"bogus.*line 8"):
            parse_config(text)

    def test_eig_tol_is_an_unknown_key(self):
        text = MINIMAL + "tolerance:\n  overlap_tol: 1.0e-4\n  eig_tol: 1.0e-8\n"
        with pytest.raises(ConfigurationError, match=r"unknown key tolerance.'eig_tol'.*line 8"):
            parse_config(text)

    def test_dmi_z_mode_rejected_outside_mag_model(self):
        text = """
command: bloch-spectrum
model:
  variant: gamma_model
  j: [1, 1, 1]
  dmi_z_mode: none
"""
        with pytest.raises(ConfigurationError, match=r"'dmi_z_mode' not valid.*line 6"):
            parse_config(text)

    def test_preset_flag_alone_parses_like_a_config(self):
        from majorana_nh.cli import _build_parser, _load_config

        cfg = _load_config(_build_parser().parse_args(["reproduce", "--preset", "fig3b"]))
        assert cfg.preset == "fig3b"
        assert cfg.resolved == parse_config("command: reproduce", preset="fig3b").resolved
        assert cfg.resolved["grid"]["kx_n"] == 402
        assert "eig_tol" not in cfg.resolved["tolerance"]

    def test_polar_complex_form(self):
        text = """
command: bloch-spectrum
model:
  variant: gamma_model
  j: [[2, 0], [1, 0], {mod: 2.5, phase_over_pi: 0.3333333333}]
  gamma: 0.4
"""
        cfg = parse_config(text)
        expect = 2.5 * np.exp(1j * np.pi / 3)
        assert abs(cfg.model.j.jz - expect) < 1e-9

    def test_type_errors_carry_location(self):
        text = MINIMAL + "threads: lots\n"
        with pytest.raises(ConfigurationError, match="threads"):
            parse_config(text)

    def test_preset_flag_completes_a_config_without_preset(self, tmp_path):
        from majorana_nh.cli import _build_parser, _load_config

        path = tmp_path / "r.yaml"
        path.write_text("command: reproduce\ngrid:\n  kx_n: 4\n")
        args = _build_parser().parse_args(["reproduce", "--config", str(path), "--preset", "fig3b"])
        cfg = _load_config(args)
        assert cfg.preset == "fig3b"
        assert cfg.resolved["preset"] == "fig3b"
        assert cfg.grid.kx_n == 4
        # the flag overrides a preset named in the file
        assert parse_config("command: reproduce\npreset: fig6a\n", preset="fig3b").preset == "fig3b"

    def test_command_model_requirements(self):
        with pytest.raises(ConfigurationError, match="needs a model"):
            parse_config("command: ribbon-sweep\n")
        with pytest.raises(ConfigurationError, match="needs a preset"):
            parse_config("command: reproduce\n")

    def test_dmi_z_mode(self):
        base = """
command: bloch-spectrum
model:
  variant: mag_model
  j: [[1,0],[1,0],[1,0]]
  d: 0.5
  dmi_z_mode: {mode}
"""
        cfg = parse_config(base.format(mode="none"))
        assert cfg.model.resolved_dmi_vectors()[2] == (0.0, 0.0)
        cfg = parse_config(base.format(mode="c3"))
        assert cfg.model.resolved_dmi_vectors()[2] == (-0.5, -math.sqrt(3) / 2)


class TestExport:
    def test_float_formatting_roundtrip(self, rng):
        for x in rng.uniform(-10, 10, 100):
            assert float(fmt_float(float(x))) == float(x)
        assert float(fmt_float(math.pi)) == math.pi

    def test_six_rows_plus_metadata(self, tmp_path):
        rows = [
            {"k_x": 0.0, "k_y": 0.0, "state_index": i, "re_E": float(i), "im_E": 0.0, "abs_E": float(i)}
            for i in range(6)
        ]
        files = export_table(
            tmp_path, "t", ("k_x", "k_y", "state_index", "re_E", "im_E", "abs_E"), rows, {"a": 1}
        )
        csv = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert len(csv) == 7  # header + 6 rows
        assert (tmp_path / "t_meta.json").exists()

    def test_json_roundtrip_bit_identical(self, tmp_path, rng):
        rows = [{"x": float(v)} for v in rng.standard_normal(50)]
        export_table(tmp_path, "rt", ("x",), rows, {}, formats=("json",))
        loaded = json.loads((tmp_path / "rt.json").read_text())
        for orig, back in zip(rows, loaded["rows"]):
            assert back["x"] == orig["x"]
            assert np.float64(back["x"]).tobytes() == np.float64(orig["x"]).tobytes()

    def test_csv_json_numeric_agreement(self, tmp_path, rng):
        rows = [{"x": float(v)} for v in rng.standard_normal(20)]
        export_table(tmp_path, "agree", ("x",), rows, {}, formats=("csv", "json", "ndjson"))
        csv_vals = [float(line) for line in (tmp_path / "agree.csv").read_text().splitlines()[1:]]
        json_vals = [r["x"] for r in json.loads((tmp_path / "agree.json").read_text())["rows"]]
        nd_vals = [json.loads(line)["x"] for line in (tmp_path / "agree.ndjson").read_text().splitlines()]
        assert csv_vals == json_vals == nd_vals

    def test_svg_scatter_written(self, tmp_path):
        path = tmp_path / "s.svg"
        write_svg_scatter(path, [("extended", [0, 1, 2], [0.5, 0.7, 0.2])], title="t")
        text = path.read_text()
        assert text.startswith("<svg") and text.endswith("</svg>")
        assert text.count("<circle") >= 3


class TestPipelineDeterminism:
    def _cfg(self, out_dir):
        return parse_config(
            f"""
command: ribbon-sweep
model:
  variant: gamma_model
  j: [[2, 0], [1, 0], {{mod: 2.5, phase_over_pi: 0.3333333333333333}}]
  gamma: 0.4
grid:
  w: 6
  kx_n: 5
  n_transverse: 64
output:
  directory: {out_dir}
  prefix: det
  formats: [csv, json, ndjson]
  svg: false
"""
        )

    def test_repeated_runs_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_command(self._cfg(d1))
        run_command(self._cfg(d2))
        for name in ("det_sweep.csv", "det_sweep.ndjson"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        # metadata differs only in the echoed output directory
        j1 = json.loads((d1 / "det_sweep.json").read_text())
        j2 = json.loads((d2 / "det_sweep.json").read_text())
        assert j1["rows"] == j2["rows"]

    def test_sweep_rows_sorted_and_counted(self, tmp_path):
        cfg = self._cfg(tmp_path)
        run_command(cfg)
        lines = (tmp_path / "det_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 36  # header + kx_n * 6w
        keys = []
        for line in lines[1:]:
            parts = line.split(",")
            keys.append((float(parts[0]), int(parts[1])))
        assert keys == sorted(keys)


class TestBlochSpectrumPipeline:
    def test_one_grid_build_and_one_eigensolve(self, tmp_path, monkeypatch):
        from majorana_nh import eigen, pipelines

        calls = {"grid": [], "eig": []}
        real_grid, real_eig = pipelines.bloch_matrix_grid, eigen.eig

        def grid(model, ks):
            calls["grid"].append(np.shape(ks))
            return real_grid(model, ks)

        def eig(matrix, *args, **kwargs):
            calls["eig"].append(np.shape(matrix))
            return real_eig(matrix, *args, **kwargs)

        monkeypatch.setattr(pipelines, "bloch_matrix_grid", grid)
        monkeypatch.setattr(eigen, "eig", eig)
        cfg = parse_config(MINIMAL + f"grid:\n  bz_n: 8\noutput:\n  directory: {tmp_path}\n  prefix: b\n")
        run_command(cfg)
        assert calls == {"grid": [(64, 2)], "eig": [(64, 6, 6)]}
        lines = (tmp_path / "b_bloch.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 64 * 6


class TestEPMetadata:
    CONFIG = """
command: {command}
model:
  variant: gamma_model
  j: [[2, 0], [1, 0], {{mod: 2.5, phase_over_pi: 0.3333333333333333}}]
  gamma: 0.4
  energy_scale: half
grid:
  bz_n: 48
  arc_grid_n: 64
output:
  directory: {out}
  prefix: g
"""

    @pytest.mark.parametrize("command,table", [("ep-find", "g_eps"), ("arc-trace", "g_arcs")])
    def test_refinement_counters_in_meta(self, tmp_path, command, table):
        metas = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_command(parse_config(self.CONFIG.format(command=command, out=out)))
            metas.append(json.loads((out / f"{table}_meta.json").read_text()))
        counters = metas[0]["ep_refinement"]
        assert set(counters) == {"candidates", "newton_iterations", "fallbacks", "rejected", "confirmed"}
        assert counters["confirmed"] == 10
        assert counters["candidates"] >= counters["fallbacks"] >= counters["rejected"]
        assert metas[1]["ep_refinement"] == counters
        assert (tmp_path / "a" / f"{table}.csv").read_bytes() == (tmp_path / "b" / f"{table}.csv").read_bytes()


class TestPresets:
    def test_all_presets_resolve(self):
        assert len(PRESET_IDS) == 13
        for pid in PRESET_IDS:
            preset = get_preset(pid)
            assert preset.kind in ("sweep", "profiles")
            assert preset.provenance

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            get_preset("fig99")

    def test_provenance_marks_assumed_parameters(self):
        # the flavour-diagonal figure set has no stated couplings
        assert get_preset("fig2a-like").provenance["j"] == "assumed"
        assert get_preset("fig4").provenance["j"] == "stated"
        assert get_preset("fig4").provenance["kx_values"] == "assumed"

    def test_fig4_parameters(self):
        model = get_preset("fig4").model
        assert model.variant is Variant.GAMMA_MODEL
        assert model.j.jx == 2 and model.j.jy == 1
        assert abs(model.j.jz - 2.5 * np.exp(1j * np.pi / 3)) < 1e-12
        assert model.gamma == 0.4
        assert get_preset("fig4").w == 12

    def test_fig8_reproduce_run(self, tmp_path):
        cfg = parse_config(
            f"""
command: reproduce
preset: fig8
grid:
  w: 12
  kx_n: 12
  n_transverse: 256
output:
  directory: {tmp_path}
  prefix: r
"""
        )
        run_command(cfg)
        report = json.loads((tmp_path / "r_fig8_report.json").read_text())
        checks = report["qualitative_checks"]
        assert checks["nhse_present"]
        flips = checks["flip_kx"]
        spacing = 2 * np.pi / 12
        for target in (0.0, np.pi):
            assert min(min(abs(f - target), 2 * np.pi - abs(f - target)) for f in flips) <= spacing

    def test_fig2a_like_reproduce_qualitative(self, tmp_path):
        cfg = parse_config(
            f"""
command: reproduce
preset: fig2a-like
grid:
  w: 16
  kx_n: 10
  n_transverse: 1024
output:
  directory: {tmp_path}
  prefix: r
  svg: true
"""
        )
        run_command(cfg)
        report = json.loads((tmp_path / "r_fig2a-like_report.json").read_text())
        assert not report["qualitative_checks"]["nhse_present"]
        assert report["qualitative_checks"]["max_edge_count"] >= 3
        assert (tmp_path / "r_fig2a-like.svg").exists()


class TestCLI:
    def _run(self, *args, env=None):
        # the child imports the package from this checkout, installed or not
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "majorana_nh.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, **(env or {})},
        )

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("command: ribbon-sweep\nmodel:\n  variant: k_model\n  j: [[1,0],[1,0],[1,0]]\n  gamma: 1\n")
        res = self._run("ribbon-sweep", "--config", str(bad))
        assert res.returncode == 2
        assert "not valid for variant" in res.stderr

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            # the ribbon-sweep cases keep the ids they had before the command column
            pytest.param("ribbon-sweep", extra, message, id=f"{extra}-{message}")
            for extra, message in [
                ("grid:\n  w: 1\n", r"grid\.w must be >= 2, got 1 \(line 7\)"),
                ("grid:\n  kx_n: 0\n", r"grid\.kx_n must be >= 1, got 0 \(line 7\)"),
                ("grid:\n  n_transverse: 0\n", r"grid\.n_transverse must be >= 1, got 0 \(line 7\)"),
                ("grid:\n  n_states: -1\n", r"grid\.n_states must be >= 0, got -1 \(line 7\)"),
                ("threads: 0\n", r"threads must be >= 1, got 0 \(line 6\)"),
            ]
        ]
        + [
            ("ep-find", "grid:\n  bz_n: 31\n", r"grid\.bz_n must be >= 32 for ep-find, got 31 \(line 7\)"),
            ("arc-trace", "grid:\n  arc_grid_n: 0\n", r"grid\.arc_grid_n must be >= 2, got 0 \(line 7\)"),
            ("arc-trace", "grid:\n  arc_grid_n: 1\n", r"grid\.arc_grid_n must be >= 2, got 1 \(line 7\)"),
            ("bloch-spectrum", "grid:\n  bz_n: 0\n", r"grid\.bz_n must be >= 1, got 0 \(line 7\)"),
        ],
    )
    def test_out_of_range_value_exit_2(self, tmp_path, command, extra, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL.replace("bloch-spectrum", command) + extra)
        res = self._run(command, "--config", str(cfg))
        assert res.returncode == 2
        assert re.search(message, res.stderr), res.stderr

    def test_non_integer_thread_env_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL)
        res = self._run("bloch-spectrum", "--config", str(cfg), env={"MAJORANA_NH_THREADS": "two"})
        assert res.returncode == 2
        assert "MAJORANA_NH_THREADS must be an integer" in res.stderr

    def test_missing_config_exit_2(self):
        res = self._run("ribbon-sweep", "--config", "/nonexistent/x.yaml")
        assert res.returncode == 2

    def test_skin_check_roundtrip(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            """
command: skin-check
model:
  variant: k_model
  j: [[2, 0], [1, 0], {mod: 2.5, phase_over_pi: 0.3333333333333333}]
  k_coupling: 0.4
output:
  directory: %s
  prefix: skin
"""
            % tmp_path
        )
        res = self._run("skin-check", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "skin_skin.json").read_text())
        # complex jz alone produces no intra-row asymmetry for any species
        assert all(not row["skin_any"] for row in data["rows"])
        assert not data["metadata"]["skin_any_model"]

    def test_scale_override_recorded(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            """
command: skin-check
model:
  variant: pure_yl
  j: [[1, 0], [1, 0], [1, 0]]
output:
  directory: %s
  prefix: s
"""
            % tmp_path
        )
        res = self._run("skin-check", "--config", str(cfg), "--scale", "half")
        assert res.returncode == 0, res.stderr
        meta = json.loads((tmp_path / "s_skin_meta.json").read_text())
        assert meta["config"]["model"]["energy_scale"] == "half"
        assert "seed" not in meta["config"]

    def test_seed_rejected(self, tmp_path):
        # nothing is random: neither the config key nor the flag exists
        with pytest.raises(ConfigurationError, match=r"unknown key 'seed'.*line 6"):
            parse_config(MINIMAL + "seed: 7\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL)
        res = self._run("bloch-spectrum", "--config", str(cfg), "--seed", "7")
        assert res.returncode == 2
        assert "unrecognized arguments: --seed" in res.stderr

    def test_localization_command(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            """
command: localization
model:
  variant: k_model
  j: [[2, 0], [1, 0], [2.5, 0]]
  k_coupling: 0.4
grid:
  w: 8
  n_states: 4
output:
  directory: %s
  prefix: loc
  weight_scale: log01
"""
            % tmp_path
        )
        res = self._run("localization", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "loc_profiles.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 16  # header + n_states * 2w sites
