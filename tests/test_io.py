"""Config parsing, export formats, determinism, presets, CLI."""

import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from majorana_nh import ConfigurationError, Variant, parse_config
from majorana_nh.export import _cell, export_table, fmt_float, write_svg_scatter
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

    def test_duplicate_format_rejected_with_line(self):
        with pytest.raises(ConfigurationError, match=r"format 'csv' listed twice \(line 7\)"):
            parse_config(MINIMAL + "output:\n  formats: [csv, json, csv]\n")

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("### Config format", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(example)
        assert cfg.command == "ribbon-sweep"
        assert cfg.tolerance.gap_tol is None  # `gap_tol: null` is the default, not an error

    def test_quoted_scalars_stay_strings(self):
        # as yaml.safe_dump writes a string that would read as a number or null
        for quoted in ("'2024'", '"1e-05"', "'null'"):
            cfg = parse_config(MINIMAL + f"output:\n  prefix: {quoted}\n")
            assert cfg.output.prefix == quoted[1:-1]

    def test_reproduce_preset_resolved_at_parse_time(self):
        # an unknown preset fails before anything runs, and the preset's width is echoed
        with pytest.raises(ConfigurationError, match="unknown preset 'fig99'"):
            parse_config("command: reproduce\npreset: fig99\n")
        assert parse_config("command: reproduce\npreset: fig8\n").resolved["grid"]["w"] == 12
        assert parse_config("command: reproduce\npreset: fig8\ngrid:\n  w: 6\n").grid.w == 6

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


_EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_INT64 = st.integers(-(2**63), 2**63 - 1)
# cell strategy and array dtype per column kind; object columns stay lists
_CELLS = {
    "float": (_FLOATS, float),
    "int": (_INT64, np.int64),
    "bool": (st.booleans(), bool),
    # numpy's str dtype drops trailing NULs, so none are drawn
    "str": (st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")), str),
    "object": (st.one_of(st.none(), _INT64, _FLOATS), None),
}


@st.composite
def _tables(draw, n_rows):
    """(columns as lists of Python scalars, the same table as export_table is given it)."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=6))
    columns, given_columns = {}, {}
    for i, kind in enumerate(kinds):
        cells, dtype = _CELLS[kind]
        values = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns[f"{kind}{i}"] = values
        as_array = dtype is not None and draw(st.booleans())
        given_columns[f"{kind}{i}"] = np.array(values, dtype=dtype) if as_array else values
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    return columns, rows if draw(st.booleans()) else given_columns


def _bits(values):
    """Values with each float replaced by its binary64 bytes, so -0.0 != 0.0."""
    return [(float, struct.pack("<d", v)) if isinstance(v, float) else (type(v), v) for v in values]


class TestExport:
    @pytest.mark.parametrize("n_rows", [0, 1, 7])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_formats_pin_cell_bytes(self, n_rows, data):
        columns, table = data.draw(_tables(n_rows))
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        reference = [",".join(columns)] + [",".join(_cell(row.get(c)) for c in columns) for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            export_table(out, "t", tuple(columns), table, {"n": n_rows}, formats=("csv", "json", "ndjson"))
            assert (out / "t.csv").read_bytes() == ("\n".join(reference) + "\n").encode("utf-8")
            doc = json.loads((out / "t.json").read_bytes())
            nd = [json.loads(line) for line in (out / "t.ndjson").read_bytes().splitlines()]
        assert doc["columns"] == list(columns) and doc["metadata"] == {"n": n_rows}
        assert len(nd) == n_rows
        for c in columns:
            assert _bits(doc["data"][c]) == _bits([row[c] for row in nd])

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
        for orig, back in zip(rows, loaded["data"]["x"]):
            assert back == orig["x"]
            assert np.float64(back).tobytes() == np.float64(orig["x"]).tobytes()

    def test_csv_json_numeric_agreement(self, tmp_path, rng):
        rows = [{"x": float(v)} for v in rng.standard_normal(20)]
        export_table(tmp_path, "agree", ("x",), rows, {}, formats=("csv", "json", "ndjson"))
        csv_vals = [float(line) for line in (tmp_path / "agree.csv").read_text().splitlines()[1:]]
        json_vals = json.loads((tmp_path / "agree.json").read_text())["data"]["x"]
        nd_vals = [json.loads(line)["x"] for line in (tmp_path / "agree.ndjson").read_text().splitlines()]
        assert csv_vals == json_vals == nd_vals

    def test_svg_scatter_written(self, tmp_path):
        path = tmp_path / "s.svg"
        write_svg_scatter(path, [("extended", [0, 1, 2], [0.5, 0.7, 0.2])], title="t")
        text = path.read_text()
        assert text.startswith("<svg") and text.endswith("</svg>")
        # the group is one path of three zero-length round-capped strokes
        (d,) = re.findall(r'<path d="([^"]*)"', text)
        assert d.count("M") == 3 and d.count("V") == 3


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
        assert j1["data"] == j2["data"]

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


class TestBlasThreadsMeta:
    MODEL = """
model:
  variant: gamma_model
  j: [[2, 0], [1, 0], {mod: 2.5, phase_over_pi: 0.3333333333333333}]
  gamma: 0.4
"""
    GRID = """
grid:
  w: 4
  kx_n: 2
  n_transverse: 32
output:
  directory: {out}
  prefix: b
  svg: false
"""

    @pytest.mark.parametrize("setters", ["found", "missing"])
    @pytest.mark.parametrize(
        "command, meta",
        [("ribbon-sweep", "b_sweep_meta.json"), ("localization", "b_profiles_meta.json"), ("reproduce", "b_fig4_meta.json")],
    )
    def test_meta_says_whether_blas_was_pinned(self, tmp_path, monkeypatch, command, meta, setters):
        from majorana_nh import eigen

        if setters == "missing":
            monkeypatch.setattr(eigen, "_BLAS_THREADS", [])
        elif not eigen._BLAS_THREADS:
            pytest.skip("this numpy/scipy bundles no OpenBLAS thread setter")
        setting = "preset: fig4" if command == "reproduce" else self.MODEL
        run_command(parse_config(f"command: {command}\n{setting}" + self.GRID.format(out=tmp_path)))
        blas = json.loads((tmp_path / meta).read_text())["blas_threads"]
        assert blas == (1 if setters == "found" else None)


class TestStripSolvesMeta:
    # real couplings: Hermitian, with an onsite field
    FIELD_MODEL = """
model:
  variant: mag_model
  j: [1, 1, 1]
  d: 0.5
  b_field: [0, 0, 0.7]
"""
    COMPLEX_FIELD_MODEL = """
model:
  variant: mag_model
  j: [1, 1, {mod: 1, phase_over_pi: 0.3333333333333333}]
  d: 0.5
  b_field: [0, 0, 0.7]
"""

    @pytest.mark.parametrize(
        "command, meta, setting, path, count",
        [
            ("ribbon-sweep", "b_sweep_meta.json", TestBlasThreadsMeta.MODEL, "chiral", 2),
            ("ribbon-sweep", "b_sweep_meta.json", COMPLEX_FIELD_MODEL, "dense", 2),
            ("ribbon-sweep", "b_sweep_meta.json", FIELD_MODEL, "hermitian", 2),
            ("localization", "b_profiles_meta.json", TestBlasThreadsMeta.MODEL, "chiral", 1),
            ("localization", "b_profiles_meta.json", COMPLEX_FIELD_MODEL, "dense", 1),
            ("localization", "b_profiles_meta.json", FIELD_MODEL, "hermitian", 1),
            # the preset's sweep (kx_n=2) and its four profile momenta
            ("reproduce", "b_fig4_meta.json", "preset: fig4", "chiral", 6),
            ("reproduce", "b_fig7_meta.json", "preset: fig7", "dense", 6),
            ("reproduce", "b_fig6a_meta.json", "preset: fig6a", "hermitian", 2),
        ],
    )
    def test_meta_counts_strip_solves_by_path(self, tmp_path, command, meta, setting, path, count):
        grid = TestBlasThreadsMeta.GRID.format(out=tmp_path)
        run_command(parse_config(f"command: {command}\n{setting}" + grid))
        solves = json.loads((tmp_path / meta).read_text())["strip_solves"]
        assert solves == {"hermitian": 0, "chiral": 0, "dense": 0, "dense_fallback": 0, path: count}


class TestBlochSpectrumPipeline:
    def test_one_grid_build_and_one_eigensolve(self, tmp_path, monkeypatch):
        # MINIMAL has real couplings: a Hermitian model, solved by eigh
        self._check_one_solve(tmp_path, monkeypatch, MINIMAL, "eigh")

    def test_complex_model_solved_by_eig(self, tmp_path, monkeypatch):
        config = MINIMAL.replace("[1, 0]]", "{mod: 1, phase_over_pi: 0.25}]")
        self._check_one_solve(tmp_path, monkeypatch, config, "eig")

    def _check_one_solve(self, tmp_path, monkeypatch, config, solver):
        from majorana_nh import eigen, pipelines

        calls = {"grid": [], "eig": [], "eigh": []}
        real_grid = pipelines.bloch_matrix_grid

        def grid(model, ks):
            calls["grid"].append(np.shape(ks))
            return real_grid(model, ks)

        def recording(name):
            real = getattr(eigen, name)

            def solve(matrix, *args, **kwargs):
                calls[name].append(np.shape(matrix))
                return real(matrix, *args, **kwargs)

            monkeypatch.setattr(eigen, name, solve)

        monkeypatch.setattr(pipelines, "bloch_matrix_grid", grid)
        recording("eig")
        recording("eigh")
        cfg = parse_config(config + f"grid:\n  bz_n: 8\noutput:\n  directory: {tmp_path}\n  prefix: b\n")
        run_command(cfg)
        assert calls == {"grid": [(64, 2)], "eig": [], "eigh": [], solver: [(64, 6, 6)]}
        lines = (tmp_path / "b_bloch.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 64 * 6
        im_e = [float(line.split(",")[4]) for line in lines[1:]]
        assert (max(map(abs, im_e)) == 0.0) == (solver == "eigh")


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


class TestFormatAgreement:
    # the parent model's EP table: one species, so every flavour cell is None
    CONFIG = """
command: ep-find
model:
  variant: pure_yl
  j: [[1, 0], [0.5213, 0], {{mod: 1.5, phase_over_pi: 0.3}}]
grid:
  bz_n: 32
output:
  directory: {out}
  prefix: p
  formats: [csv, json, ndjson]
"""

    @staticmethod
    def _parse(cell, like):
        """A CSV cell read back as the type of the JSON value ``like``."""
        if like is None:
            return None if cell == "" else cell
        if isinstance(like, bool):
            return bool(int(cell))
        return type(like)(cell)

    def test_ep_table_agrees_across_formats(self, tmp_path):
        run_command(parse_config(self.CONFIG.format(out=tmp_path)))
        header, *lines = (tmp_path / "p_eps.csv").read_text().splitlines()
        doc = json.loads((tmp_path / "p_eps.json").read_text())
        nd = [json.loads(line) for line in (tmp_path / "p_eps.ndjson").read_text().splitlines()]
        assert lines and len(nd) == len(lines)
        assert None in doc["data"]["flavour"]
        assert all(isinstance(v, bool) for v in doc["data"]["confirmed"])
        assert doc["columns"] == header.split(",")
        for name, cells in zip(doc["columns"], zip(*(line.split(",") for line in lines))):
            data = doc["data"][name]
            assert data == [self._parse(cell, v) for cell, v in zip(cells, data)]
            assert data == [row[name] for row in nd]
        assert doc["metadata"] == json.loads((tmp_path / "p_eps_meta.json").read_text())


class TestEchoRoundTrip:
    """The config echo of ``_meta.json``, dumped as YAML, parses back into the run that wrote it."""

    K = """model:
  variant: k_model
  j: [[2, 0], [1, 0], {mod: 2.5, phase_over_pi: 0.3333333333333333}]
  k_coupling: 0.4
"""
    GAMMA = TestBlasThreadsMeta.MODEL.lstrip()
    MAG = """model:
  variant: mag_model
  j: [1, 1, {mod: 1, phase_over_pi: 0.3333333333333333}]
  d: 0.5
  b_field: [0, 0, 0.7]
  dmi_z_mode: none
  energy_scale: half
"""

    @pytest.mark.parametrize(
        "command, setting, grid, table",
        [
            pytest.param(command, setting, grid, table, id=table[2:])
            for command, setting, grid, table in [
                ("bloch-spectrum", MAG, "bz_n: 6", "e_bloch"),
                ("ep-find", GAMMA, "bz_n: 32", "e_eps"),
                ("arc-trace", K, "arc_grid_n: 48", "e_arcs"),
                ("skin-check", K, "bz_n: 4", "e_skin"),
                ("ribbon-sweep", GAMMA, "w: 4\n  kx_n: 3\n  n_transverse: 32", "e_sweep"),
                ("localization", MAG, "w: 4\n  n_states: 3", "e_profiles"),
                ("reproduce", "preset: fig6a\n", "w: 6\n  kx_n: 2\n  n_transverse: 32", "e_fig6a"),
                ("reproduce", "preset: fig4\n", "kx_n: 2\n  n_transverse: 32", "e_fig4"),
            ]
        ],
    )
    def test_echo_parses_back_and_reruns(self, tmp_path, command, setting, grid, table):
        text = f"command: {command}\n{setting}grid:\n  {grid}\n"
        text += f"output:\n  directory: {tmp_path}\n  prefix: e\n  formats: [csv, ndjson]\n"
        run_command(parse_config(text))
        meta, csv = tmp_path / f"{table}_meta.json", tmp_path / f"{table}.csv"
        echo = json.loads(meta.read_text())["config"]
        first = csv.read_bytes()
        csv.unlink()
        # safe_dump: PyYAML reads a JSON float such as 1e-05 as a string
        run_command(parse_config(yaml.safe_dump(echo)))
        assert json.loads(meta.read_text())["config"] == echo
        assert csv.read_bytes() == first

    def test_profile_preset_echoes_the_width_it_ran(self, tmp_path):
        grid = "grid:\n  kx_n: 2\n  n_transverse: 32\n"
        run_command(parse_config(f"command: reproduce\npreset: fig4\n{grid}output:\n  directory: {tmp_path}\n"))
        meta = json.loads((tmp_path / "run_fig4_meta.json").read_text())
        assert meta["config"]["grid"]["w"] == meta["preset_report"]["w"] == 12


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
        # the child imports the package from this checkout, installed or not;
        # an env value of None removes that variable
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path, **(env or {})}
        return subprocess.run(
            [sys.executable, "-m", "majorana_nh.cli", *args],
            capture_output=True,
            text=True,
            env={k: v for k, v in env.items() if v is not None},
        )

    GAMMA_W52 = """
command: {command}
model:
  variant: gamma_model
  j: [[2, 0], [1, 0], {{mod: 2.5, phase_over_pi: 0.3333333333333333}}]
  gamma: 0.4
  energy_scale: half
grid:
  w: 52
  kx_n: 2
output:
  directory: {out}
  prefix: g
  svg: false
"""

    @pytest.mark.parametrize("command, table", [("ribbon-sweep", "g_sweep"), ("localization", "g_profiles")])
    def test_strip_bytes_independent_of_blas_threads(self, tmp_path, command, table):
        # BLAS pinned at one thread by its env var and one sweep worker, against
        # BLAS at its library default and two workers: the same bytes
        runs = {
            "pinned": ({"OMP_NUM_THREADS": "1"}, "1"),
            "default": (dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")), "2"),
        }
        for name, (env, threads) in runs.items():
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(self.GAMMA_W52.format(command=command, out=tmp_path / name))
            res = self._run(command, "--config", str(cfg), "--threads", threads, env=env)
            assert res.returncode == 0, res.stderr
        pinned, default = ((tmp_path / name / f"{table}.csv").read_bytes() for name in runs)
        assert pinned == default

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
            # no edge band, or two that overlap
            ("ribbon-sweep", "tolerance:\n  outer_frac: 0\n",
             r"tolerance\.outer_frac must be in \(0, 0\.5\], got 0\.0 \(line 7\)"),
            ("localization", "tolerance:\n  outer_frac: 0.6\n",
             r"tolerance\.outer_frac must be in \(0, 0\.5\], got 0\.6 \(line 7\)"),
        ],
    )
    def test_out_of_range_value_exit_2(self, tmp_path, command, extra, message):
        cfg = tmp_path / "cfg.yaml"
        out = f"output:\n  directory: {tmp_path / 'out'}\n"
        cfg.write_text(MINIMAL.replace("bloch-spectrum", command) + extra + out)
        res = self._run(command, "--config", str(cfg))
        assert res.returncode == 2
        assert re.search(message, res.stderr), res.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text, flags, message",
        [
            (
                "reproduce",
                "command: reproduce\npreset: fig4\nmodel:\n  variant: pure_yl\n  j: [1, 1, 1]\n",
                (),
                r"'reproduce' takes its model from the preset, not a model block \(line 4\)",
            ),
            ("skin-check", MINIMAL.replace("bloch-spectrum", "skin-check") + "preset: fig4\n", (),
             r"'skin-check' takes no preset \(only 'reproduce' does\) \(line 6\)"),
            ("ribbon-sweep", MINIMAL.replace("bloch-spectrum", "ribbon-sweep") + "preset: fig3b\n", (),
             r"'ribbon-sweep' takes no preset .*\(line 6\)"),
            ("bloch-spectrum", MINIMAL, ("--preset", "fig4"), r"--preset applies to 'reproduce' only"),
            ("reproduce", "command: reproduce\npreset: fig8\n", ("--scale", "raw"),
             r"--scale does not apply to 'reproduce'"),
            ("skin-check",
             "command: skin-check\nmodel:\n  variant: gamma_model\n"
             "  j: [2, 1, {mod: 2.5, phase_over_pi: 0.3333333333333333}]\n  gamma: 0.4\n", (),
             r"'skin-check' tests each Majorana species alone; 'gamma_model' mixes them \(line 3\)"),
        ],
    )
    def test_ignored_key_exit_2(self, tmp_path, command, text, flags, message):
        # a key the command would ignore is rejected before anything runs
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text + f"output:\n  directory: {tmp_path / 'out'}\n")
        res = self._run(command, "--config", str(cfg), *flags)
        assert res.returncode == 2
        assert re.search(message, res.stderr), res.stderr
        assert not (tmp_path / "out").exists()

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
        assert all(not skin_any for skin_any in data["data"]["skin_any"])
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
