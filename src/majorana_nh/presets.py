"""Figure-reproduction presets.

Each preset pins a model, a geometry, and the outputs of one published-style
figure: strip-spectrum sweeps (52 dimer rows, eigenvalues on the halved
energy scale) or right-eigenvector weight profiles (12 dimer rows = 24
sites).  Parameter provenance is recorded as ``stated`` (given in a caption)
or ``assumed`` (chosen here, e.g. the flavour-diagonal figure set reuses the
off-diagonal figure magnitudes).  Every preset also emits a qualitative-check
report: skin-effect presence, boundary-flip momenta, and edge-mode count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path

from . import ribbon
from .config import RunConfig, model_dict
from .errors import ConfigurationError
from .export import export_table, write_json
from .models import Coupling3, ModelConfig, Variant
from .pipelines import (
    WEIGHT_COLUMNS,
    _export_sweep,
    _metadata,
    _profile_rows,
    _run_sweep,
    _summary_dict,
)

_E3 = cmath.exp(1j * math.pi / 3)
_E6 = cmath.exp(1j * math.pi / 6)

#: snapshot momenta used for weight-profile figures (the captions do not list
#: their values, so a symmetric representative set is used)
PROFILE_KX = (-2 * math.pi / 3, -math.pi / 3, math.pi / 3, 2 * math.pi / 3)


@dataclass(frozen=True)
class FigurePreset:
    preset_id: str
    description: str
    model: ModelConfig
    kind: str  # "sweep" | "profiles"
    w: int
    provenance: dict


_PRESETS: dict[str, FigurePreset] = {}


def _add(preset_id, description, model, kind, w, provenance):
    _PRESETS[preset_id] = FigurePreset(preset_id, description, model, kind, w, provenance)


# flavour-diagonal figures: couplings are not printed in their captions, so the
# magnitudes of the off-diagonal figure set are reused with K = 0.4
_add(
    "fig2a-like",
    "flavour-diagonal model, Hermitian couplings, strip sweep",
    ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4, energy_scale="half"),
    "sweep",
    52,
    {"j": "assumed", "k_coupling": "assumed", "w": "stated"},
)
_add(
    "fig2b-like",
    "flavour-diagonal model, complex jz only, strip sweep",
    ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5 * _E3), k_coupling=0.4, energy_scale="half"),
    "sweep",
    52,
    {"j": "assumed", "k_coupling": "assumed", "w": "stated"},
)
_add(
    "fig2c-like",
    "flavour-diagonal model, complex jx and jy, strip sweep",
    ModelConfig(Variant.K_MODEL, Coupling3(2 * _E3, _E6, 2.5), k_coupling=0.4, energy_scale="half"),
    "sweep",
    52,
    {"j": "assumed", "k_coupling": "assumed", "w": "stated"},
)

_add(
    "fig3a",
    "flavour-off-diagonal model, Hermitian couplings, strip sweep",
    ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5), gamma=0.4, energy_scale="half"),
    "sweep",
    52,
    {"j": "assumed", "gamma": "stated", "w": "stated"},
)
_add(
    "fig3b",
    "flavour-off-diagonal model, complex jz only, strip sweep",
    ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * _E3), gamma=0.4, energy_scale="half"),
    "sweep",
    52,
    {"j": "stated", "gamma": "stated", "w": "stated"},
)
_add(
    "fig3c",
    "flavour-off-diagonal model, complex jx and jy, strip sweep",
    ModelConfig(Variant.GAMMA_MODEL, Coupling3(2 * _E3, _E6, 2.5), gamma=0.4, energy_scale="half"),
    "sweep",
    52,
    {"j": "stated", "gamma": "stated", "w": "stated"},
)
_add(
    "fig4",
    "flavour-off-diagonal model, complex jz only, weight profiles",
    ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * _E3), gamma=0.4, energy_scale="half"),
    "profiles",
    12,
    {"j": "stated", "gamma": "stated", "w": "stated", "kx_values": "assumed"},
)
_add(
    "fig5",
    "flavour-off-diagonal model, complex jx and jy, weight profiles",
    ModelConfig(Variant.GAMMA_MODEL, Coupling3(2 * _E3, _E6, 2.5), gamma=0.4, energy_scale="half"),
    "profiles",
    12,
    {"j": "stated", "gamma": "stated", "w": "stated", "kx_values": "assumed"},
)

_B = (0.0, 0.0, 0.7)
_add(
    "fig6a",
    "field+DMI model, Hermitian couplings, strip sweep",
    ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), d=0.5, b_field=_B, energy_scale="half"),
    "sweep",
    52,
    {"j": "assumed", "d": "stated", "b_field": "stated", "w": "stated"},
)
_add(
    "fig6b",
    "field+DMI model, complex jz only, strip sweep",
    ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, _E3), d=0.5, b_field=_B, energy_scale="half"),
    "sweep",
    52,
    {"j": "stated", "d": "stated", "b_field": "stated", "w": "stated"},
)
_add(
    "fig6c",
    "field+DMI model, complex jx and jy, strip sweep",
    ModelConfig(Variant.MAG_MODEL, Coupling3(_E3, _E6, 1), d=0.5, b_field=_B, energy_scale="half"),
    "sweep",
    52,
    {"j": "stated", "d": "stated", "b_field": "stated", "w": "stated"},
)
_add(
    "fig7",
    "field+DMI model, complex jz only, weight profiles",
    ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, _E3), d=0.5, b_field=_B, energy_scale="half"),
    "profiles",
    12,
    {"j": "stated", "d": "stated", "b_field": "stated", "w": "stated", "kx_values": "assumed"},
)
_add(
    "fig8",
    "field+DMI model, complex jx and jy, weight profiles",
    ModelConfig(Variant.MAG_MODEL, Coupling3(_E3, _E6, 1), d=0.5, b_field=_B, energy_scale="half"),
    "profiles",
    12,
    {"j": "stated", "d": "stated", "b_field": "stated", "w": "stated", "kx_values": "assumed"},
)

PRESET_IDS = tuple(sorted(_PRESETS))


def get_preset(preset_id: str) -> FigurePreset:
    if preset_id not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset_id!r}; available: {', '.join(PRESET_IDS)}"
        )
    return _PRESETS[preset_id]


def run_reproduce(cfg: RunConfig) -> list[Path]:
    """Run a figure preset: plot-ready tables plus a qualitative-check report.

    The preset fixes the model and geometry; explicitly provided grid keys
    (e.g. a coarser ``kx_n``) override the preset's sampling for quick runs.
    """
    preset = get_preset(cfg.preset)
    provided = getattr(cfg.grid, "_provided", set())
    w = cfg.grid.w if "w" in provided else preset.w
    kx_n = cfg.grid.kx_n if "kx_n" in provided else 402
    n_transverse = cfg.grid.n_transverse if "n_transverse" in provided else 512

    result, summary = _run_sweep(cfg, preset.model, w, kx_n, n_transverse)
    summary_dict = _summary_dict(summary)
    checks = ("nhse_present", "bulk_localized_fraction", "flip_kx", "max_edge_count")
    report = {
        "preset": preset.preset_id,
        "description": preset.description,
        "model": model_dict(preset.model),
        "w": w,
        "kx_n": kx_n,
        "parameter_provenance": preset.provenance,
        "qualitative_checks": {key: summary_dict[key] for key in checks},
    }

    out_dir = Path(cfg.output.directory)
    prefix = f"{cfg.output.prefix}_{preset.preset_id}"
    meta = _metadata(cfg, {"preset_report": report, "nhse_summary": summary_dict})

    if preset.kind == "sweep":
        files = _export_sweep(cfg, result, prefix, meta)
    else:
        rows = []
        for kx in PROFILE_KX:
            idx, vals, profiles = ribbon.edge_mode_weights(
                preset.model, w, kx, states=None, normalization="linear"
            )
            rows += [{"k_x": kx, **row} for row in _profile_rows(idx, vals, profiles)]
        files = export_table(
            out_dir, prefix, ("k_x",) + WEIGHT_COLUMNS, rows, meta, cfg.output.formats
        )

    report_path = out_dir / f"{prefix}_report.json"
    write_json(report_path, report)
    files.append(report_path)
    return files
