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

from .config import RunConfig, model_dict
from .errors import ConfigurationError
from .export import write_json
from .models import Coupling3, ModelConfig, Variant
from .pipelines import _export, _export_sweep, _profile_table, _run_sweep, _sweep_meta

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
    provenance: dict

    @property
    def w(self) -> int:
        """Strip width in dimer rows: 52 for a sweep, 12 for weight profiles."""
        return 52 if self.kind == "sweep" else 12


_PRESETS: dict[str, FigurePreset] = {}


def _add(preset_id, description, kind, model, provenance):
    """Register a preset; every width is stated, every profile's k_x values assumed."""
    provenance = provenance | {"w": "stated"} | ({"kx_values": "assumed"} if kind == "profiles" else {})
    what = "strip sweep" if kind == "sweep" else "weight profiles"
    _PRESETS[preset_id] = FigurePreset(preset_id, f"{description}, {what}", model, kind, provenance)


# flavour-diagonal figures: couplings are not printed in their captions, so the
# magnitudes of the off-diagonal figure set are reused with K = 0.4
_K = {"j": "assumed", "k_coupling": "assumed"}
_add("fig2a-like", "flavour-diagonal model, Hermitian couplings", "sweep",
     ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4, energy_scale="half"), _K)
_add("fig2b-like", "flavour-diagonal model, complex jz only", "sweep",
     ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5 * _E3), k_coupling=0.4, energy_scale="half"), _K)
_add("fig2c-like", "flavour-diagonal model, complex jx and jy", "sweep",
     ModelConfig(Variant.K_MODEL, Coupling3(2 * _E3, _E6, 2.5), k_coupling=0.4, energy_scale="half"), _K)

# each complex-coupling sweep of figures 3 and 6 has a weight-profile twin (figures 4, 5, 7, 8)
_G = {"j": "stated", "gamma": "stated"}
_GAMMA_JZ = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * _E3), gamma=0.4, energy_scale="half")
_GAMMA_JXY = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2 * _E3, _E6, 2.5), gamma=0.4, energy_scale="half")
_add("fig3a", "flavour-off-diagonal model, Hermitian couplings", "sweep",
     ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5), gamma=0.4, energy_scale="half"),
     _G | {"j": "assumed"})
_add("fig3b", "flavour-off-diagonal model, complex jz only", "sweep", _GAMMA_JZ, _G)
_add("fig3c", "flavour-off-diagonal model, complex jx and jy", "sweep", _GAMMA_JXY, _G)
_add("fig4", "flavour-off-diagonal model, complex jz only", "profiles", _GAMMA_JZ, _G)
_add("fig5", "flavour-off-diagonal model, complex jx and jy", "profiles", _GAMMA_JXY, _G)

_B = (0.0, 0.0, 0.7)
_M = {"j": "stated", "d": "stated", "b_field": "stated"}
_MAG_JZ = ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, _E3), d=0.5, b_field=_B, energy_scale="half")
_MAG_JXY = ModelConfig(Variant.MAG_MODEL, Coupling3(_E3, _E6, 1), d=0.5, b_field=_B, energy_scale="half")
_add("fig6a", "field+DMI model, Hermitian couplings", "sweep",
     ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), d=0.5, b_field=_B, energy_scale="half"),
     _M | {"j": "assumed"})
_add("fig6b", "field+DMI model, complex jz only", "sweep", _MAG_JZ, _M)
_add("fig6c", "field+DMI model, complex jx and jy", "sweep", _MAG_JXY, _M)
_add("fig7", "field+DMI model, complex jz only", "profiles", _MAG_JZ, _M)
_add("fig8", "field+DMI model, complex jx and jy", "profiles", _MAG_JXY, _M)

PRESET_IDS = tuple(sorted(_PRESETS))


def get_preset(preset_id: str) -> FigurePreset:
    if preset_id not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset_id!r}; available: {', '.join(PRESET_IDS)}"
        )
    return _PRESETS[preset_id]


def run_reproduce(cfg: RunConfig) -> list[Path]:
    """Run a figure preset: plot-ready tables plus a qualitative-check report.

    The preset fixes the model; :func:`config.parse_config` has put its strip
    width in ``grid.w`` unless the config gives one.  The sampling
    (``kx_n``, ``n_transverse``) is the config's, so a coarser ``kx_n``
    makes a quick run.
    """
    preset = get_preset(cfg.preset)
    result, summary = _run_sweep(cfg, preset.model)
    checks = ("nhse_present", "bulk_localized_fraction", "flip_kx", "max_edge_count")
    report = {
        "preset": preset.preset_id,
        "description": preset.description,
        "model": model_dict(preset.model),
        "w": cfg.grid.w,
        "kx_n": cfg.grid.kx_n,
        "parameter_provenance": preset.provenance,
        "qualitative_checks": {key: summary[key] for key in checks},
    }

    prefix = f"{cfg.output.prefix}_{preset.preset_id}"
    if preset.kind == "sweep":
        files = _export_sweep(cfg, preset.model, result, summary, prefix, {"preset_report": report})
    else:
        table = _profile_table(cfg, preset.model, PROFILE_KX, None, "linear", result.log)
        meta = {"preset_report": report, **_sweep_meta(result), "nhse_summary": summary}
        files = _export(cfg, prefix, tuple(table), table, meta, result.workers)

    report_path = Path(cfg.output.directory) / f"{prefix}_report.json"
    write_json(report_path, report)
    files.append(report_path)
    return files
