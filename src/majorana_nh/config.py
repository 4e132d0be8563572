"""Run configuration: YAML parsing, validation, and defaults.

The config surface is YAML with four blocks (``model``, ``grid``,
``tolerance``, ``output``) plus a ``command``/``preset`` selector.  Unknown
keys are rejected with the offending line number, as are the keys a command
would ignore: a ``model`` block for ``reproduce``, whose preset fixes the
model, and a ``preset`` for any other command.  Complex numbers are
written either as ``[re, im]`` pairs or as ``{mod: m, phase_over_pi: p}``;
bare reals are accepted too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field, fields

import yaml

from .ep import MIN_SCAN_GRID_N
from .errors import ConfigurationError
from .models import VARIANT_FIELDS, Coupling3, ModelConfig, Variant, default_dmi_vectors
from .ribbon import ClassifierThresholds

#: variant names as written in a config, with or without the underscore
_VARIANT_ALIASES = {name: v for v in Variant for name in (v.value, v.value.replace("_", ""))}

COMMANDS = (
    "bloch-spectrum",
    "ep-find",
    "arc-trace",
    "skin-check",
    "ribbon-sweep",
    "localization",
    "reproduce",
)


class _Located:
    """A parsed YAML value plus its source line (1-based)."""

    __slots__ = ("value", "line")

    def __init__(self, value, line):
        self.value = value
        self.line = line


def _compose(text: str):
    """YAML -> plain values wrapped in _Located, preserving line numbers."""

    def build(node):
        line = node.start_mark.line + 1
        if isinstance(node, yaml.MappingNode):
            out = {}
            for key_node, value_node in node.value:
                out[str(key_node.value)] = build(value_node)
            return _Located(out, line)
        if isinstance(node, yaml.SequenceNode):
            return _Located([build(child) for child in node.value], line)
        return _Located(yaml.safe_load(node.value or "null"), line)

    try:
        root = yaml.compose(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config is not valid YAML: {exc}") from exc
    if root is None:
        return _Located({}, 1)
    return build(root)


def _err(msg, located=None):
    where = f" (line {located.line})" if isinstance(located, _Located) else ""
    raise ConfigurationError(msg + where)


def _as_real(located, name):
    v = located.value
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _err(f"{name}: expected a real number, got {v!r}", located)
    return float(v)


def _as_int(located, name):
    v = located.value
    if isinstance(v, bool) or not isinstance(v, int):
        _err(f"{name}: expected an integer, got {v!r}", located)
    return int(v)


def _at_least(low):
    """Integer parser that rejects values below ``low``."""

    def cast(located, name):
        v = _as_int(located, name)
        if v < low:
            _err(f"{name} must be >= {low}, got {v}", located)
        return v

    return cast


def _as_str(located, name):
    v = located.value
    if not isinstance(v, str):
        _err(f"{name}: expected a string, got {v!r}", located)
    return v


def _as_complex(located, name):
    """Accept bare real, [re, im], or {mod: m, phase_over_pi: p}."""
    v = located.value
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if isinstance(v, list):
        if len(v) != 2:
            _err(f"{name}: complex as [re, im] needs exactly two entries", located)
        return complex(_as_real(v[0], name + "[0]"), _as_real(v[1], name + "[1]"))
    if isinstance(v, dict):
        keys = set(v)
        if keys != {"mod", "phase_over_pi"}:
            _err(f"{name}: complex mapping needs keys mod and phase_over_pi", located)
        mod = _as_real(v["mod"], name + ".mod")
        ph = _as_real(v["phase_over_pi"], name + ".phase_over_pi")
        return mod * cmath.exp(1j * math.pi * ph)
    _err(f"{name}: cannot interpret {v!r} as a complex number", located)


def _check_keys(located, allowed, context):
    for key in located.value:
        if key not in allowed:
            _err(f"unknown key {context}{key!r}", located.value[key])


@dataclass
class GridConfig:
    bz_n: int = 128
    w: int = 52
    kx_n: int = 402
    n_transverse: int = 512
    arc_grid_n: int = 256
    kx: float = 2.0 * math.pi / 3.0  # snapshot momentum for localization profiles
    n_states: int = 0  # 0 = all states


#: smallest valid value of the grid keys that have one
_GRID_MIN = {"bz_n": 1, "w": 2, "kx_n": 1, "n_transverse": 1, "arc_grid_n": 2, "n_states": 0}


@dataclass
class ToleranceConfig:
    gap_tol: float | None = None
    overlap_tol: float = 1e-4
    edge_mass: float = 0.6
    outer_frac: float = 0.1
    ipr_factor: float = 4.0
    cloud_tol: float = 1e-2
    nhse_fraction: float = 0.05

    def classifier(self) -> ClassifierThresholds:
        return ClassifierThresholds(
            edge_mass=self.edge_mass,
            outer_frac=self.outer_frac,
            ipr_factor=self.ipr_factor,
            cloud_tol=self.cloud_tol,
        )


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: tuple = ("csv", "json")
    svg: bool = True
    prefix: str = "run"
    weight_scale: str = "linear"  # or "log01" for profile exports


@dataclass
class RunConfig:
    command: str
    model: ModelConfig | None
    grid: GridConfig
    tolerance: ToleranceConfig
    output: OutputConfig
    preset: str | None = None
    threads: int = 1
    resolved: dict = field(default_factory=dict)


#: config keys that set a differently named model field
_KEY_FIELD = {"dmi_z_mode": "dmi_vectors"}

_MODEL_KEYS = {
    "variant",
    "j",
    "energy_scale",
    *_KEY_FIELD,
    *(name for names in VARIANT_FIELDS.values() for name in names),
}


def parse_model_block(located) -> ModelConfig:
    if not isinstance(located.value, dict):
        _err("model block must be a mapping", located)
    block = located.value
    _check_keys(located, _MODEL_KEYS, "model.")

    if "variant" not in block:
        _err("model.variant is required", located)
    vname = _as_str(block["variant"], "model.variant").lower()
    if vname not in _VARIANT_ALIASES:
        _err(f"model.variant: unknown variant {vname!r}", block["variant"])
    variant = _VARIANT_ALIASES[vname]

    for key in block:
        if key in ("variant", "j", "energy_scale"):
            continue
        if _KEY_FIELD.get(key, key) not in VARIANT_FIELDS[variant]:
            _err(f"field {key!r} not valid for variant {variant.value!r}", block[key])

    if "j" not in block:
        _err("model.j is required", located)
    jloc = block["j"]
    if not isinstance(jloc.value, list) or len(jloc.value) != 3:
        _err("model.j must be a list of three complex numbers", jloc)
    j = Coupling3(*(_as_complex(c, f"model.j[{i}]") for i, c in enumerate(jloc.value)))

    kwargs = {}
    if "k_coupling" in block:
        kwargs["k_coupling"] = _as_complex(block["k_coupling"], "model.k_coupling")
    if "gamma" in block:
        kwargs["gamma"] = _as_complex(block["gamma"], "model.gamma")
    if "d" in block:
        kwargs["d"] = _as_real(block["d"], "model.d")
    if "b_field" in block:
        bloc = block["b_field"]
        if not isinstance(bloc.value, list) or len(bloc.value) != 3:
            _err("model.b_field must be a real 3-vector", bloc)
        kwargs["b_field"] = tuple(
            _as_real(c, f"model.b_field[{i}]") for i, c in enumerate(bloc.value)
        )
    if "dmi_vectors" in block:
        dloc = block["dmi_vectors"]
        if not isinstance(dloc.value, list) or len(dloc.value) != 3:
            _err("model.dmi_vectors must hold three 2-vectors", dloc)
        vecs = []
        for i, vloc in enumerate(dloc.value):
            if not isinstance(vloc.value, list) or len(vloc.value) != 2:
                _err(f"model.dmi_vectors[{i}] must be a 2-vector", vloc)
            vecs.append(
                tuple(_as_real(c, f"model.dmi_vectors[{i}][{m}]") for m, c in enumerate(vloc.value))
            )
        kwargs["dmi_vectors"] = tuple(vecs)
    elif "dmi_z_mode" in block:
        mode = _as_str(block["dmi_z_mode"], "model.dmi_z_mode")
        if mode not in ("c3", "none"):
            _err("model.dmi_z_mode must be 'c3' or 'none'", block["dmi_z_mode"])
        kwargs["dmi_vectors"] = default_dmi_vectors(include_z=(mode == "c3"))
    if "energy_scale" in block:
        scale = _as_str(block["energy_scale"], "model.energy_scale")
        if scale not in ("raw", "half"):
            _err("model.energy_scale must be 'raw' or 'half'", block["energy_scale"])
        kwargs["energy_scale"] = scale

    try:
        return ModelConfig(variant=variant, j=j, **kwargs)
    except ConfigurationError as exc:
        _err(f"invalid model block: {exc}", located)


def _fill_dataclass(cls, located, context, casts):
    obj = cls()
    obj._provided = set()
    if located is None:
        return obj
    if not isinstance(located.value, dict):
        _err(f"{context} block must be a mapping", located)
    _check_keys(located, set(casts), f"{context}.")
    for key, loc in located.value.items():
        setattr(obj, key, casts[key](loc, f"{context}.{key}"))
        obj._provided.add(key)
    return obj


def _numeric_casts(cls):
    """Parsers for a block of numbers: integer where the default is an integer."""
    return {f.name: _as_int if type(f.default) is int else _as_real for f in fields(cls)}


def parse_config(text: str, preset: str | None = None) -> RunConfig:
    """Parse and validate a run configuration; raises ConfigurationError.

    ``preset``, if given, overrides the ``preset`` key of the text (the CLI's
    ``--preset``); a ``reproduce`` run needs one from either place.
    """
    root = _compose(text)
    if not isinstance(root.value, dict):
        _err("top level must be a mapping", root)
    allowed = {"command", "preset", "model", "grid", "tolerance", "output", "threads"}
    _check_keys(root, allowed, "")
    block = root.value

    if "command" not in block:
        _err("key 'command' is required", root)
    command = _as_str(block["command"], "command")
    if command not in COMMANDS:
        _err(f"unknown command {command!r}; expected one of {COMMANDS}", block["command"])

    # a key the command would ignore is an error, not an echo in the metadata
    if command == "reproduce" and "model" in block:
        _err("command 'reproduce' takes its model from the preset, not a model block", block["model"])
    if command != "reproduce" and "preset" in block:
        _err(f"command {command!r} takes no preset (only 'reproduce' does)", block["preset"])
    if command != "reproduce" and preset is not None:
        raise ConfigurationError(f"--preset applies to 'reproduce' only, not {command!r}")

    if "preset" in block:
        file_preset = _as_str(block["preset"], "preset")
        if preset is None:
            preset = file_preset

    model = None
    if "model" in block:
        model = parse_model_block(block["model"])
    elif command not in ("reproduce",):
        _err(f"command {command!r} needs a model block", root)
    if command == "reproduce" and preset is None:
        _err("command 'reproduce' needs a preset (a 'preset' key or --preset)", root)

    grid_casts = _numeric_casts(GridConfig) | {k: _at_least(v) for k, v in _GRID_MIN.items()}
    grid = _fill_dataclass(GridConfig, block.get("grid"), "grid", grid_casts)
    if command == "ep-find" and grid.bz_n < MIN_SCAN_GRID_N:
        msg = f"grid.bz_n must be >= {MIN_SCAN_GRID_N} for ep-find, got {grid.bz_n}"
        _err(msg, block["grid"].value["bz_n"])
    tol = _fill_dataclass(
        ToleranceConfig, block.get("tolerance"), "tolerance", _numeric_casts(ToleranceConfig)
    )
    out = _fill_dataclass(
        OutputConfig,
        block.get("output"),
        "output",
        {
            "directory": _as_str,
            "formats": lambda loc, name: _parse_formats(loc, name),
            "svg": lambda loc, name: _as_bool(loc, name),
            "prefix": _as_str,
            "weight_scale": _as_str,
        },
    )
    if out.weight_scale not in ("linear", "log01"):
        _err("output.weight_scale must be 'linear' or 'log01'", block.get("output"))

    threads = _at_least(1)(block["threads"], "threads") if "threads" in block else 1

    cfg = RunConfig(
        command=command,
        model=model,
        grid=grid,
        tolerance=tol,
        output=out,
        preset=preset,
        threads=threads,
    )
    cfg.resolved = resolved_dict(cfg)
    return cfg


def _as_bool(located, name):
    v = located.value
    if not isinstance(v, bool):
        _err(f"{name}: expected true/false", located)
    return v


def _parse_formats(located, name):
    v = located.value
    if not isinstance(v, list):
        _err(f"{name}: expected a list of formats", located)
    formats = tuple(_as_str(x, name) for x in v)
    for i, fmt in enumerate(formats):
        if fmt not in ("csv", "json", "ndjson"):
            _err(f"{name}: unknown format {fmt!r}", located)
        if fmt in formats[:i]:
            _err(f"{name}: format {fmt!r} listed twice", located)
    return formats


def _complex_out(z: complex):
    return [z.real, z.imag]


def model_dict(model: ModelConfig) -> dict:
    """Fully resolved model block (defaults included) for run metadata."""
    out = {
        "variant": model.variant.value,
        "j": [_complex_out(c) for c in model.j],
        "energy_scale": model.energy_scale,
    }
    if model.variant is Variant.K_MODEL:
        out["k_coupling"] = _complex_out(model.k_coupling)
    if model.variant is Variant.GAMMA_MODEL:
        out["gamma"] = _complex_out(model.gamma)
    if model.variant is Variant.MAG_MODEL:
        out["d"] = model.d
        out["b_field"] = list(model.b_field)
        out["dmi_vectors"] = [list(v) for v in model.resolved_dmi_vectors()]
    return out


def resolved_dict(cfg: RunConfig) -> dict:
    """Echo of the full configuration with every default filled in."""
    return {
        "command": cfg.command,
        "preset": cfg.preset,
        "model": model_dict(cfg.model) if cfg.model is not None else None,
        "grid": asdict(cfg.grid),
        "tolerance": asdict(cfg.tolerance),
        "output": asdict(cfg.output),
        "threads": cfg.threads,
    }
