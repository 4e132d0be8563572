"""Command pipelines: compute, tabulate, and export for each CLI entry point."""

from __future__ import annotations

import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import eigen, ep, ribbon
from .config import RunConfig, model_dict
from .errors import ConfigurationError
from .export import SPECTRUM_COLUMNS, export_table, write_svg_scatter
from .models import (
    ModelConfig,
    bloch_matrix_grid,
    closed_form_spectrum,
    effective_couplings,
    species,
)

EP_COLUMNS = (
    "method",
    "flavour",
    "k_x",
    "k_y",
    "theta1",
    "theta2",
    "gap",
    "overlap",
    "residual",
    "confirmed",
)

ARC_COLUMNS = ("arc_index", "flavour", "point_index", "k_x", "k_y", "theta1", "theta2")

WEIGHT_COLUMNS = ("state_index", "re_E", "im_E", "abs_E", "site", "weight")


def _metadata(cfg: RunConfig, extra: dict | None = None) -> dict:
    meta = {"config": cfg.resolved, "package": "majorana-nh", "version": "0.1.0"}
    if extra:
        meta.update(extra)
    return meta


def _energy(e) -> dict:
    """The ``re_E``, ``im_E`` and ``abs_E`` columns of one eigenvalue."""
    return {"re_E": e.real, "im_E": e.imag, "abs_E": abs(e)}


def run_bloch_spectrum(cfg: RunConfig) -> list[Path]:
    """Eigenvalues over the ``ep-find`` zone grid: one batched build, one stacked solve."""
    ks = ep.k_from_bond_phase(ep.phase_grid(cfg.grid.bz_n)[1]).reshape(-1, 2)
    spectra = eigen.eig(bloch_matrix_grid(cfg.model, ks)).eigenvalues
    closed_ok = closed_form_spectrum(cfg.model, (0.0, 0.0)) is not None
    rows = [
        {"k_x": float(k[0]), "k_y": float(k[1]), "state_index": i, **_energy(e)}
        for k, vals in zip(ks, spectra)
        for i, e in enumerate(vals)
    ]
    meta = _metadata(cfg, {"closed_form_available": closed_ok})
    return export_table(
        cfg.output.directory,
        cfg.output.prefix + "_bloch",
        SPECTRUM_COLUMNS[:6],
        rows,
        meta,
        cfg.output.formats,
    )


def _ep_row(rec: ep.EPRecord) -> dict:
    return {
        "method": rec.method,
        "flavour": rec.flavour,
        "k_x": rec.k[0],
        "k_y": rec.k[1],
        "theta1": rec.bond_phase[0],
        "theta2": rec.bond_phase[1],
        "gap": rec.gap,
        "overlap": rec.overlap,
        "residual": rec.residual,
        "confirmed": rec.confirmed,
    }


def run_ep_find(cfg: RunConfig) -> list[Path]:
    """Exceptional points: closed form where available plus a confirmed scan."""
    records = []
    if species(cfg.model) is not None:
        records.extend(ep.model_closed_form_eps(cfg.model))
    counters = ep.RefineCounters()
    records.extend(
        ep.ep_scan(
            cfg.model,
            grid_n=cfg.grid.bz_n,
            gap_tol=cfg.tolerance.gap_tol,
            overlap_tol=cfg.tolerance.overlap_tol,
            confirmed_only=True,
            counters=counters,
        )
    )
    rows = [_ep_row(r) for r in records]
    rows.sort(key=lambda r: (r["method"], r["flavour"] is not None, r["flavour"] or 0, r["theta1"], r["theta2"]))
    meta = _metadata(
        cfg,
        {"n_confirmed": sum(r["confirmed"] for r in rows), "ep_refinement": asdict(counters)},
    )
    return export_table(
        cfg.output.directory, cfg.output.prefix + "_eps", EP_COLUMNS, rows, meta, cfg.output.formats
    )


def run_arc_trace(cfg: RunConfig) -> list[Path]:
    counters = ep.RefineCounters()
    arcs = ep.fermi_arc_trace(cfg.model, grid_n=cfg.grid.arc_grid_n, counters=counters)
    rows = [
        {"arc_index": ai, "flavour": arc.flavour, "point_index": pi, "k_x": float(k[0]),
         "k_y": float(k[1]), "theta1": float(th[0]), "theta2": float(th[1])}
        for ai, arc in enumerate(arcs)
        for pi, (k, th) in enumerate(zip(arc.points, ep.bond_phase_from_k(arc.points)))
    ]
    meta = _metadata(cfg, {"n_arcs": len(arcs), "ep_refinement": asdict(counters)})
    files = export_table(
        cfg.output.directory, cfg.output.prefix + "_arcs", ARC_COLUMNS, rows, meta, cfg.output.formats
    )
    if cfg.output.svg and rows:
        svg = Path(cfg.output.directory) / f"{cfg.output.prefix}_arcs.svg"
        groups = [
            (None, [r["k_x"] for r in rows if r["arc_index"] == ai], [r["k_y"] for r in rows if r["arc_index"] == ai])
            for ai in range(len(arcs))
        ]
        write_svg_scatter(svg, groups, title="spectral arcs", x_label="k_x", y_label="k_y")
        files.append(svg)
    return files


def run_skin_check(cfg: RunConfig) -> list[Path]:
    """Skin-effect criterion for each Majorana species of the model.

    Only the flavour-diagonal coupling shifts a species' intra-row couplings
    (``k_coupling`` is 0 in every other variant), so each flavour is tested
    with its :func:`effective_couplings` triple.
    """
    rows = []
    for eta, j_eff in zip((1, 2, 3), effective_couplings(cfg.model.j, cfg.model.k_coupling)):
        rows.append(
            {
                "flavour": eta,
                "skin_any": ep.skin_criterion_any(j_eff),
                "max_asymmetry": float(ep.skin_asymmetry(j_eff).max()),
            }
        )
    meta = _metadata(cfg, {"skin_any_model": any(r["skin_any"] for r in rows)})
    return export_table(
        cfg.output.directory,
        cfg.output.prefix + "_skin",
        ("flavour", "skin_any", "max_asymmetry"),
        rows,
        meta,
        cfg.output.formats,
    )


def _sweep_rows(result: ribbon.SweepResult):
    rows = [
        {"k_x": float(kx), "state_index": r.state_index, **_energy(r.eigenvalue),
         "mean_row": r.mean_row, "ipr": r.ipr, "class": r.label}
        for kx, recs in zip(result.kx_grid, result.records)
        for r in recs
    ]
    rows.sort(key=lambda r: (r["k_x"], r["state_index"]))
    return rows


def _summary_dict(summary: ribbon.NHSESummary) -> dict:
    return {
        "nhse_present": summary.nhse_present,
        "bulk_localized_fraction": summary.bulk_localized_fraction,
        "nhse_fraction_threshold": summary.nhse_fraction_threshold,
        "flip_kx": summary.flip_kx,
        "max_edge_count": max((s.n_edge for s in summary.per_kx), default=0),
        "per_kx": [asdict(s) for s in summary.per_kx],
    }


def _sweep_svg(path, result: ribbon.SweepResult):
    groups = []
    if result.pbc_reference is not None:
        # one |E| bar per interval of the periodic spectrum at each k_x
        xs = [float(kx) for kx, cloud in zip(result.kx_grid, result.pbc_reference) for _ in cloud.bounds]
        groups.append(("pbc", xs, np.concatenate([cloud.bounds for cloud in result.pbc_reference])))
    by_class = {}
    for kx, recs in zip(result.kx_grid, result.records):
        for r in recs:
            by_class.setdefault(r.label, ([], []))
            by_class[r.label][0].append(float(kx))
            by_class[r.label][1].append(abs(r.eigenvalue))
    for label in sorted(by_class):
        xs, ys = by_class[label]
        groups.append((label, xs, ys))
    write_svg_scatter(path, groups, title="strip spectrum", x_label="k_x", y_label="|E|")


def _run_sweep(cfg: RunConfig, model: ModelConfig, w: int, kx_n: int, n_transverse: int):
    """Strip sweep over kx_n momenta in (-pi, pi] and its skin-effect summary."""
    kxs = np.linspace(-math.pi, math.pi, kx_n, endpoint=False)
    result = ribbon.sweep(
        model,
        w,
        kxs,
        n_transverse=n_transverse,
        thresholds=cfg.tolerance.classifier(),
        threads=cfg.threads,
    )
    return result, ribbon.nhse_summary(result, nhse_fraction=cfg.tolerance.nhse_fraction)


def _export_sweep(cfg: RunConfig, result: ribbon.SweepResult, prefix: str, meta: dict) -> list[Path]:
    """Sweep table in the configured formats, plus the SVG if enabled."""
    files = export_table(
        cfg.output.directory,
        prefix,
        SPECTRUM_COLUMNS[:1] + SPECTRUM_COLUMNS[2:],
        _sweep_rows(result),
        meta,
        cfg.output.formats,
    )
    if cfg.output.svg:
        svg = Path(cfg.output.directory) / f"{prefix}.svg"
        _sweep_svg(svg, result)
        files.append(svg)
    return files


def _profile_rows(idx, vals, profiles) -> list[dict]:
    """One row per (state, site) of the output of ``ribbon.edge_mode_weights``."""
    return [
        {"state_index": int(i), **_energy(e), "site": site + 1, "weight": float(profiles[m, site])}
        for m, (i, e) in enumerate(zip(idx, vals))
        for site in range(profiles.shape[1])
    ]


def run_ribbon_sweep(cfg: RunConfig) -> list[Path]:
    result, summary = _run_sweep(cfg, cfg.model, cfg.grid.w, cfg.grid.kx_n, cfg.grid.n_transverse)
    meta = _metadata(
        cfg,
        {
            "model": model_dict(cfg.model),
            "w": cfg.grid.w,
            "max_residual": result.max_residual,
            "nhse_summary": _summary_dict(summary),
        },
    )
    return _export_sweep(cfg, result, cfg.output.prefix + "_sweep", meta)


def run_localization(cfg: RunConfig) -> list[Path]:
    """Per-site weight profiles of selected states at one k_x."""
    n_states = cfg.grid.n_states if cfg.grid.n_states > 0 else None
    idx, vals, profiles = ribbon.edge_mode_weights(
        cfg.model,
        cfg.grid.w,
        cfg.grid.kx,
        states=n_states,
        normalization=cfg.output.weight_scale,
    )
    meta = _metadata(
        cfg,
        {"model": model_dict(cfg.model), "k_x": cfg.grid.kx, "normalization": cfg.output.weight_scale},
    )
    return export_table(
        cfg.output.directory,
        cfg.output.prefix + "_profiles",
        WEIGHT_COLUMNS,
        _profile_rows(idx, vals, profiles),
        meta,
        cfg.output.formats,
    )


def run_command(cfg: RunConfig) -> list[Path]:
    if cfg.command == "bloch-spectrum":
        return run_bloch_spectrum(cfg)
    if cfg.command == "ep-find":
        return run_ep_find(cfg)
    if cfg.command == "arc-trace":
        return run_arc_trace(cfg)
    if cfg.command == "skin-check":
        return run_skin_check(cfg)
    if cfg.command == "ribbon-sweep":
        return run_ribbon_sweep(cfg)
    if cfg.command == "localization":
        return run_localization(cfg)
    if cfg.command == "reproduce":
        from .presets import run_reproduce

        return run_reproduce(cfg)
    raise ConfigurationError(f"unknown command {cfg.command!r}")
