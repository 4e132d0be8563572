"""Command pipelines: compute, tabulate, and export for each CLI entry point."""

from __future__ import annotations

import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import eigen, ep, ribbon
from .config import RunConfig, model_dict
from .errors import ConfigurationError
from .export import export_table, write_svg_scatter
from .models import (
    ModelConfig,
    bloch_matrix_grid,
    closed_form_spectrum,
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


def _export(cfg: RunConfig, prefix: str, columns, table, extra: dict, workers: int = 1) -> list[Path]:
    """Write ``table`` in the configured formats; its meta is the config echo plus ``extra``.

    The echo states the threads the run used: ``threads`` as given, else
    ``workers``, the count a sweep chose (1 for commands with no sweep).
    """
    config = cfg.resolved
    if config["threads"] is None:
        config["threads"] = workers
    meta = {"config": config, "package": "majorana-nh", "version": "0.1.0", **extra}
    return export_table(cfg.output.directory, prefix, columns, table, meta, cfg.output.formats)


def _energy(e) -> dict:
    """The ``re_E`` and ``im_E`` columns of an eigenvalue array."""
    return {"re_E": e.real, "im_E": e.imag}


def run_bloch_spectrum(cfg: RunConfig) -> list[Path]:
    """Eigenvalues over the ``ep-find`` zone grid: one batched build, one stacked solve.

    A Hermitian model is solved by :func:`eigen.eigh`, so its ``im_E`` is 0.
    Each +-theta pair of the grid (:func:`ep.phase_grid_pairs`) is solved
    once and certified on both matrices; the meta's ``grid_solves`` counts
    the routes.
    """
    ks = ep.k_from_bond_phase(ep.phase_grid(cfg.grid.bz_n)[1]).reshape(-1, 2)
    solve = eigen.eigh if cfg.model.hermitian else eigen.eig
    spectrum = solve(bloch_matrix_grid(cfg.model, ks), pairs=ep.phase_grid_pairs(cfg.grid.bz_n))
    log = eigen.RunLog()
    log.add_grid(len(ks), (spectrum.routes == "mirrored").sum(), (spectrum.routes == "dense_fallback").sum())
    spectra = spectrum.eigenvalues
    closed_ok = closed_form_spectrum(cfg.model, (0.0, 0.0)) is not None
    n = spectra.shape[-1]
    table = {"k_x": np.repeat(ks[:, 0], n), "k_y": np.repeat(ks[:, 1], n),
             "state_index": np.tile(np.arange(n), len(ks)), **_energy(spectra.ravel())}
    return _export(cfg, cfg.output.prefix + "_bloch", tuple(table), table,
                   {"closed_form_available": closed_ok, "grid_solves": log.grid_solves})


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
    log = eigen.RunLog()
    records.extend(
        ep.ep_scan(
            cfg.model,
            grid_n=cfg.grid.bz_n,
            gap_tol=cfg.tolerance.gap_tol,
            overlap_tol=cfg.tolerance.overlap_tol,
            confirmed_only=True,
            log=log,
        )
    )
    rows = [_ep_row(r) for r in records]
    rows.sort(key=lambda r: (r["method"], r["flavour"] is not None, r["flavour"] or 0, r["theta1"], r["theta2"]))
    return _export(cfg, cfg.output.prefix + "_eps", EP_COLUMNS, rows,
                   {"n_confirmed": sum(r["confirmed"] for r in rows), "ep_refinement": log.ep_refinement,
                    "grid_solves": log.grid_solves})


def run_arc_trace(cfg: RunConfig) -> list[Path]:
    log = eigen.RunLog()
    arcs = ep.fermi_arc_trace(cfg.model, grid_n=cfg.grid.arc_grid_n, log=log)
    rows = [
        {"arc_index": ai, "flavour": arc.flavour, "point_index": pi, "k_x": float(k[0]),
         "k_y": float(k[1]), "theta1": float(th[0]), "theta2": float(th[1])}
        for ai, arc in enumerate(arcs)
        for pi, (k, th) in enumerate(zip(arc.points, ep.bond_phase_from_k(arc.points)))
    ]
    files = _export(cfg, cfg.output.prefix + "_arcs", ARC_COLUMNS, rows,
                    {"n_arcs": len(arcs), "ep_refinement": log.ep_refinement, "grid_solves": log.grid_solves})
    if cfg.output.svg and rows:
        svg = Path(cfg.output.directory) / f"{cfg.output.prefix}_arcs.svg"
        groups = [(None, arc.points[:, 0], arc.points[:, 1]) for arc in arcs]
        write_svg_scatter(svg, groups, title="spectral arcs", x_label="k_x", y_label="k_y")
        files.append(svg)
    return files


def run_skin_check(cfg: RunConfig) -> list[Path]:
    """Skin-effect criterion for each Majorana species of a flavour-conserving model.

    :func:`config.parse_config` refuses models whose species mix.  One row per
    distinct species of :func:`species`: flavours 1-3 of the K model, and one
    row with no flavour for the parent model, whose three species coincide.
    """
    rows = [{"flavour": fl, "skin_any": ep.skin_criterion_any(j_eff),
             "max_asymmetry": float(ep.skin_asymmetry(j_eff).max())} for fl, j_eff in species(cfg.model)]
    return _export(cfg, cfg.output.prefix + "_skin", ("flavour", "skin_any", "max_asymmetry"), rows,
                   {"skin_any_model": any(r["skin_any"] for r in rows)})


def _sweep_rows(result: ribbon.SweepResult) -> dict:
    """Sweep table columns, one entry per (k_x, state), in the order of the records."""
    rec = result.records.ravel()
    kx = np.repeat(result.kx_grid, result.records.shape[1])
    return {"k_x": kx, "state_index": rec.state_index, **_energy(rec.eigenvalue),
            "mean_row": rec.mean_row, "ipr": rec.ipr, "class": rec.label}


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
    # one |E| bar per interval of the periodic spectrum at each k_x
    bounds = [cloud.bounds for cloud in result.pbc_reference]
    groups = [("pbc", np.repeat(result.kx_grid, [len(b) for b in bounds]), np.concatenate(bounds))]
    rec = result.records
    kx = np.broadcast_to(result.kx_grid[:, None], rec.shape)
    abs_e = np.abs(rec.eigenvalue)
    for label in np.unique(rec.label):
        mask = rec.label == label
        groups.append((label, kx[mask], abs_e[mask]))
    write_svg_scatter(path, groups, title="strip spectrum", x_label="k_x", y_label="|E|")


def _kx_grid(n: int) -> np.ndarray:
    """``n`` momenta in [-pi, pi): ``linspace(-pi, pi, n, endpoint=False)`` with its upper half mirrored.

    Its upper half is set to the exact negation of its lower half.  That
    moves values by at most an ulp and gives every k_x but -pi and 0 its
    exact partner -k_x, so :func:`ribbon.sweep` solves each pair once.
    """
    kxs = np.linspace(-math.pi, math.pi, n, endpoint=False)
    j = np.arange(1, (n + 1) // 2)  # 0 < j < n / 2
    kxs[n - j] = -kxs[j]
    return kxs


def _run_sweep(cfg: RunConfig, model: ModelConfig):
    """Strip sweep of ``model`` at ``grid.w`` over the ``grid.kx_n`` momenta of :func:`_kx_grid`, and its summary."""
    result = ribbon.sweep(
        model,
        cfg.grid.w,
        _kx_grid(cfg.grid.kx_n),
        n_transverse=cfg.grid.n_transverse,
        thresholds=cfg.tolerance.classifier(),
        threads=cfg.threads,
    )
    return result, _summary_dict(ribbon.nhse_summary(result, nhse_fraction=cfg.tolerance.nhse_fraction))


def _strip_meta(log: eigen.RunLog) -> dict:
    """The strip-solve provenance of a meta from an :class:`eigen.RunLog`.

    The worst residual and its k_x, the pinned BLAS threads and the solves per solver path.
    """
    return {"max_residual": log.max_residual, "max_residual_kx": log.max_residual_kx,
            "blas_threads": eigen.pinned_blas_threads(), "strip_solves": log.strip_solves}


def _sweep_meta(result: ribbon.SweepResult) -> dict:
    """:func:`_strip_meta` of a sweep, with the threads that solved its chunks and the chunks."""
    return {**_strip_meta(result.log), "workers": result.workers, "chunks": result.chunks}


def _export_sweep(cfg: RunConfig, model: ModelConfig, result: ribbon.SweepResult, summary: dict,
                  prefix: str, extra: dict) -> list[Path]:
    """Sweep table and meta in the configured formats, plus the SVG if enabled."""
    meta = {
        "model": model_dict(model),
        "w": cfg.grid.w,
        **_sweep_meta(result),
        "nhse_summary": summary,
        **extra,
    }
    table = _sweep_rows(result)
    files = _export(cfg, prefix, tuple(table), table, meta, result.workers)
    if cfg.output.svg:
        svg = Path(cfg.output.directory) / f"{prefix}.svg"
        _sweep_svg(svg, result)
        files.append(svg)
    return files


def _profile_table(cfg: RunConfig, model: ModelConfig, kxs, states, normalization, log) -> dict:
    """Weight table columns, one entry per (k_x, state, site) of ``ribbon.edge_mode_weights``."""
    parts = []
    for kx in kxs:
        idx, vals, profiles = ribbon.edge_mode_weights(
            model, cfg.grid.w, kx, states=states, normalization=normalization, log=log
        )
        n_states, n_sites = profiles.shape
        parts.append({"k_x": np.full(profiles.size, kx), "state_index": np.repeat(idx, n_sites),
                      **_energy(np.repeat(vals, n_sites)), "site": np.tile(np.arange(1, n_sites + 1), n_states),
                      "weight": profiles.ravel()})
    return {c: np.concatenate([part[c] for part in parts]) for c in parts[0]}


def run_ribbon_sweep(cfg: RunConfig) -> list[Path]:
    result, summary = _run_sweep(cfg, cfg.model)
    return _export_sweep(cfg, cfg.model, result, summary, cfg.output.prefix + "_sweep", {})


def run_localization(cfg: RunConfig) -> list[Path]:
    """Per-site weight profiles of selected states at one k_x."""
    log = eigen.RunLog()
    n_states = cfg.grid.n_states if cfg.grid.n_states > 0 else None
    table = _profile_table(cfg, cfg.model, [cfg.grid.kx], n_states, cfg.output.weight_scale, log)
    meta = {
        "model": model_dict(cfg.model),
        "k_x": cfg.grid.kx,
        "normalization": cfg.output.weight_scale,
        **_strip_meta(log),
    }
    del table["k_x"]  # one k_x, stated in the meta
    return _export(cfg, cfg.output.prefix + "_profiles", tuple(table), table, meta)


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
