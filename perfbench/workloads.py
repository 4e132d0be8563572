"""The four workloads: the program calls of one pass, and the checks on each.

A pass is a fixed list of operations (one CLI command, or one parameter set
of the skin scan).  Every operation is checked as soon as it returns; a
problem marks it failed.  Each part of a pass returns timed samples
``(metric, label, amount, seconds)``: one per CLI command, one per chunk of
``SCAN_CHUNK`` scan sets.  Besides its main part, each workload runs small
fixed companion parts, so that every end-to-end metric is measured on every
workload; the README lists them.
"""

import cmath
import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import checks
import physics

E3 = cmath.exp(1j * math.pi / 3)
E6 = cmath.exp(1j * math.pi / 6)

# the benchmark's own statement of the models behind the presets it runs;
# the checks use these, the program uses its presets or the YAML made here
FIG2B = {"variant": "k_model", "j": (2, 1, 2.5 * E3), "k": 0.4, "scale": 0.5}
FIG3B = {"variant": "gamma_model", "j": (2, 1, 2.5 * E3), "gamma": 0.4, "scale": 0.5}
FIG6A = {"variant": "mag_model", "j": (1, 1, 1), "d": 0.5, "b": (0.0, 0.0, 0.7), "scale": 0.5}
FIG6C = {"variant": "mag_model", "j": (E3, E6, 1), "d": 0.5, "b": (0.0, 0.0, 0.7), "scale": 0.5}

PRESETS = (
    # preset id, model, +-k_x symmetry checked, Hermitian
    ("fig2b-like", FIG2B, True, False),
    ("fig3b", FIG3B, True, False),
    ("fig6a", FIG6A, True, True),
    # fig6c: eigenvalue condition numbers reach 1e15, so E(k) = -E(-k) fails
    # in the program's output; left out of the checks (see CHANGES.md)
    ("fig6c", FIG6C, False, False),
)
PRESET_W = 52
PRESET_KX = 4
SWEEP_KX = 8
SCAN_W = 20
SCAN_KX = np.linspace(-np.pi, np.pi, 4, endpoint=False)
SCAN_TRANSVERSE = 128
SCAN_RHO_FLOOR = 1.35
SCAN_CHUNK = 8  # sets per timed sample
GAMMA_BZ = 48
GAMMA_ARC = 64
SMALL_BZ = 32
SMALL_ARC = 128
SMALL_STRIP_W = 12


def _yaml_complex(z):
    z = complex(z)
    return f"[{z.real!r}, {z.imag!r}]"


def model_yaml(params):
    lines = ["model:", f"  variant: {params['variant']}"]
    lines.append("  j: [" + ", ".join(_yaml_complex(c) for c in params["j"]) + "]")
    if params["variant"] == "k_model":
        lines.append(f"  k_coupling: {_yaml_complex(params['k'])}")
    elif params["variant"] == "gamma_model":
        lines.append(f"  gamma: {_yaml_complex(params['gamma'])}")
    else:
        lines.append(f"  d: {params['d']!r}")
        lines.append("  b_field: [" + ", ".join(repr(float(b)) for b in params["b"]) + "]")
    lines.append(f"  energy_scale: {'half' if params['scale'] == 0.5 else 'raw'}")
    return "\n".join(lines) + "\n"


def config_text(command, out_dir, prefix, params=None, preset=None, grid=None, svg=True):
    text = f"command: {command}\n"
    if preset:
        # the preset goes in the file: --preset is ignored once --config is given
        text += f"preset: {preset}\n"
    if params:
        text += model_yaml(params)
    if grid:
        text += "grid:\n" + "".join(f"  {k}: {v}\n" for k, v in grid.items())
    text += f"output:\n  directory: {out_dir}\n  prefix: {prefix}\n  formats: [csv, json]\n  svg: {'true' if svg else 'false'}\n"
    return text


_CAL = np.random.default_rng(12345)
_CAL_SMALL = _CAL.normal(size=(128, 6, 6)) + 1j * _CAL.normal(size=(128, 6, 6))
_CAL_MEDIUM = _CAL.normal(size=(96, 96)) + 1j * _CAL.normal(size=(96, 96))


# mean calibration sample on the reference machine (2-vCPU sandbox, OpenBLAS
# 0.3.31, one BLAS thread); times are reported at this speed
CALIBRATION_REF_S = 0.020


def calibration_sample():
    """Seconds for a fixed numpy computation of the program's kind (small and medium eig)."""
    t0 = time.perf_counter()
    for m in _CAL_SMALL:
        np.linalg.eig(m)
    np.linalg.eig(_CAL_MEDIUM)
    return time.perf_counter() - t0


class Pass:
    """State of one run: program modules, directories, and the operation log."""

    def __init__(self, modules, work_dir, seed):
        self.mod = modules
        self.work = Path(work_dir)
        self.out = self.work / "out"
        self.configs = self.work / "configs"
        self.configs.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.scan_sets = 0
        self.scan_agree = 0
        self.calibration = []  # local calibration (seconds) of every timed operation

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def write_config(self, name, text):
        path = self.configs / f"{name}.yaml"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def timed(self, fn):
        """(result, seconds, factor) of ``fn()``; seconds * factor is the time at the reference speed.

        The factor is ``CALIBRATION_REF_S`` over the mean of two calibration
        samples taken just before and just after the call.
        """
        before = calibration_sample()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        local = 0.5 * (before + calibration_sample())
        self.calibration.append(local)
        return result, seconds, CALIBRATION_REF_S / local

    def cli(self, command, config, threads=None):
        """Run one CLI command in-process; (exit code, seconds at the reference speed)."""
        argv = [command, "--config", config]
        if threads is not None:
            argv += ["--threads", str(threads)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    return self.mod.cli.main(argv)
                except Exception as exc:  # a crash fails this operation, not the run
                    return f"an exception, {exc!r}"

        rc, seconds, factor = self.timed(call)
        return rc, seconds * factor

    def checked(self, label, rc, check):
        if rc != 0:
            self.record(label, [f"ended with {rc}"])
            return
        try:
            problems = check()
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        self.record(label, problems)


# --------------------------------------------------------------------------
# parts
# --------------------------------------------------------------------------

class PresetSweeps:
    """`reproduce` on four w=52 strip presets, CSV, JSON and SVG on."""

    def __init__(self, p: Pass, kx_n=PRESET_KX):
        self.kx_grid = np.linspace(-np.pi, np.pi, kx_n, endpoint=False)
        self.configs = {
            pid: p.write_config(
                f"reproduce_{pid}",
                config_text("reproduce", p.out, "fig", preset=pid, grid={"kx_n": kx_n}),
            )
            for pid, *_ in PRESETS
        }

    def first_config(self):
        return "reproduce", self.configs["fig2b-like"]

    def run(self, p: Pass, threads=None):
        samples = []
        for pid, params, symmetric, hermitian in PRESETS:
            rc, dt = p.cli("reproduce", self.configs[pid], threads)
            samples.append(("sweep_kx_per_s", f"reproduce {pid}", len(self.kx_grid), dt))
            p.checked(f"reproduce {pid}", rc, lambda: self.check(p, pid, params, symmetric, hermitian))
        return samples

    def check(self, p, pid, params, symmetric, hermitian):
        kx, e, labels = checks.load_strip(p.out / f"fig_{pid}.csv")
        problems = checks.check_strip(kx, e, labels, params, PRESET_W, self.kx_grid, symmetric, hermitian)
        report = json.loads((p.out / f"fig_{pid}_report.json").read_text(encoding="utf-8"))
        verdict = report["qualitative_checks"]
        if pid == "fig2b-like":
            problems += checks.check_skin_verdict(verdict["nhse_present"], checks.expected_skin(params), pid)
        elif pid == "fig6a":
            problems += checks.check_skin_verdict(verdict["nhse_present"], False, pid)
        elif pid == "fig6c":
            problems += checks.check_skin_verdict(verdict["nhse_present"], True, pid)
            spacing = 2.0 * np.pi / len(self.kx_grid)
            problems += checks.check_flips(verdict["flip_kx"], (0.0, np.pi), spacing, pid)
        return problems


class RibbonSweep:
    """`ribbon-sweep` of the fig3b couplings."""

    def __init__(self, p: Pass, w, kx_n, threads, name):
        self.w, self.threads = w, threads
        self.kx_grid = np.linspace(-np.pi, np.pi, kx_n, endpoint=False)
        self.config = p.write_config(
            name, config_text("ribbon-sweep", p.out, name, FIG3B, grid={"w": w, "kx_n": kx_n})
        )
        self.name = name

    def first_config(self):
        return "ribbon-sweep", self.config

    def run(self, p: Pass, threads=None):
        rc, dt = p.cli("ribbon-sweep", self.config, threads or self.threads)
        p.checked(f"ribbon-sweep w={self.w}", rc, lambda: self.check(p))
        return [("sweep_kx_per_s", self.name, len(self.kx_grid), dt)]

    def check(self, p):
        kx, e, labels = checks.load_strip(p.out / f"{self.name}_sweep.csv")
        return checks.check_strip(kx, e, labels, FIG3B, self.w, self.kx_grid, symmetric=True)


class BlochCommands:
    """`bloch-spectrum`, `ep-find` and `arc-trace` on one model (+ K-model ep-find)."""

    def __init__(self, p: Pass, params, bz_n, arc_n, name, extra_k_ep=None, repeat=1):
        grid = {"bz_n": bz_n, "arc_grid_n": arc_n}
        self.repeat = repeat
        self.params, self.bz_n, self.arc_n, self.name = params, bz_n, arc_n, name
        self.cfg = {
            cmd: p.write_config(f"{name}_{cmd}", config_text(cmd, p.out, name, params, grid=grid))
            for cmd in ("bloch-spectrum", "ep-find", "arc-trace")
        }
        self.extra = None
        if extra_k_ep is not None:
            self.extra = p.write_config(
                f"{name}_k_ep-find",
                config_text("ep-find", p.out, f"{name}_k", extra_k_ep, grid={"bz_n": bz_n}),
            )
            self.extra_params = extra_k_ep

    def first_config(self):
        return "bloch-spectrum", self.cfg["bloch-spectrum"]

    def _check_eps(self, path, params):
        records = checks.load_eps(path)
        if params["variant"] == "k_model":
            return checks.check_eps_flavour_diagonal(records, params, self.bz_n), records
        return checks.check_eps_coupled(records, params, self.bz_n), records

    def run(self, p: Pass, threads=None):
        out = []
        for _ in range(self.repeat):
            out += self.run_once(p)
        return out

    def run_once(self, p: Pass):
        out = []
        rc, dt = p.cli("bloch-spectrum", self.cfg["bloch-spectrum"])
        out.append(("bloch_spectrum_s", self.name, 1, dt))
        p.checked(f"bloch-spectrum {self.name}", rc, lambda: checks.check_bloch_spectrum(
            p.out / f"{self.name}_bloch.csv", self.params, self.bz_n))

        rc, dt = p.cli("ep-find", self.cfg["ep-find"])
        out.append(("ep_find_s", self.name, 1, dt))
        eps = []

        def check_eps():
            problems, recs = self._check_eps(p.out / f"{self.name}_eps.csv", self.params)
            eps.extend(r for r in recs if r["confirmed"])
            return problems

        p.checked(f"ep-find {self.name}", rc, check_eps)
        if self.extra is not None:
            rc, dt = p.cli("ep-find", self.extra)
            out.append(("ep_find_s", f"{self.name} K model", 1, dt))
            p.checked(f"ep-find {self.name} K model", rc,
                      lambda: self._check_eps(p.out / f"{self.name}_k_eps.csv", self.extra_params)[0])

        rc, dt = p.cli("arc-trace", self.cfg["arc-trace"])
        out.append(("arc_trace_s", self.name, 1, dt))
        p.checked(f"arc-trace {self.name}", rc,
                  lambda: checks.check_arcs(p.out / f"{self.name}_arcs.csv", eps, self.arc_n))
        return out


def draw_scan_set(rng, i):
    """Criterion-8-style flavour-diagonal couplings, category i % 4.

    0: real couplings; 1: complex jz only; 2: all phases random; 3: complex
    K.  Sets whose worst species decay ratio stays under the strip's
    resolution floor are redrawn, so a predicted skin effect is resolvable
    at w = 20.
    """
    kind = i % 4
    while True:
        mods = rng.uniform(0.5, 2.2, 3)
        kmod = rng.uniform(0.0, 0.8)
        if kind == 0:
            return {"variant": "k_model", "j": tuple(mods), "k": kmod, "scale": 1.0}
        if kind == 1:
            j = (mods[0], mods[1], mods[2] * np.exp(1j * rng.uniform(-np.pi, np.pi)))
            return {"variant": "k_model", "j": j, "k": kmod, "scale": 1.0}
        if kind == 2:
            params = {"variant": "k_model", "j": tuple(mods * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))),
                      "k": kmod, "scale": 1.0}
        else:
            kc = rng.uniform(0.25, 0.8) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            params = {"variant": "k_model", "j": tuple(mods), "k": kc, "scale": 1.0}
        rho = max(physics.decay_ratio(j, SCAN_KX) for j in physics.species_couplings(params))
        if rho >= SCAN_RHO_FLOOR:
            return params


class SkinScan:
    """Strip sweep and skin summary of seeded random flavour-diagonal models.

    The program receives only the ModelConfig of each set; the verdicts are
    saved through the program's table export.
    """

    def __init__(self, p: Pass, n_sets, feeds_sweep_metric):
        self.n_sets = n_sets
        self.feeds_sweep_metric = feeds_sweep_metric

    def run(self, p: Pass, threads=None):
        sets = [draw_scan_set(p.rng, i) for i in range(self.n_sets)]
        models, ribbon, export = p.mod.models, p.mod.ribbon, p.mod.export
        configs = [models.ModelConfig(models.Variant.K_MODEL, models.Coupling3(*s["j"]), k_coupling=s["k"])
                   for s in sets]
        rows, results, samples = [], [], []

        def chunk(models):
            for model in models:
                try:
                    result = ribbon.sweep(model, SCAN_W, SCAN_KX, n_transverse=SCAN_TRANSVERSE,
                                          threads=threads or 1)
                    summary = ribbon.nhse_summary(result)
                except Exception as exc:  # a crash fails this set, not the run
                    results.append(exc)
                    rows.append({"nhse_present": None, "bulk_localized_fraction": None})
                    continue
                results.append(result)
                rows.append({"nhse_present": summary.nhse_present,
                             "bulk_localized_fraction": summary.bulk_localized_fraction})

        for start in range(0, self.n_sets, SCAN_CHUNK):
            _, seconds, factor = p.timed(lambda: chunk(configs[start:start + SCAN_CHUNK]))
            dt = seconds * factor
            samples.append(("param_sets_per_s", "scan chunk", SCAN_CHUNK, dt))
            if self.feeds_sweep_metric:
                samples.append(("sweep_kx_per_s", "scan chunk", SCAN_CHUNK * len(SCAN_KX), dt))
        export.export_table(p.out, "scan", ("set", "nhse_present", "bulk_localized_fraction"),
                            [dict(r, set=i) for i, r in enumerate(rows)], {"sets": len(rows)}, ("csv",))
        for params, result, row in zip(sets, results, rows):
            p.record("skin-scan set", self.check(p, params, result, row))
        return samples

    def check(self, p, params, result, row):
        if isinstance(result, Exception):
            return [f"raised {result!r}"]
        e = np.asarray([[r.eigenvalue for r in recs] for recs in result.records])
        labels = np.asarray([[r.label for r in recs] for recs in result.records])
        problems = []
        if e.shape != (len(SCAN_KX), 6 * SCAN_W) or not np.all(np.isfinite(e)):
            return [f"strip table of shape {e.shape} or non-finite"]
        if set(labels.ravel().tolist()) - set(checks.CLASSES):
            problems.append("labels outside the five classes")
        problems += checks.power_sums(e, physics.strip_trace_sq(params, SCAN_W, SCAN_KX), "scan strip")
        # criterion 8: skin effect iff some species has |jx e^{ik}+jy| != |jx e^{-ik}+jy|;
        # disagreement is tolerated only at threshold-marginal sets
        theory = checks.expected_skin(params)
        p.scan_sets += 1
        if row["nhse_present"] == theory:
            p.scan_agree += 1
        else:
            rho = max(physics.decay_ratio(j, SCAN_KX) for j in physics.species_couplings(params))
            frac = row["bulk_localized_fraction"]
            if not (rho < 1.5 or 0.01 <= frac <= 0.15):
                problems.append(f"non-marginal disagreement: theory={theory} frac={frac:.4f} rho={rho:.3f}")
        return problems


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

# passes a run makes at least; bloch_ep repeats its commands inside one pass
MIN_PASSES = {"preset_sweeps": 2, "skin_scan": 2, "bloch_ep": 1, "sweep_threads": 2}


def build(name, p: Pass):
    """Parts of one pass, and the part whose strip sweeps the thread-speedup probe reruns."""
    # twice per pass: these short commands need four samples a run to be steady
    small_bloch = BlochCommands(p, FIG2B, SMALL_BZ, SMALL_ARC, "kmodel", repeat=2)
    if name == "preset_sweeps":
        main = PresetSweeps(p)
        return [main, SkinScan(p, 16, False), small_bloch], main
    if name == "skin_scan":
        main = SkinScan(p, 64, True)
        return [main, small_bloch], main
    if name == "bloch_ep":
        strip = RibbonSweep(p, SMALL_STRIP_W, 8, 1, "strip")
        # every command twice in one pass: the long Gamma commands span the
        # host's speed swings, and a second whole pass would not fit the budget
        main = BlochCommands(p, FIG3B, GAMMA_BZ, GAMMA_ARC, "gamma", extra_k_ep=FIG2B, repeat=2)
        return [main, strip, SkinScan(p, 16, False)], strip
    if name == "sweep_threads":
        main = RibbonSweep(p, PRESET_W, SWEEP_KX, 2, "threads")
        return [main, SkinScan(p, 16, False), small_bloch], main
    raise ValueError(f"unknown workload {name!r}")


def first_config(parts):
    """(command, config) whose set-up the set-up probe measures."""
    for part in parts:
        if hasattr(part, "first_config"):
            return part.first_config()
    raise ValueError("workload has no CLI command")
