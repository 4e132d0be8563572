"""Digest the outputs of a fixed corpus of small CLI runs, one line per file.

Usage::

    python tools/output_digests.py [--src DIR] > digests.txt

Runs every command on small grids in process, with BLAS at one thread, for
the pure Yao-Lee model, the K model (Hermitian and not), the Gamma model
and the field+DMI model, plus ``reproduce`` of fig2a-like, fig2b-like, fig3b
and fig6a at a few k_x; tables in csv, json and ndjson.  ``--src`` (default:
this checkout's ``src``) is the source tree whose package is run, so one copy
of this script digests two checkouts and "bytes unchanged" is one ``diff``.

Data files are listed first: the sha256 of each CSV, NDJSON, SVG and
``_report.json``, and of the ``data`` of each table JSON.  The metas follow
on their own: the sha256 of each ``_meta.json`` with its ``max_residual``
entries taken out, and those entries' values, so a meta that differs only
in the last bits of a residual shows as such.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

E3 = "{mod: 2.5, phase_over_pi: 0.3333333333333333}"

MODELS = {
    "pure_yl": "variant: pure_yl\n  j: [[1, 0], [1, 0], {mod: 1, phase_over_pi: 0.3333333333333333}]",
    "k_herm": "variant: k_model\n  j: [2, 1, 2.5]\n  k_coupling: 0.4",
    "k_nonherm": f"variant: k_model\n  j: [2, 1, {E3}]\n  k_coupling: 0.4\n  energy_scale: half",
    "gamma": f"variant: gamma_model\n  j: [2, 1, {E3}]\n  gamma: 0.4\n  energy_scale: half",
    "mag": "variant: mag_model\n  j: [1, 1, {mod: 1, phase_over_pi: 0.3333333333333333}]\n"
           "  d: 0.5\n  b_field: [0.0, 0.0, 0.7]\n  energy_scale: half",
}

GRID = "grid:\n  w: 8\n  kx_n: 8\n  n_transverse: 64\n  bz_n: 32\n  arc_grid_n: 64\n  kx: 0.7\n  n_states: 6\n"

COMMANDS = ("bloch-spectrum", "ep-find", "arc-trace", "skin-check", "ribbon-sweep", "localization")

PRESETS = ("fig2a-like", "fig2b-like", "fig3b", "fig6a")


def corpus():
    """(run name, command, config text without its output block, extra output keys)."""
    for model, block in MODELS.items():
        for command in COMMANDS:
            if command == "skin-check" and model in ("gamma", "mag"):
                continue  # skin-check refuses the models that mix the species
            yield f"{command}_{model}", command, f"command: {command}\nmodel:\n  {block}\n{GRID}", ""
    yield "localization_log01", "localization", (
        f"command: localization\nmodel:\n  {MODELS['k_nonherm']}\n{GRID}"
    ), "  weight_scale: log01\n"
    for preset in PRESETS:
        yield f"reproduce_{preset}", "reproduce", f"command: reproduce\npreset: {preset}\ngrid:\n  kx_n: 6\n", ""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pop_residuals(doc, path=""):
    """Remove every ``max_residual`` entry of a JSON document; return ``{key path: value}``."""
    found = {}
    if isinstance(doc, dict):
        for key in list(doc):
            if key == "max_residual":
                found[path + key] = doc.pop(key)
            else:
                found |= _pop_residuals(doc[key], f"{path}{key}.")
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            found |= _pop_residuals(item, f"{path}{i}.")
    return found


def digest(out: Path):
    """(data lines, meta lines) of every file in the relative directory ``out``."""
    data, metas = [], []
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        name = path.as_posix()
        raw = path.read_bytes()
        if name.endswith("_meta.json"):
            doc = json.loads(raw)
            residuals = _pop_residuals(doc)
            text = " ".join(f"{k}={v!r}" for k, v in sorted(residuals.items()))
            metas.append(f"{_sha(json.dumps(doc, sort_keys=True).encode())}  {name}  {text}".rstrip())
        elif name.endswith(".json") and not name.endswith("_report.json"):
            data.append(f"{_sha(json.dumps(json.loads(raw)['data']).encode())}  {name} (data)")
        else:
            data.append(f"{_sha(raw)}  {name}")
    return data, metas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree holding the majorana_nh package to run")
    args = parser.parse_args(argv)
    # BLAS at one thread, set before the package imports numpy
    os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    sys.path.insert(0, str(Path(args.src).resolve()))
    from majorana_nh.cli import main as cli_main

    data, metas = [], []
    # relative output directories, so the config echo in each meta is the same in every checkout
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, command, text, output in corpus():
                cfg = Path(f"{name}.yaml")
                cfg.write_text(text + f"output:\n  directory: {name}\n  prefix: {name}\n"
                               "  formats: [csv, json, ndjson]\n" + output)
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli_main([command, "--config", str(cfg)])
                if code != 0:
                    data.append(f"exit {code}  {name}: {err.getvalue().strip()}")
                    continue
                d, m = digest(Path(name))
                data += d
                metas += m
        finally:
            os.chdir(cwd)
    print("# data files")
    print("\n".join(data))
    print("# metas (max_residual taken out and listed)")
    print("\n".join(metas))
    return 0


if __name__ == "__main__":
    sys.exit(main())
