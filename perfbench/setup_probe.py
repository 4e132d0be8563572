"""Set-up time of the program in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <command> <config>

Times the import of ``majorana_nh.cli`` (which imports the whole package and
numpy, scipy and PyYAML), then argument parsing, config parsing and preset
lookup, i.e. everything before the first computation.  Prints one JSON line.
"""

import json
import sys
import time


def main():
    src, command, config = sys.argv[1:4]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from majorana_nh import cli, presets

    t1 = time.perf_counter()
    cfg = cli._load_config(cli._build_parser().parse_args([command, "--config", config]))
    if cfg.preset is not None:
        presets.get_preset(cfg.preset)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))


if __name__ == "__main__":
    main()
