"""Set-up probe: start, import modstab, parse the workload configs, say "ready".

``run.py`` times fresh probe processes from spawn to the "ready" line; the
median is the workload's ``setup_s``.

Usage: python3 perfbench/probe.py run|sweep CONFIG...
"""

import sys

import common


def main() -> None:
    modstab = common.import_modstab()
    command, paths = sys.argv[1], sys.argv[2:]
    parse = modstab.config.parse_sweep if command == "sweep" else modstab.config.parse_experiment
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            parse(fh.read())
    print("ready", flush=True)


if __name__ == "__main__":
    main()
