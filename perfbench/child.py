"""Fresh-interpreter measurements, one child process per sample.

    python3 perfbench/child.py setup <config.json>
    python3 perfbench/child.py rss <config.json> <out-dir>

``setup`` prints the seconds taken to import uavsim and build and
validate the config.  ``rss`` does the same, then one full run into
``out-dir``, and prints the peak resident set of this process in KiB.
That is ``VmHWM`` from ``/proc/self/status``: ``ru_maxrss`` would also
count the parent's resident set, because ``exec`` carries the peak of
the address space it replaces into the new program's rusage.
"""

import sys
from pathlib import Path
from time import perf_counter

import workloads


def main(argv: list[str]) -> int:
    mode, config_path = argv[:2]
    start = perf_counter()
    experiment = workloads.import_experiment()
    if mode == "setup":
        experiment.load_config(config_path)
        print(perf_counter() - start)
    else:
        workloads.run(experiment, Path(config_path), Path(argv[2]))
        with open("/proc/self/status") as status:
            print(next(line.split()[1] for line in status
                       if line.startswith("VmHWM:")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
