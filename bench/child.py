"""One benchmark round in a fresh process: set up, warm up, measure, report.

``run.py`` spawns this file once per round, so every round pays its own
interpreter start and imports and no state survives between rounds::

    python3 bench/child.py --workload wan_sr --seed 0 --scale 1.0 --traced 0

Protocol on standard output: a line ``READY {...}`` once imports and the
1%-size warm-up are done (the parent timestamps it to get ``setup_s`` on
a single clock; the object carries the set-up interval's yardstick
readings), then one JSON object with the round's measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from yardstick import Yardstick

#: The warm-up is the same workload at this share of its timed size,
#: whatever ``--scale`` the measured run has.
WARMUP_SCALE = 0.01


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Set-up is what is being timed, so the simulator is imported here,
    # under the yardstick, and not at the top of the file.
    with Yardstick() as setup:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from measure import measure

        measure(args.workload, args.seed, WARMUP_SCALE, traced=False, yard=setup)
    ready = {"spent": setup.spent, "speed": setup.speed}
    print("READY", json.dumps(ready), flush=True)

    with Yardstick() as yard:
        result = measure(
            args.workload, args.seed, args.scale,
            traced=bool(args.traced), check=bool(args.check), yard=yard,
        )
    # ru_maxrss is KiB on Linux.
    result["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
