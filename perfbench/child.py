"""Steps the benchmark runs in their own processes.

    python3 perfbench/child.py potential|oracle WORKLOAD SEED WORK_DIR TINY OUT_JSON

``potential`` is a timed step, like the CLI commands.  ``oracle`` is the
untimed brute-force check; it runs apart so that its memory does not
count towards the peak RSS of later children, which inherit the parent's.
"""

import json
import sys
from pathlib import Path

import workloads


def main(argv):
    step, name, seed, work, tiny, out = argv
    plan = workloads.make_plan(name, int(seed), Path(work), tiny=tiny == "1")
    if step == "potential":
        result = {"bits_per_component": workloads.potential_log_loss(plan)}
    elif step == "oracle":
        checks, abs_err_bits = workloads.oracle_checks(plan)
        result = {"checks": checks, "abs_err_bits": abs_err_bits}
    else:
        raise SystemExit(f"unknown step {step!r}")
    Path(out).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
