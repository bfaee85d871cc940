"""Set-up time of one workload in a fresh interpreter.

Times the import of ``fermigauss.cli`` plus the first, smallest call of each
of the workload's commands, and prints it as JSON. Exits 1 if a set-up call
raises or is refused. Run by ``run.py``:

    python3 benchmark/setup_probe.py <workload> <report dir>
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

from workloads import SETUP_SEED, WORKLOADS


def main() -> int:
    workload, out_dir = WORKLOADS[sys.argv[1]], Path(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    from fermigauss import cli

    for k, argv in enumerate(workload.setup):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run([*argv, "--seed", str(SETUP_SEED), "--out", str(out_dir / f"setup-{k}.json")])
        if code == 2:
            print(f"set-up call {' '.join(argv)} exited 2", file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
