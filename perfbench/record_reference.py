"""Write reference.json: SHA-256 digests of each workload's reference artifacts.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only on a commit whose artifacts are the accepted behaviour; every
benchmark run compares its reference invocation against these digests.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import Invoker  # noqa: E402
from workloads import REFERENCE_FILE, WORKLOADS, digest  # noqa: E402


def main() -> int:
    work = Path(__file__).resolve().parent / ".work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    invoker = Invoker()
    digests = {}
    for name, wl in WORKLOADS.items():
        out = work / name
        ok, _, _ = invoker.run(wl.commands(wl.reference_inputs(), 1, out))
        if not ok:
            raise SystemExit(f"{name}: reference invocation failed")
        digests[name] = [digest(p) for p in wl.artifacts(out)]
    shutil.rmtree(work)
    REFERENCE_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
