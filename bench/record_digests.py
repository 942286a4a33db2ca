"""Write digests.json: the SHA-256 of the certificate the CLI prints for
every invocation whose input does not depend on the seed.

Usage, from the root of a checkout: python3 bench/record_digests.py

Where the seed picks among a few variants (the cut of a torus, the
order of a spin list), every variant gets its own entry; the script
walks seeds until no new variant has turned up for a long stretch.
A certificate is recorded only if it meets the invocation's known
answers, so a wrong answer is never pinned as the expected one.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import BENCH, SRC, Child, child_env
from workloads import WORKLOADS, build_plan, unmet

QUIET_SEEDS = 100


def main() -> int:
    sys.path.insert(0, str(SRC))
    digests: dict[str, str] = {}
    env = child_env()
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        work = Path(tmp)
        for workload in WORKLOADS:
            seed, quiet = 0, 0
            while quiet < QUIET_SEEDS:
                plan = build_plan(workload, seed, work)
                fresh = [i for i in plan.invocations
                         if i.digest and i.label not in digests]
                quiet = 0 if fresh else quiet + 1
                for item in fresh:
                    out = work / "out.json"
                    rec = Child([sys.executable, "-m", "invsub.cli"]
                                + item.argv(), env, out, 600.0).run()
                    raw = out.read_bytes()
                    fields = json.loads(raw) | {"exit": rec["exit"]}
                    missed = unmet(item.expect, fields)
                    if missed:
                        print(f"NOT RECORDED {item.label}: {missed}")
                        continue
                    digests[item.label] = hashlib.sha256(raw).hexdigest()
                    print(f"{item.label} {rec['wall_s']:.2f}s")
                seed += 1
    path = BENCH / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
