"""Regenerate the committed reference data under bench/reference/.

    PYTHONPATH=src python3 bench/make_reference.py [oracle-tables|fixed-points|session ...]

The files record the library's answers at the commit they were made on:
level >= 2 multiplicity tables, the fixed-point query pool with diagram
counts and digests, and the CLI session's exit codes and stdout.  Regenerate
only on a commit whose answers are trusted, and commit the result with the
change that needs it.
"""

from __future__ import annotations

import json
import os
import sys

import fixed_points
import oracle_tables
import session
from common import REFERENCE_DIR

MODULES = {m.NAME: m for m in (oracle_tables, fixed_points, session)}


def main(names) -> int:
    for name in names or list(MODULES):
        module = MODULES[name]
        data = module.make_reference()
        path = os.path.join(REFERENCE_DIR, module.REFERENCE)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{path}: {len(data)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
