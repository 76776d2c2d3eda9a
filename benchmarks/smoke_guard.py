"""Keep ``--smoke`` runs from overwriting committed full-mode results.

Each root benchmark writes its results to a committed ``BENCH_*.json``
by default.  A ``--smoke`` run measures tiny inputs, so its numbers must
never replace a full run's: aimed at a file that holds full-mode
results, it exits 2 before doing any work and writes nothing.
"""

import json
import os
import sys


def _is_full_mode(path):
    """True when ``path`` holds a results file written by a full run."""
    if not os.path.exists(path):
        return False
    try:
        with open(path) as fh:
            return json.load(fh).get("mode") == "full"
    except (OSError, ValueError, AttributeError):
        return False


def refuses_smoke_overwrite(args):
    """True, after saying why on stderr, when a ``--smoke`` run
    (``args.smoke``) would overwrite full-mode ``args.output``."""
    if args.smoke and _is_full_mode(args.output):
        print(f"refusing to overwrite full-mode results in {args.output}; "
              "pass --output elsewhere for a smoke run", file=sys.stderr)
        return True
    return False
