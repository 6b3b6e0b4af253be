"""One untraced run of the crowdflow CLI, timing only the command itself.

    python3 bench/plain.py RESULT_JSON -- <crowdflow arguments>

Imports ``crowdflow.cli`` first, then times ``crowdflow.cli.main``: interpreter
start and the import are set-up, which the benchmark measures on its own.
Writes ``{"rc": ..., "main_s": ...}`` to RESULT_JSON.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    result_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    import crowdflow.cli

    t0 = time.perf_counter()
    rc = crowdflow.cli.main(cli_args)
    main_s = time.perf_counter() - t0
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "main_s": main_s}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
