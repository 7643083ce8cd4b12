"""One cold start: a fresh interpreter, ``import repro``, the first verdict.

    python3 e2ebench/coldstart.py --engine python < bytecode.hex

prints one JSON line with ``import_s`` (the ``import repro`` time),
``first_call_s`` (the first ``api.analyze`` call) and the verdict.  The
parent times the whole start, from spawning the interpreter to reading
that line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )
    code = bytes.fromhex(sys.stdin.read().strip())

    began = time.perf_counter()
    from repro import api

    imported = time.perf_counter()
    result = api.analyze(api.AnalyzeRequest(bytecode=code, engine=args.engine))
    answered = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - began,
                "first_call_s": answered - imported,
                "kinds": sorted({warning.kind for warning in result.warnings}),
                "error": result.error,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
