"""Run the morphcert CLI in a child process, optionally traced.

    PYTHONPATH=src python3 perfbench/cli_child.py certify --source s2 -N 10000000

With PERFBENCH_TRACE_OUT set, the morphcert layers are traced and the spans
are written as JSON to that path when the command ends. Without it, the child
imports nothing beyond what the CLI itself imports.
"""

import os
import sys


def main() -> int:
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    from morphcert import cli
    if not out:
        return cli.main(sys.argv[1:])

    import json

    from morphcert import certify, numtheory, spectral, words
    from spans import Tracer

    tracer = Tracer({"numtheory": numtheory, "words": words,
                     "spectral": spectral, "certify": certify})
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.trace.to_json(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
