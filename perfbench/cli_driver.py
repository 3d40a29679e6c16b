"""Traced stand-in for the `momgas` console script.

    python perfbench/cli_driver.py SPANS_PATH <subcommand> [flags]

Times `import momgas`, installs the span wrappers, runs
`momgas.cli.main(argv)` exactly as the console script would, writes the
spans to SPANS_PATH and exits with main's return code.  Used only by the
traced run of the `cli` workload.
"""

import json
import sys
from time import perf_counter


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import momgas.cli
    import_s = perf_counter() - start
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    code = momgas.cli.main(argv)
    tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans,
                   "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
