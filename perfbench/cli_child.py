"""Timing child for traced cli-cold runs: a fresh interpreter that times
``import defectkit.cli`` and then ``cli.main([...])``, writes the stage times
to a JSON file and exits with the pipeline's exit code.

Usage: python cli_child.py RESULT_JSON PIPELINE --config CFG --out DIR
"""
import time

FIRST_LINE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main():
    result_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import defectkit.cli as cli

    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as err:  # argparse usage errors
        code = err.code
    t2 = time.perf_counter()
    with open(result_path, "w") as fh:
        json.dump({"first_line": FIRST_LINE, "import_s": t1 - t0, "main_s": t2 - t1,
                   "rc": code,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
