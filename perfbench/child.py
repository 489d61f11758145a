"""One step of the benchmark in a fresh interpreter; `run.py` starts it.

    child.py setup SOURCE           import bvcalc.cli, load SOURCE (a catalog
                                    name or a file), print the monotonic clock
    child.py profile OUT ARGS...    run the bvcalc CLI entry point on ARGS under
                                    cProfile; write the profile to OUT and the
                                    program's layer map to OUT.json

`time.monotonic` reads a system-wide clock, so the parent can subtract
the moment it started this process from the value printed here.
"""

from __future__ import annotations

import sys
import time


def setup(source: str) -> int:
    import bvcalc.cli  # noqa: F401  the CLI's imports are part of set-up
    from bvcalc.algfile import load
    from bvcalc.catalog import resolve

    load(resolve(source))
    print(repr(time.monotonic()))
    return 0


def profile(out: str, argv: list[str]) -> int:
    import cProfile
    import json

    from bvcalc import cli

    import layers

    prof = cProfile.Profile()
    prof.enable()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        prof.disable()
        prof.dump_stats(out)
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump(layers.describe_program(), fh)
    sys.stdout.flush()
    return code if isinstance(code, int) else int(code is not None)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        raise SystemExit(setup(rest[0]))
    if mode == "profile":
        raise SystemExit(profile(rest[0], rest[1:]))
    raise SystemExit(f"unknown mode {mode!r}")
