"""Module entry point: python -m homsensor (also the `homsensor` script)."""

import gc
import sys


def run() -> int:
    """Run one CLI command as a whole process: import (with the collector
    off: it would find almost nothing to free), freeze, main().

    Everything imported by now (numpy, the package, their modules,
    classes and functions) lives until the process exits.  gc.freeze()
    moves it to the permanent generation, so neither the collections
    during the command nor the one at interpreter shutdown walk it
    again; only the command's own objects are scanned.

    Only this entry point freezes, because its process exits after one
    command.  A caller of cli.main that goes on running (tests, the
    in-process benchmark) keeps its heap collectable: a frozen object
    that later becomes part of a garbage cycle is never freed.
    """
    gc.disable()
    from .cli import main
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
