"""The process entry of ``python -m qtomo`` and the ``qtomo`` console script.

run() freezes the import heap, so later collections do not scan it, and
freezes the whole heap once the command is done, so the exit skips its
collection; outputs and exit codes are those of ``cli.main``.  Importing this
module does nothing; callers in a running process use ``qtomo.cli.main``,
which leaves the collector alone.
"""

import gc


def run():
    """Run the command in sys.argv; any error exits through SystemExit, as cli.main does.

    Every output is written and closed before main returns, and the interpreter still
    flushes stdout and stderr and runs atexit handlers, so frozen objects, which are never
    finalized, hold nothing that must happen at exit.
    """
    gc.disable()
    try:
        from .cli import main  # loads numpy
        gc.freeze()
    finally:
        gc.enable()
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
