"""The process entry of ``python -m qtomo`` and the ``qtomo`` console script.

run() freezes the import heap, so later collections do not scan it, runs the
command, and ends the process with os._exit once the atexit handlers have run
and stdout and stderr are flushed: the interpreter's teardown would only free
memory that the kernel takes back anyway.  Outputs and exit codes are those of
``cli.main``.  Importing this module does nothing; callers in a running
process use ``qtomo.cli.main``, which leaves the collector and the process alone.
"""

import atexit
import gc
import os
import sys


def run():
    """Run the command in sys.argv and end the process with its exit code; never returns.

    Every output is written and closed before main returns, so the teardown
    this skips holds nothing that must happen at exit.  An exception other
    than SystemExit propagates and exits as usual.
    """
    gc.disable()
    try:
        from .cli import main  # loads numpy
        gc.freeze()
    finally:
        gc.enable()
    try:
        main()
        code = 0
    except SystemExit as exit_:  # main exits with an int, or None for 0
        code = exit_.code or 0
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # the interpreter, too, exits 120 when its last flush fails
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
