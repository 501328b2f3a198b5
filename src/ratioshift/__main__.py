"""``python -m ratioshift``, and the console script's target.

``run`` is the console script: it calls ``cli.main``. Besides the exit
codes ``main`` returns, it owns two, each with one line on stderr instead
of a traceback: 2 on ``cli._OutputError``, which ``cli._write`` raises
when stdout cannot be written (a closed pipe, a full disk), and 130 on an
interrupt. It imports the CLI inside its
interrupt handler: the package's ``__init__`` loads no module, so an
interrupt while any of them loads ends as one after them does.
"""

import os
import sys


def run() -> None:
    try:
        from .cli import _OutputError, main
        try:
            code = main()
        except SystemExit as exc:  # argparse: --help, --version, usage errors
            code = exc.code
        except _OutputError:
            # Python flushes stdout again at exit, which would fail again;
            # point it at devnull first, as the signal module's note on
            # SIGPIPE shows.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print("ratioshift: error: cannot write output", file=sys.stderr)
            code = 2
    except KeyboardInterrupt:
        print("ratioshift: interrupted", file=sys.stderr)
        code = 130
    sys.exit(code)


if __name__ == "__main__":
    run()
