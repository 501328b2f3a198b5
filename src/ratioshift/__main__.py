"""``python -m ratioshift``, and the console script's target.

``run`` imports the CLI inside an interrupt handler: the package's
``__init__`` loads no module, so an interrupt while any of them loads ends
as one after them does, in exit 130 with one line on stderr.
"""

import sys


def run() -> None:
    try:
        from .cli import entry
    except KeyboardInterrupt:
        print("ratioshift: interrupted", file=sys.stderr)
        sys.exit(130)
    entry()


if __name__ == "__main__":
    run()
