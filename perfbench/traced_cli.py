"""Run the shiftrules CLI with spans recorded around its modules' public functions.

Usage: python -X importtime perfbench/traced_cli.py OUT.npz OP_ID CLI-ARGS...

Writes the spans and the import timing to OUT.npz when the command ends,
whether it exits normally, through sys.exit, or with an exception.
"""

from time import perf_counter

T_START = perf_counter()

import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> None:
    out, op = sys.argv[1], int(sys.argv[2])
    sys.argv = ["shiftrules"] + sys.argv[3:]
    t0 = perf_counter()
    import shiftrules.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        shiftrules.cli.main()  # the wrapped main: install() replaced it
    finally:
        tracer.dump(out, {"t_start": T_START, "import_s": import_s})


if __name__ == "__main__":
    main()
