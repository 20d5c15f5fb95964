"""The process in which hexphi runs during the benchmark.

One call, as the ``hexphi`` console script makes it (a fresh interpreter per op):

    python3 bench/worker.py [--trace SPANS --op N] -- verify --digits 500

A long-lived session, as a notebook or service built on the library runs it.
It prints ``ready`` once hexphi is imported, then reads one JSON argv per line
on stdin and answers each with one JSON line
``{"code", "out", "err", "seconds", "slowness"}``: ``seconds`` times
``hexphi.cli.main`` alone, and ``slowness`` is `calibrate.slowness`, measured
right after it in this process:

    python3 bench/worker.py --serve [--trace SPANS]

With ``--trace`` the spans of every hexphi call are written to SPANS at exit.
hexphi is imported from ``PYTHONPATH``; the harness points it at ``src``.
"""

import sys


def _serve(tracer) -> int:
    import io
    import json
    import time
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    from calibrate import slowness
    from hexphi import cli

    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()
    for index, line in enumerate(sys.stdin):
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a session outlives one failed call; report it and go on
                traceback.print_exc()
                code = -1
        seconds = time.perf_counter() - start
        reply = {"code": code, "out": out.getvalue(), "err": err.getvalue(), "seconds": seconds,
                 "slowness": slowness()}
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 0


def main() -> int:
    args = sys.argv[1:]
    argv = []
    if "--" in args:
        cut = args.index("--")
        args, argv = args[:cut], args[cut + 1:]
    serve, spans_path, op = False, None, 0
    options = iter(args)
    for option in options:
        if option == "--serve":
            serve = True
        elif option == "--trace":
            spans_path = next(options)
        elif option == "--op":
            op = int(next(options))
        else:
            sys.exit(f"worker: unknown option {option!r}")
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.op = op
        tracer.install()
    try:
        if serve:
            return _serve(tracer)
        from hexphi import cli

        return cli.main(argv)
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
