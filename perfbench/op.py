"""Run one `bhlab` CLI invocation the way the `bhlab` console script does,
and record when the interpreter and `import bhlab` were ready.

    PERFBENCH_T0=<parent monotonic clock at spawn> PERFBENCH_RECORD=<path> \
        python3 perfbench/op.py <bhlab argv...>

With PERFBENCH_TRACE=<op id> set, the public functions of the library are
wrapped after the setup timestamp is taken (see tracer.py), and the spans,
counters and values are written to the record when the op ends.
"""

import os
import sys
import time

import bhlab
import bhlab.cli

ready = time.monotonic()


def _run(argv):
    try:
        return bhlab.cli.main(argv)
    except SystemExit as exc:   # argparse and the CLI's own usage exits
        return exc.code


def main(argv):
    t0 = float(os.environ["PERFBENCH_T0"])
    record = {"setup_s": ready - t0}
    tracer = None
    op_id = os.environ.get("PERFBENCH_TRACE")
    if op_id:
        import tracer as tracing
        tracer = tracing.Tracer(op_id, t0)
        tracer.install(bhlab)
    start = time.monotonic()
    try:
        code = _run(argv)
    finally:
        record["main_s"] = time.monotonic() - start
        if tracer is not None:
            record.update(tracer.dump())
        import json
        with open(os.environ["PERFBENCH_RECORD"], "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
