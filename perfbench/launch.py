"""Run one ringcav CLI command in this process and record its timing marks.

    python3 launch.py TIMING_JSON TRACE -- CLI_ARGS...

Writes to TIMING_JSON the ``time.perf_counter`` values (the system-wide
monotonic clock, so the parent can subtract its spawn time) at which
``ringcav.cli`` finished importing and at which the command returned. With
TRACE=1 it also installs the span wrappers of ``spans.py`` before the command
runs and writes the spans. Exits with the command's exit code.
"""
import json
import sys
import time


def main() -> int:
    timing_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: launch.py TIMING_JSON TRACE -- CLI_ARGS...")
    import ringcav.cli

    record = {"ready": time.perf_counter(), "module": ringcav.cli.__file__}
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    sys.argv = ["ringcav", *sys.argv[4:]]
    code = 0
    try:
        ringcav.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        record["done"] = time.perf_counter()
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(timing_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
