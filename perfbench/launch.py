"""Run the covlat command line in this process with the tracer installed.

    python3 perfbench/launch.py STEM ARGS...

Behaves as ``python -m covlat.cli ARGS`` (the caller puts covlat on
PYTHONPATH) and, on exit, writes the per-name aggregates to STEM.agg.json
and the spans to STEM.spans.json.
"""

import json
import sys

import tracer as tr


def main():
    stem, argv = sys.argv[1], sys.argv[2:]
    import covlat.cli

    tracer = tr.Tracer()
    tracer.install()
    try:
        return tracer.call("job", covlat.cli.main, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(stem + ".agg.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot_and_reset(), fh)
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": tracer.spans, "untraced_targets": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main())
