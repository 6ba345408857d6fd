#!/usr/bin/env python3
"""Asserts that a Chrome trace-event file (--trace-out) recorded spans.

Usage: check_trace_spans.py TRACE.json SPAN [SPAN ...]

Prints how many spans of each requested name the trace holds and exits
non-zero when the file is not a trace or any requested span is missing, so
a run that silently traced nothing (an empty {"traceEvents": []}) fails.
"""
import collections
import json
import sys


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    path, wanted = argv[1], argv[2:]
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    # A span is one "B" (begin) or "X" (complete) event; its "E" is not counted.
    counts = collections.Counter(
        e.get("name") for e in events if e.get("ph") in ("B", "X"))
    for name in wanted:
        print(f"{path}: {name} x{counts[name]}")
    missing = [name for name in wanted if counts[name] == 0]
    if missing:
        sys.exit(f"{path}: no spans named {', '.join(missing)} "
                 f"({len(events)} events in total)")


if __name__ == "__main__":
    main(sys.argv)
