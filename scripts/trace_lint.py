#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON file emitted by the obs exporters.

Usage: trace_lint.py <trace.json> [<trace.json> ...]

Checks the invariants a trace viewer (chrome://tracing, Perfetto) relies on:
the document shape, the required keys per event phase, monotone-sane
timestamps, and that every complete event lands on a named-or-numeric track.
A trace exported from a flight ring carries the ring's top-level
total_recorded and capacity; it fails if the ring overwrote events before
the export (total_recorded > capacity).
Exits non-zero on the first malformed file.
"""

import json
import sys

REQUIRED_X_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")
REQUIRED_M_KEYS = ("name", "ph", "pid")
KNOWN_PHASES = {"X", "M", "B", "E", "i", "C"}


def fail(path, message):
    print(f"trace_lint: {path}: {message}", file=sys.stderr)
    sys.exit(1)


def lint(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"not readable JSON: {e}")

    if not isinstance(doc, dict):
        fail(path, "top level must be an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(path, 'missing "traceEvents" array')
    if doc.get("displayTimeUnit") not in (None, "ms", "ns"):
        fail(path, f'bad displayTimeUnit {doc.get("displayTimeUnit")!r}')

    if "total_recorded" in doc or "capacity" in doc:
        total = doc.get("total_recorded")
        capacity = doc.get("capacity")
        if not isinstance(total, int) or not isinstance(capacity, int):
            fail(path, "total_recorded and capacity must both be integers")
        if total > capacity:
            fail(path, f"the flight ring dropped {total - capacity} of "
                       f"{total} events")

    n_complete = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(path, f"event #{i} is not an object")
        ph = event.get("ph")
        if ph not in KNOWN_PHASES:
            fail(path, f"event #{i} has unknown phase {ph!r}")
        required = REQUIRED_X_KEYS if ph == "X" else REQUIRED_M_KEYS
        for key in required:
            if key not in event:
                fail(path, f'event #{i} (ph={ph}) missing "{key}"')
        if ph == "X":
            n_complete += 1
            if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
                fail(path, f"event #{i} has bad ts {event['ts']!r}")
            if not isinstance(event["dur"], (int, float)) or event["dur"] < 0:
                fail(path, f"event #{i} has bad dur {event['dur']!r}")
            if not isinstance(event["pid"], int) or not isinstance(
                event["tid"], int
            ):
                fail(path, f"event #{i} has non-integer pid/tid")
            if not event["name"]:
                fail(path, f"event #{i} has an empty name")
        elif ph == "M":
            if event["name"] not in ("process_name", "thread_name"):
                fail(path, f"event #{i} has unknown metadata {event['name']!r}")
            if "name" not in event.get("args", {}):
                fail(path, f"metadata event #{i} missing args.name")

    print(f"trace_lint: {path}: OK ({n_complete} spans, "
          f"{len(events) - n_complete} metadata events)")


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        lint(path)


if __name__ == "__main__":
    main()
