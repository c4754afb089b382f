#!/usr/bin/env python3
"""Validate the windowed-metrics exporters' output.

Usage: validate_metrics.py SERIES.jsonl [SNAPSHOT.prom ...]
       validate_metrics.py --cross-check SNAPSHOT SERIES.jsonl

JSONL files: every line must be a standalone JSON object with the fixed
record shape ({series, labels, window, start_step, end_step, value}),
windows must be non-empty and contiguous per label set, and every label
set must carry the same series names in the same order in every window.

Prometheus files: text exposition grammar only — HELP/TYPE comment pairs
preceding their samples, every sample parsing as `name{labels} value`
with a finite value, and no duplicate (name, labels) series.

A flight-recorder JSONL (first line carrying a "flight" key) is accepted
too: the header is validated for its reproducer line, the remaining
lines as ordinary records.

--cross-check validates SNAPSHOT as Prometheus text (whatever its file
name) and SERIES as JSONL, both taken from the same source with no
window closed in between (the daemon's `ctrl prom` and `ctrl jsonl`
after its streams finish), then checks one against the other: the two
cover the same label sets, every prom sample equals its label set's
newest JSONL window value for that series, every series of that window
has a sample, and regionsel_windows_total equals the label set's window
count (newest window index + 1; the number of JSONL windows when the
export retains them all).
"""
import json
import math
import re
import sys

RECORD_KEYS = {"series", "labels", "window", "start_step", "end_step", "value"}
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def validate_jsonl(path):
    # (labels-json -> list of (window, start, end, series)) in file order.
    per_labels = {}
    n = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not JSON: {e}")
            if lineno == 1 and "flight" in rec:
                if not rec.get("cli"):
                    fail(f"{path}: flight header has no reproducer cli line")
                if not isinstance(rec.get("windows"), int) or rec["windows"] < 1:
                    fail(f"{path}: flight header windows={rec.get('windows')!r}")
                continue
            if set(rec) != RECORD_KEYS:
                fail(f"{path}:{lineno}: keys {sorted(rec)} != {sorted(RECORD_KEYS)}")
            if not isinstance(rec["labels"], dict) or not rec["labels"]:
                fail(f"{path}:{lineno}: labels must be a non-empty object")
            if not isinstance(rec["value"], (int, float)) or (
                isinstance(rec["value"], float) and not math.isfinite(rec["value"])
            ):
                fail(f"{path}:{lineno}: non-finite value {rec['value']!r}")
            if rec["end_step"] <= rec["start_step"]:
                fail(f"{path}:{lineno}: empty window {rec['start_step']}..{rec['end_step']}")
            key = json.dumps(rec["labels"], sort_keys=True)
            per_labels.setdefault(key, []).append(
                (rec["window"], rec["start_step"], rec["end_step"], rec["series"])
            )
            n += 1
    if n == 0:
        fail(f"{path}: no records")
    for key, rows in per_labels.items():
        # Group by window index; windows must be sequential and contiguous,
        # and every window must carry the same series list.
        windows = {}
        for w, start, end, series in rows:
            windows.setdefault(w, {"start": start, "end": end, "series": []})
            if (windows[w]["start"], windows[w]["end"]) != (start, end):
                fail(f"{path}: {key} window {w} has inconsistent bounds")
            windows[w]["series"].append(series)
        indices = sorted(windows)
        if indices != list(range(indices[0], indices[0] + len(indices))):
            fail(f"{path}: {key} window indices not sequential: {indices}")
        first = windows[indices[0]]["series"]
        if len(set(first)) != len(first):
            fail(f"{path}: {key} duplicate series within a window: {first}")
        for w in indices:
            if windows[w]["series"] != first:
                fail(f"{path}: {key} window {w} series list differs")
            if w > indices[0] and windows[w]["start"] != windows[w - 1]["end"]:
                fail(
                    f"{path}: {key} window {w} starts at {windows[w]['start']}, "
                    f"previous ended at {windows[w - 1]['end']}"
                )
    print(f"{path}: {n} records, {len(per_labels)} label sets ok")


def read_jsonl_windows(path):
    """{labels tuple: {window index: {series: value}}}, flight header skipped."""
    sets = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if "flight" in rec:
                continue
            key = tuple(rec["labels"].items())
            sets.setdefault(key, {}).setdefault(rec["window"], {})[rec["series"]] = rec["value"]
    return sets


def prom_unescape(v):
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), v)


def read_prometheus_samples(path):
    """{labels tuple: {series: value text}}, series without the regionsel_ prefix."""
    sets = {}
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            name, labels, value = SAMPLE_RE.match(line).groups()
            if not name.startswith("regionsel_"):
                fail(f"{path}: sample {name} lacks the regionsel_ prefix")
            key = tuple((k, prom_unescape(v)) for k, v in LABEL_RE.findall(labels or ""))
            sets.setdefault(key, {})[name[len("regionsel_"):]] = value
    return sets


def cross_check(prom_path, jsonl_path):
    validate_prometheus(prom_path)
    validate_jsonl(jsonl_path)
    prom = read_prometheus_samples(prom_path)
    series = read_jsonl_windows(jsonl_path)
    if set(prom) != set(series):
        fail(
            f"label sets differ: prom only {sorted(set(prom) - set(series))}, "
            f"jsonl only {sorted(set(series) - set(prom))}"
        )
    checked = 0
    for key, windows in series.items():
        newest = max(windows)
        samples = dict(prom[key])
        total = samples.pop("windows_total", None)
        if total is None:
            fail(f"{key}: no regionsel_windows_total sample")
        if int(total) != newest + 1:
            fail(f"{key}: windows_total {total}, newest jsonl window is {newest}")
        if min(windows) == 0 and int(total) != len(windows):
            fail(f"{key}: windows_total {total}, jsonl holds {len(windows)} windows")
        expected = windows[newest]
        if set(samples) != set(expected):
            fail(
                f"{key}: prom series {sorted(samples)} != newest jsonl window's "
                f"{sorted(expected)}"
            )
        for name, text in samples.items():
            if float(text) != float(expected[name]):
                fail(f"{key}: {name} is {text} in prom, {expected[name]!r} in jsonl window {newest}")
            checked += 1
    print(f"{prom_path} vs {jsonl_path}: {checked} samples over {len(series)} label sets agree")


def validate_prometheus(path):
    typed, helped, seen = set(), set(), set()
    samples = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split(" ", 3)
                if len(parts) < 4 or parts[1] not in ("HELP", "TYPE"):
                    fail(f"{path}:{lineno}: malformed comment: {line}")
                name = parts[2]
                book = typed if parts[1] == "TYPE" else helped
                if name in book:
                    fail(f"{path}:{lineno}: duplicate {parts[1]} for {name}")
                book.add(name)
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: malformed sample: {line}")
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            try:
                if not math.isfinite(float(value)):
                    raise ValueError
            except ValueError:
                fail(f"{path}:{lineno}: non-finite value: {line}")
            if labels:
                body = labels[1:-1].rstrip(",")
                if body and LABEL_RE.sub("", body).strip(",") != "":
                    fail(f"{path}:{lineno}: malformed labels: {labels}")
            if name not in typed or name not in helped:
                fail(f"{path}:{lineno}: sample before HELP/TYPE: {name}")
            if (name, labels) in seen:
                fail(f"{path}:{lineno}: duplicate series: {name}{labels}")
            seen.add((name, labels))
            samples += 1
    if samples == 0:
        fail(f"{path}: no samples")
    print(f"{path}: {samples} samples, {len(typed)} series names ok")


def main(argv):
    if len(argv) == 4 and argv[1] == "--cross-check":
        cross_check(argv[2], argv[3])
        return
    if len(argv) < 2 or argv[1].startswith("--"):
        fail(
            "usage: validate_metrics.py FILE.jsonl [FILE.prom ...]\n"
            "       validate_metrics.py --cross-check SNAPSHOT SERIES.jsonl"
        )
    for path in argv[1:]:
        if path.endswith(".prom"):
            validate_prometheus(path)
        else:
            validate_jsonl(path)


if __name__ == "__main__":
    main(sys.argv)
