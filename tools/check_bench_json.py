#!/usr/bin/env python3
"""Validate a BENCH_*.json file against a checked-in schema.

Usage: check_bench_json.py <bench.json> <schema.json>

The schema format is deliberately tiny (no jsonschema dependency):

  {
    "required": ["bench", "runs", ...],      # top-level keys that must exist
    "manifest_required": ["git_sha", ...],   # keys of the "manifest" object
    "runs_required": ["threads", ...],       # keys of every "runs" element
    "types": {"bench": "str", "runs": "list", "smoke": "bool", ...}
  }

Type names map to Python types: str, bool, int, float (int accepted),
list, dict. Exits nonzero with a message on the first violation.
Numbers must be finite: 1e999 and the NaN/Infinity tokens are rejected
(strict parsers refuse them; the writers spell a non-finite value null).
"""
import json
import math
import sys

TYPES = {
    "str": str,
    "bool": bool,
    "int": int,
    "float": (int, float),
    "list": list,
    "dict": dict,
}


def fail(msg):
    sys.exit(f"check_bench_json: {msg}")


def finite_float(text):
    value = float(text)  # also the NaN and Infinity tokens
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <bench.json> <schema.json>")
    bench_path, schema_path = sys.argv[1], sys.argv[2]

    try:
        with open(bench_path) as f:
            doc = json.load(
                f, parse_float=finite_float, parse_constant=finite_float
            )
    except (OSError, ValueError) as e:
        fail(f"{bench_path}: {e}")
    with open(schema_path) as f:
        schema = json.load(f)

    if not isinstance(doc, dict):
        fail(f"{bench_path}: top level is not a JSON object")

    for key in schema.get("required", []):
        if key not in doc:
            fail(f"{bench_path}: missing required key '{key}'")

    for key, type_name in schema.get("types", {}).items():
        if key in doc and not isinstance(doc[key], TYPES[type_name]):
            fail(
                f"{bench_path}: key '{key}' has type "
                f"{type(doc[key]).__name__}, expected {type_name}"
            )

    runs_required = schema.get("runs_required", [])
    if runs_required:
        runs = doc.get("runs")
        if not isinstance(runs, list):
            fail(f"{bench_path}: missing or non-array 'runs'")
        for i, run in enumerate(runs):
            if not isinstance(run, dict):
                fail(f"{bench_path}: runs[{i}] is not a JSON object")
            for key in runs_required:
                if key not in run:
                    fail(f"{bench_path}: runs[{i}] missing key '{key}'")

    manifest_required = schema.get("manifest_required", [])
    if manifest_required:
        manifest = doc.get("manifest")
        if not isinstance(manifest, dict):
            fail(f"{bench_path}: missing or non-object 'manifest'")
        for key in manifest_required:
            if key not in manifest:
                fail(f"{bench_path}: manifest missing key '{key}'")

    print(f"{bench_path}: OK against {schema_path}")


if __name__ == "__main__":
    main()
