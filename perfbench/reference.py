"""Frozen reference results and the correctness gate.

``reference/results.json`` holds, per workload and job, what the job
must return; ``make_reference.py`` writes it.  Tolerances, per result:

* scenario jobs (``corpus``, ``long_horizon``): the check list and every
  verdict must match exactly on any seed.  A record value must lie within
  ``1e-7 * |ref| + max(record tolerance, 1e-12)`` of the value at the
  shipped seeds, except for records marked seed-dependent (they draw from
  the scenario's random generator), whose value is only required to be
  finite.
* ``fine_pieces`` jobs: each returned number within ``rel * |ref| + abs``,
  with ``rel``/``abs`` stored beside it in the reference file.

``moved_artifact_values`` compares the numbers in the written CSV, JSON
and ``.dat`` files with the reference artifact bytes.
"""

import json
import lzma
import math
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "reference", "results.json")
ARTIFACTS = os.path.join(HERE, "reference", "corpus_artifacts.json.xz")

SCENARIO_REL = 1e-7
SCENARIO_ABS = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def load_results():
    with open(RESULTS, encoding="utf-8") as fh:
        return json.load(fh)


def load_artifacts():
    with lzma.open(ARTIFACTS, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, ref, rel, abs_):
    if ref is None or value is None:
        return ref is None and value is None
    if not math.isfinite(value):
        return value == ref
    return abs(value - ref) <= rel * abs(ref) + abs_


def check_scenario(summary, ref):
    """Problems found in one scenario job's records (empty when it passes)."""
    got = summary["records"]
    want = ref["records"]
    if [r[0] for r in got] != [r["check"] for r in want]:
        return ["check list differs from the reference"]
    problems = []
    for (name, status, value), r in zip(got, want):
        if status != r["status"]:
            problems.append(f"{name}: verdict {status}, reference {r['status']}")
        elif r["seed_dependent"]:
            if value is not None and not math.isfinite(value):
                problems.append(f"{name}: value {value} is not finite")
        elif not _close(value, r["value"], SCENARIO_REL,
                        max(r["tolerance"] or 0.0, SCENARIO_ABS)):
            problems.append(f"{name}: value {value!r}, reference {r['value']!r}")
    return problems


def check_values(values, ref):
    """Problems found in one fine_pieces job's numbers."""
    want = ref["values"]
    if len(values) != len(want):
        return [f"{len(values)} values, reference has {len(want)}"]
    return [f"value {i}: {v!r}, reference {w!r}"
            for i, (v, w) in enumerate(zip(values, want))
            if not _close(v, w, ref["rel"], ref["abs"])]


def check_job(workload, job, summary, results):
    ref = results[workload].get(job)
    if ref is None:
        return [f"no reference for job {job!r}"]
    if workload == "fine_pieces":
        return check_values(summary, ref)
    return check_scenario(summary, ref)


def tokens(text):
    return _NUMBER.findall(text)


def moved_artifact_values(out_dir, artifacts):
    """Numbers in the written artifacts that differ from the reference,
    skipping positions that depend on the seed; a missing or extra file
    counts all of its numbers."""
    files = artifacts["files"]
    skip = artifacts["seed_dependent"]
    written = sorted(os.listdir(out_dir))
    moved = 0
    for name in sorted(set(files) | set(written)):
        want = tokens(files[name]) if name in files else []
        if name in written:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                got = tokens(fh.read())
        else:
            got = []
        if len(got) != len(want):
            moved += max(len(got), len(want))
            continue
        ignore = set(skip.get(name, ()))
        moved += sum(1 for i, (a, b) in enumerate(zip(got, want))
                     if a != b and i not in ignore)
    return moved
