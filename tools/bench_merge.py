#!/usr/bin/env python3
"""Merge bench_runner JSONs (seed and current) into BENCH_PR1.json.

Usage: bench_merge.py seed.json[,seed2.json...] current.json[,cur2.json...] [out.json]

Each side accepts a comma-separated list of runner outputs; repeated runs
are combined row-wise by minimum time (best-of-N defeats scheduler noise).
Rows are matched on (suite, config, side, k).  For decompose rows the seed
reference is its "cold" time (the seed has no warm mode distinct from
cold); speedups are reported for both the current cold and warm modes.
For refine rows the seed reference is its "sweep" engine, or its
"worklist" row when the seed binary has no sweep engine.  For quality
suites (E13) the reference is the "default" sweep-mode row — the seed's
better-of-two rule run on the identical instance — taken from the current
side when the seed binary predates the suite, so "default" rows always
merge to max_boundary_vs_seed = 0 and "window"/"orb" rows
report their quality delta against it.
"""
import json
import sys


def row_key(row):
    return (row["suite"], row["config"], row["side"], row["k"], row["mode"])


def ref_key(row):
    return (row["suite"], row["config"], row["side"], row["k"])


def load_min(paths):
    merged = {}
    label = None
    for path in paths.split(","):
        with open(path) as f:
            doc = json.load(f)
        label = label or doc.get("label")
        for row in doc["rows"]:
            k = row_key(row)
            if k not in merged or row["ms"] < merged[k]["ms"]:
                merged[k] = row
    return label, [merged[k] for k in merged]


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 1
    seed_label, seed_rows = load_min(sys.argv[1])
    cur_label, cur_rows = load_min(sys.argv[2])
    out_path = sys.argv[3] if len(sys.argv) > 3 else "BENCH_PR1.json"

    seed_ref = {}
    for row in seed_rows:
        if row["mode"] in ("cold", "sweep", "default"):
            seed_ref[ref_key(row)] = row
    for row in seed_rows:
        if row["mode"] == "worklist" and ref_key(row) not in seed_ref:
            seed_ref[ref_key(row)] = row
    # Quality suites reference their own "default" row when the seed binary
    # predates the suite (same instance, seed prefix rule, current binary).
    for row in cur_rows:
        if row["mode"] == "default" and ref_key(row) not in seed_ref:
            seed_ref[ref_key(row)] = row

    merged = []
    for row in cur_rows:
        ref = seed_ref.get(ref_key(row))
        entry = dict(row)
        if ref is not None:
            entry["seed_ms"] = ref["ms"]
            entry["seed_max_boundary"] = ref["max_boundary"]
            entry["speedup_vs_seed"] = round(ref["ms"] / row["ms"], 2) if row["ms"] > 0 else None
            entry["max_boundary_vs_seed"] = round(row["max_boundary"] - ref["max_boundary"], 3)
        merged.append(entry)

    doc = {
        "seed_label": seed_label or "seed",
        "current_label": cur_label or "current",
        "rows": merged,
    }
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path} ({len(merged)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
