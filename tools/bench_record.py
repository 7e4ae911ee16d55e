"""Collect perfbench results of a parent and a changed checkout into one
BENCH file for the committed performance trajectory.

    python3 tools/bench_record.py OUT.json --parent P.json ... --change C.json ...

Each input is the result.json that `perfbench/run.py --trace 0` writes for
one workload and seed (under .perfbench_work/<workload>/). For every
workload and side, OUT keeps each run's seed, host scale, failure count and
end-to-end metrics (already medians over the run's jobs, scaled to the
nominal host speed), the median of every metric over the runs, and the
change/parent ratio of those medians. The environment of the first input
is recorded once.
"""

import argparse
import json
import statistics


def collect(paths: list[str]) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs.setdefault(result["workload"], []).append(result)
    return runs


def summary(results: list[dict]) -> dict:
    results = sorted(results, key=lambda r: r["seed"])
    names = list(results[0]["metrics"])
    return {
        "runs": [{"seed": r["seed"], "host_scale": r["host_scale"],
                  "attempted": r["attempted"], "failed": r["failed"],
                  "metrics": {n: r["metrics"][n]["value"] for n in names}}
                 for r in results],
        "median": {n: statistics.median(r["metrics"][n]["value"] for r in results)
                   for n in names},
        "units": {n: results[0]["metrics"][n]["unit"] for n in names},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    parent, change = collect(args.parent), collect(args.change)
    first = next(iter(change.values()))[0]
    doc = {"environment": first["environment"], "workloads": {}}
    for name in sorted(parent.keys() & change.keys()):
        before, after = summary(parent[name]), summary(change[name])
        doc["workloads"][name] = {
            "parent": before, "change": after,
            "change_over_parent": {n: after["median"][n] / before["median"][n]
                                   for n in before["median"]},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
