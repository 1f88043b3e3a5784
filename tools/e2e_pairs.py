#!/usr/bin/env python3
"""Runs bench_e2e's parent/change pair protocol between two checkouts.

    tools/e2e_pairs.py --parent DIR --change DIR --workload NAME
                       [--seeds 1-10] [--history FILE]
    tools/e2e_pairs.py --self-check

For each seed it makes one untraced run of bench_e2e/run.py in each
checkout, each checkout measuring its own sources, alternating which side
goes first, each run as long as BENCHMARK.json's run_seconds. For each
end-to-end metric BENCHMARK.json names, it prints both sides' median and
quartiles, how many pairs the change wins (ties count for neither side),
whether the gain rule holds (the change wins at least nine tenths of the
pairs and the medians differ, in the better direction, by more than the
parent's interquartile range) and whether the change stays within the
metric's bound; then both sides' failed and attempted operation counts. It
exits 1 when a bound is exceeded, a run fails or the change fails a larger
share of operations. The last stdout line is one JSON object: both commits
(HEAD, and for a checkout with uncommitted changes also the tree id of its
src/, which `git rev-parse COMMIT:src` prints for a commit holding the same
sources), the host's nproc and CPU model, the workload, the seeds, and per
metric the medians, quartiles, verdicts and every run's value; --history
appends it to a JSON list file (BENCH_e2e_history.json at the repository
root keeps one per workload per measured change). --self-check runs the
statistics on synthetic runs.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric, parent, change):
    """Verdicts for one metric over paired runs: lists of values, pair i in
    position i on both sides."""
    higher = metric["better"] == "higher"
    wins = sum(1 for p, c in zip(parent, change)
               if (c > p if higher else c < p))
    ps, cs = quartiles(parent), quartiles(change)
    delta = cs["median"] - ps["median"]
    improved = delta > 0 if higher else delta < 0
    gain = (wins >= math.ceil(0.9 * len(parent)) and improved and
            abs(delta) > ps["q3"] - ps["q1"])
    limit = metric["bound"] * abs(ps["median"])
    within = (-delta if higher else delta) <= limit
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": ps, "change": cs,
            "wins": wins, "pairs": len(parent), "gain": gain,
            "within_bound": within,
            "runs": {"parent": parent, "change": change}}


def summarize(spec, pairs):
    """pairs: (seed, parent result, change result); a result is run.py's
    JSON line, or None for a run that failed. Returns (summary, ok)."""
    ok = True
    totals = {}
    for side in (1, 2):
        runs = [p[side] for p in pairs]
        failed_runs = sum(1 for r in runs if r is None or not r["correct"])
        done = [r for r in runs if r is not None]
        totals["parent" if side == 1 else "change"] = {
            "runs": len(runs), "failed_runs": failed_runs,
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done)}
        ok = ok and failed_runs == 0
    share = {s: t["failed"] / t["attempted"] if t["attempted"] else 0.0
             for s, t in totals.items()}
    ok = ok and share["change"] <= share["parent"]
    complete = [p for p in pairs if p[1] is not None and p[2] is not None]
    metrics = {}
    if len(complete) >= 2:
        for m in spec["end_to_end"]:
            name = m["name"]
            metrics[name] = compare(
                m, [p[1]["metrics"][name]["value"] for p in complete],
                [p[2]["metrics"][name]["value"] for p in complete])
            ok = ok and metrics[name]["within_bound"]
    else:
        ok = False
    return {"seeds": [p[0] for p in pairs], "metrics": metrics,
            "operations": totals}, ok


def report(workload, summary, ok):
    for name, m in summary["metrics"].items():
        ps, cs = m["parent"], m["change"]
        rel = ((cs["median"] / ps["median"] - 1) * 100 if ps["median"]
               else 0.0)
        print("%s %s (%s, %s is better, bound %g %%)"
              % (workload, name, m["unit"], m["better"], m["bound"] * 100))
        for side, s in (("parent", ps), ("change", cs)):
            print("  %s  median %.6g  q1 %.6g  q3 %.6g"
                  % (side, s["median"], s["q1"], s["q3"]))
        print("  change %+.1f %%, better in %d of %d pairs; gain rule %s; %s"
              % (rel, m["wins"], m["pairs"],
                 "holds" if m["gain"] else "does not hold",
                 "within bound" if m["within_bound"] else "BOUND EXCEEDED"))
    for side, t in summary["operations"].items():
        print("%s %s: %d of %d runs failed; %d of %d operations failed"
              % (workload, side, t["failed_runs"], t["runs"], t["failed"],
                 t["attempted"]))
    print("%s: %s" % (workload, "ok" if ok else "FAILED"))


def commit_of(checkout):
    def git(*args):
        return subprocess.run(["git", "-C", checkout] + list(args),
                              capture_output=True, text=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    if not head:
        return "unknown"
    # A commit of the uncommitted changes to tracked files, made without
    # touching the checkout; empty when there are none.
    stash = git("stash", "create")
    return head + ("+src:" + git("rev-parse", stash + ":src") if stash else "")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(checkout, workload, seed, seconds):
    """One untraced run; its JSON line, or None when the run fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench_e2e", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if proc.returncode == 0 else None


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def self_check(spec):
    """The verdicts on synthetic runs: a clear gain, a tie, a regression past
    a bound and a failed run."""
    def result(goodput, setup=1.0):
        values = {m["name"]: 100.0 for m in spec["end_to_end"]}
        values["goodput_mb_s"] = goodput
        values["setup_s"] = setup
        return {"correct": True, "attempted": 1000, "failed": 0,
                "metrics": {n: {"value": v, "unit": ""}
                            for n, v in values.items()}}

    seeds = list(range(1, 11))
    base = [100.0 + 2.0 * (s % 3) for s in seeds]
    cases = {
        "gain": [(s, result(b), result(1.5 * b)) for s, b in zip(seeds, base)],
        "tie": [(s, result(b), result(b)) for s, b in zip(seeds, base)],
        "regression": [(s, result(b, 1.0), result(b, 1.3))
                       for s, b in zip(seeds, base)],
        "failed run": [(s, result(b), None if s == 4 else result(b))
                       for s, b in zip(seeds, base)],
    }
    verdicts = {name: summarize(spec, pairs) for name, pairs in cases.items()}
    checks = [
        ("gain holds", verdicts["gain"][0]["metrics"]["goodput_mb_s"]["gain"]),
        ("gain wins 10 of 10",
         verdicts["gain"][0]["metrics"]["goodput_mb_s"]["wins"] == 10),
        ("gain passes", verdicts["gain"][1]),
        ("tie is no gain",
         not verdicts["tie"][0]["metrics"]["goodput_mb_s"]["gain"]),
        ("tie has no wins",
         verdicts["tie"][0]["metrics"]["goodput_mb_s"]["wins"] == 0),
        ("tie passes", verdicts["tie"][1]),
        ("regression exceeds the setup_s bound",
         not verdicts["regression"][0]["metrics"]["setup_s"]["within_bound"]),
        ("regression fails", not verdicts["regression"][1]),
        ("failed run counted",
         verdicts["failed run"][0]["operations"]["change"]["failed_runs"]
         == 1),
        ("failed run fails", not verdicts["failed run"][1]),
    ]
    for name, passed in checks:
        print("%s: %s" % ("ok" if passed else "FAILED", name))
    return all(p for _, p in checks)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--history")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.self_check:
        sys.exit(0 if self_check(spec) else 1)
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required")
    seconds = spec["run_seconds"]

    pairs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        sides = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            sides.reverse()
        got = {}
        for side, checkout in sides:
            got[side] = run_once(checkout, args.workload, seed, seconds)
            print("%s seed %d %s: %s" % (
                args.workload, seed, side,
                "failed" if got[side] is None else "%.6g MB/s" %
                got[side]["metrics"]["goodput_mb_s"]["value"]),
                file=sys.stderr)
        pairs.append((seed, got["parent"], got["change"]))

    summary, ok = summarize(spec, pairs)
    report(args.workload, summary, ok)
    line = dict({"parent": commit_of(args.parent),
                 "change": commit_of(args.change),
                 "nproc": os.cpu_count(), "cpu": cpu_model(),
                 "workload": args.workload, "seconds": seconds}, **summary)
    if args.history:
        history = []
        if os.path.exists(args.history):
            with open(args.history) as f:
                history = json.load(f)
        history.append(line)
        with open(args.history, "w") as f:  # one summary per line
            f.write("[\n" + ",\n".join(json.dumps(h) for h in history)
                    + "\n]\n")
    print(json.dumps(line))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
