#!/usr/bin/env python3
"""Runs psnapbench in alternating pairs: a base revision against a change.

    python3 tools/bench_pairs.py --base=HEAD~1 --change=HEAD \\
        --workloads=versioned_range --seeds=201-210 --seconds=20
    python3 tools/bench_pairs.py --selftest

Each revision is checked out into a `git worktree` under --scratch and
bench_psnap is built there (cmake -S psnapbench -DCMAKE_BUILD_TYPE=Release).
The worktrees and builds stay, so a later call reuses them: a worktree that
holds another commit is switched to the one asked for and rebuilt
incrementally.  `git worktree remove <scratch>/base` (and .../change)
drops them.
Pair i runs one seed on both sides, the base first on even i and the change
first on odd i, so drift of the host's speed falls on both sides alike.
Every run keeps its --json report under <scratch>/runs/<workload>/.

Per workload the script prints `bench_psnap --compare` (the change's binary,
bounds from BENCHMARK.json), and then, per end-to-end metric, the change's
wins -- pairs where it is strictly better -- and whether a gain claim would
hold: wins on at least 90% of the pairs, a median gap (in the metric's
better direction) wider than the base's quartile spread, and a median
failed_op_share no higher than the base's.  Quartiles are Python's
statistics.quantiles(n=4), the method BENCHMARK.json's bounds are stated
against.  A pair where either run wrote no report is left out.  The exit
code is 1 when a run fails or --compare reports a regression.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
WIN_SHARE = 0.9


def quartiles(values):
    """statistics.quantiles(n=4); one value gives three equal quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def judge(base, change, better, base_failed, change_failed):
    """The claim arithmetic for one metric.

    `base` and `change` hold one value per pair, in pair order; `better` is
    "lower" or "higher".  `base_failed` and `change_failed` hold each
    pair's failed_op_share.  Returns a dict: wins, pairs, the two medians,
    the gap (median improvement in the better direction, negative when the
    change is worse), the base's quartile spread, whether the change fails
    no larger a share of operations, and whether a gain claim holds.
    """
    n = len(base)
    if not n or any(len(v) != n for v in (change, base_failed,
                                           change_failed)):
        raise ValueError("need one base and one change value per pair")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for a, b in zip(base, change) if sign * (a - b) > 0)
    med_a = statistics.median(base)
    med_b = statistics.median(change)
    q = quartiles(base)
    iqr = q[2] - q[0]
    gap = sign * (med_a - med_b)
    failed_ok = (statistics.median(change_failed) <=
                 statistics.median(base_failed))
    return {
        "wins": wins,
        "pairs": len(base),
        "base_median": med_a,
        "change_median": med_b,
        "gap": gap,
        "base_iqr": iqr,
        "failed_ok": failed_ok,
        "claim": (wins >= math.ceil(WIN_SHARE * n) and gap > iqr and
                  failed_ok),
    }


def selftest():
    """Checks the win, quartile and claim arithmetic on fixed numbers."""
    checks = []

    def expect(name, got, want):
        ok = (abs(got - want) < 1e-9 if isinstance(want, float)
              else got == want)
        checks.append(ok)
        if not ok:
            print("selftest: %s: got %r, want %r" % (name, got, want),
                  file=sys.stderr)

    # Quartiles, the exclusive method: for 1..10 they are 2.75, 5.5, 8.25.
    q = quartiles([float(v) for v in range(10, 0, -1)])
    expect("q1 of 1..10", q[0], 2.75)
    expect("median of 1..10", q[1], 5.5)
    expect("q3 of 1..10", q[2], 8.25)
    expect("one value", quartiles([4.0]), [4.0, 4.0, 4.0])

    # Lower is better: 9 of 10 wins, gap 3 > base spread 2.25 -> holds.
    # Sorted, the base is 100 100.5 101 101.5 102 | 102.5 102.75 103 103.5
    # 104: q1 = 100.5 + 0.75 * 0.5, q3 = 103 + 0.25 * 0.5.
    base = [100.0, 101.0, 102.0, 103.0, 104.0,
            100.5, 101.5, 102.5, 103.5, 102.75]
    none = [0.0] * 10
    change = [b - 3.0 for b in base]
    change[4] = 110.0  # the one lost pair
    j = judge(base, change, "lower", none, none)
    expect("wins", j["wins"], 9)
    expect("base median", j["base_median"], 102.25)
    expect("change median", j["change_median"], 99.25)
    expect("gap", j["gap"], 3.0)
    expect("base iqr", j["base_iqr"], 2.25)
    expect("claim holds", j["claim"], True)

    # The same gain does not count when more operations fail: the
    # change's median failed share (0.01) is above the base's (0).
    j = judge(base, change, "lower", none, none[:5] + [0.01] * 5)
    expect("more failed ops", j["failed_ok"], False)
    expect("claim with more failed ops", j["claim"], False)
    # An equal median share is fine, even where single pairs differ.
    j = judge(base, change, "lower", [0.0, 0.01] * 5, [0.01, 0.0] * 5)
    expect("equal failed share", j["failed_ok"], True)
    expect("claim with equal failed share", j["claim"], True)

    # 8 of 10 wins is not enough, however wide the gap.
    change[3] = 120.0
    j = judge(base, change, "lower", none, none)
    expect("wins at 8", j["wins"], 8)
    expect("claim at 8 wins", j["claim"], False)

    # Every pair won, but the gap does not clear the spread.
    j = judge(base, [b - 1.0 for b in base], "lower", none, none)
    expect("all wins", j["wins"], 10)
    expect("narrow gap", j["claim"], False)

    # Higher is better: the direction flips, a tie is not a win.
    j = judge([1.0, 2.0, 3.0], [2.0, 2.0, 9.0], "higher", none[:3],
              none[:3])
    expect("higher wins", j["wins"], 2)
    expect("higher gap", j["gap"], 0.0)
    expect("higher claim", j["claim"], False)

    # A change that is worse has a negative gap.
    j = judge([10.0, 10.0], [12.0, 14.0], "lower", none[:2], none[:2])
    expect("worse gap", j["gap"], -3.0)
    expect("worse wins", j["wins"], 0)

    failed = checks.count(False)
    print("bench_pairs selftest: %d checks, %d failed" % (len(checks), failed))
    return 1 if failed else 0


def parse_seeds(spec):
    """"1,4,7" or "201-210" (inclusive) or a mix of both."""
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), file=sys.stderr)
    return subprocess.run(cmd, **kwargs)


def checkout(repo, rev, path):
    """A detached worktree of `rev` at `path`; reuses one already there."""
    sha = subprocess.run(["git", "-C", repo, "rev-parse", "--verify",
                          rev + "^{commit}"], check=True, text=True,
                         capture_output=True).stdout.strip()
    if os.path.isdir(path):
        run(["git", "-C", path, "checkout", "--detach", sha], check=True,
            stdout=sys.stderr)
        return sha
    run(["git", "-C", repo, "worktree", "add", "--detach", path, sha],
        check=True, stdout=sys.stderr)
    return sha


def build(tree, out):
    jobs = min(4, os.cpu_count() or 1)
    run(["cmake", "-S", os.path.join(tree, "psnapbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    run(["cmake", "--build", out, "--target", "bench_psnap", "-j", str(jobs)],
        check=True, stdout=sys.stderr)
    return os.path.join(out, "bench_psnap")


def read_report(path):
    with open(path) as f:
        return {e["name"]: e["value"] for e in json.load(f)["benchmarks"]}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--selftest", action="store_true",
                        help="check the arithmetic on fixed numbers and exit")
    parser.add_argument("--base", help="the parent revision")
    parser.add_argument("--change", help="the revision under test")
    parser.add_argument("--workloads", default="versioned_range",
                        help="comma-separated psnapbench workloads")
    parser.add_argument("--seeds", default="1-10",
                        help="one pair per seed: '1,2,3' or '1-10'")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--scratch", default=os.path.join(ROOT, "build-pairs"),
                        help="worktrees, builds and run reports go here")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.base or not args.change:
        parser.error("--base and --change are required")

    scratch = os.path.abspath(args.scratch)
    bounds = os.path.join(ROOT, "BENCHMARK.json")
    with open(bounds) as f:
        end_to_end = json.load(f)["end_to_end"]
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = parse_seeds(args.seeds)
    if not seeds:
        parser.error("--seeds names no seed")

    trees = {}
    binaries = {}
    for side, rev in zip(SIDES, (args.base, args.change)):
        trees[side] = os.path.join(scratch, side)
        sha = checkout(ROOT, rev, trees[side])
        print("%s: %s %s" % (side, rev, sha[:12]), file=sys.stderr)
        binaries[side] = build(trees[side], os.path.join(scratch, side +
                                                         "-build"))

    failed = False
    for w in workloads:
        runs = os.path.join(scratch, "runs", w)
        os.makedirs(runs, exist_ok=True)
        reports = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                report = os.path.join(runs, "%s.%d.json" % (side, seed))
                if os.path.exists(report):
                    os.remove(report)  # a stale report must not stand in
                code = run([binaries[side], "--workload=" + w,
                            "--seed=%d" % seed, "--seconds=%g" % args.seconds,
                            "--frames=" + os.path.join(scratch, "frames"),
                            "--json=" + report],
                           cwd=trees[side], stdout=subprocess.DEVNULL).returncode
                if code != 0:
                    print("bench_pairs: %s %s seed %d exited with %d"
                          % (w, side, seed, code), file=sys.stderr)
                    failed = True
                pair[side] = report
            if all(os.path.exists(pair[side]) for side in SIDES):
                for side in SIDES:
                    reports[side].append(pair[side])
            else:
                print("bench_pairs: %s seed %d is missing a report; the pair"
                      " is left out" % (w, seed), file=sys.stderr)
                failed = True

        pairs = len(reports["base"])
        print("\n== %s: %d pairs, %g s per run ==" % (w, pairs,
                                                    args.seconds))
        if not pairs:
            print("no pair wrote both reports")
            continue
        sys.stdout.flush()
        sides = ":".join(",".join(reports[side]) for side in SIDES)
        code = run([binaries["change"], "--compare=" + sides,
                    "--bounds=" + bounds]).returncode
        failed = failed or code != 0

        values = {side: [read_report(r) for r in reports[side]]
                  for side in SIDES}
        print("%-20s %12s %12s %8s %7s %10s %10s  %s"
              % ("metric", "base p50", "change p50", "change", "wins", "gap",
                 "base IQR", "claim"))
        share = "%s/failed_op_share" % w
        for metric in end_to_end:
            name = "%s/%s" % (w, metric["name"])
            try:
                a = [v[name] for v in values["base"]]
                b = [v[name] for v in values["change"]]
                fa = [v[share] for v in values["base"]]
                fb = [v[share] for v in values["change"]]
            except KeyError:
                continue  # a run failed before writing this metric
            j = judge(a, b, metric["better"], fa, fb)
            rel = ((j["change_median"] - j["base_median"]) / j["base_median"]
                   if j["base_median"] else 0.0)
            print("%-20s %12.4g %12.4g %+7.1f%% %3d/%-3d %10.4g %10.4g  %s"
                  % (metric["name"], j["base_median"], j["change_median"],
                     100 * rel, j["wins"], j["pairs"], j["gap"],
                     j["base_iqr"],
                     "holds" if j["claim"] else
                     "-" if j["failed_ok"] else "- (more ops failed)"))
        sys.stdout.flush()

    shutil.rmtree(os.path.join(scratch, "frames"), ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
