#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark, as one command.

    python3 tools/pairs.py --parent REF --scratch DIR --out runs.json \\
        [--workload NAME ...] [--pairs 10] [--seconds 30] [--seed 1] \\
        [--trace 0|1]
    python3 tools/pairs.py --report runs.json

Run from the repository root. The parent side is a `git clone` of this
repository checked out at REF under DIR/parent (a clone, not a worktree,
so this repository's .git is left alone); the change side is the working
tree. Each side builds through perfbench/run.py into its own
CARGO_TARGET_DIR (DIR/build-parent, DIR/build-change), and the build is
checked with `run.py --smoke` before any timed run. This script only
invokes perfbench/; it never edits it.

Pair k runs both sides on seed SEED+k, the parent first when k is even.
Around each run it records the CPU steal share (the change of the steal
field of the `cpu` line of /proc/stat over the change of the sum of its
first eight fields) and, from getrusage(RUSAGE_CHILDREN), voluntary
context switches and CPU time per attempted request. Every run goes to
the --out JSON file as it finishes. At the end, and with --report, each
workload gets a table with one row per metric: each side's median and
Q1-Q3, the pairs the change won (ties count for neither), IQR/median
against the metric's BENCHMARK.json bound (resolved when both sides are
within it), the relative change of the median, and the gain verdict:
the change won at least 9 of 10 pairs and its median beats the parent's
by more than the parent's Q1-Q3 distance.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("rpc_small", "mlp_fused", "durable_sync")
SIDES = ("parent", "change")
# Rows measured around each run rather than by the benchmark.
CONTEXT = ("fail_share", "steal_share", "nvcsw_per_req", "cpu_us_per_req")


# ----------------------------------------------------------------- statistics

def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values):
    """(median, q1, q3) of `values`."""
    return quantile(values, 0.5), quantile(values, 0.25), quantile(values, 0.75)


def spread(values):
    """IQR over median: the run-to-run spread the 0.25 bounds compare."""
    med, q1, q3 = summary(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def pair_wins(pairs, better):
    """Pairs (parent, change) the change won; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in pairs if sign * (c - p) > 0)


def gain(pairs, better):
    """The claim rule: wins in >= 9/10 of pairs, and a median gap in the
    better direction larger than the parent's Q1-Q3 distance."""
    if not pairs:
        return False
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1 if better == "higher" else -1
    _, q1, q3 = summary(parent)
    gap = sign * (quantile(change, 0.5) - quantile(parent, 0.5))
    return pair_wins(pairs, better) >= 0.9 * len(pairs) and gap > q3 - q1


def metric_row(name, pairs, better, bound):
    """One table row as a dict; `bound` is None for a metric without one."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pm, pq1, pq3 = summary(parent)
    cm, cq1, cq3 = summary(change)
    worst = max(spread(parent), spread(change))
    rel = (cm - pm) / abs(pm) if pm else 0.0
    row = {
        "metric": name, "better": better, "n": len(pairs),
        "parent": (pm, pq1, pq3), "change": (cm, cq1, cq3),
        "wins": pair_wins(pairs, better), "spread": worst, "bound": bound,
        "rel": rel, "gain": gain(pairs, better),
    }
    if bound is not None:
        row["resolved"] = worst <= bound
        worse = -rel if better == "higher" else rel
        row["within_bound"] = worse <= bound
    return row


# ------------------------------------------------------------------ run list

def benchmark_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}
    for name in CONTEXT:
        bounds[name] = ("lower", None)
    return bounds


def run_values(run):
    values = {name: m["value"] for name, m in run["metrics"].items()}
    values["fail_share"] = (run.get("failed") or 0) / max(1, run["attempted"])
    for key in CONTEXT[1:]:
        values[key] = run[key]
    return values


def tables(runs, bounds):
    """{workload: [row, ...]} over every complete pair of `runs`."""
    by_key = {}
    for run in runs:
        if run.get("exit", 0) == 0 and run.get("metrics"):
            by_key[(run["workload"], run["pair"], run["side"])] = run
    out = {}
    for workload in sorted({w for w, _, _ in by_key}):
        ks = sorted({k for w, k, _ in by_key if w == workload})
        complete = [(by_key[(workload, k, "parent")],
                     by_key[(workload, k, "change")])
                    for k in ks if (workload, k, "parent") in by_key
                    and (workload, k, "change") in by_key]
        if not complete:
            continue
        names = [n for n in bounds if n in run_values(complete[0][0])]
        rows = []
        for name in names:
            better, bound = bounds[name]
            pairs = [(run_values(p)[name], run_values(c)[name])
                     for p, c in complete]
            rows.append(metric_row(name, pairs, better, bound))
        out[workload] = rows
    return out


def fmt(v):
    return f"{v / 1e3:.4g}k" if abs(v) >= 1e4 else f"{v:.4g}"


def render(runs, bounds):
    lines = []
    failed = sum(1 for r in runs if r.get("exit", 0) != 0)
    if failed:
        lines.append(f"{failed} run(s) failed and are left out of the tables")
    for workload, rows in tables(runs, bounds).items():
        lines.append(f"\n{workload}: {rows[0]['n']} pairs")
        lines.append(f"{'metric':28} {'parent median (Q1-Q3)':30} "
                     f"{'change median (Q1-Q3)':30} {'wins':>6} "
                     f"{'change':>8} {'IQR/med':>8} {'bound':>6}  verdict")
        for r in rows:
            p, c = r["parent"], r["change"]
            verdict = []
            if r["bound"] is not None:
                verdict.append("resolved" if r["resolved"] else "unresolved")
                if not r["within_bound"]:
                    verdict.append("WORSE THAN BOUND")
            if r["metric"] not in CONTEXT:
                verdict.append("gain" if r["gain"] else "no gain")
            bound = "-" if r["bound"] is None else f"{r['bound']:.2f}"
            lines.append(
                f"{r['metric']:28} "
                f"{fmt(p[0]) + ' (' + fmt(p[1]) + '-' + fmt(p[2]) + ')':30} "
                f"{fmt(c[0]) + ' (' + fmt(c[1]) + '-' + fmt(c[2]) + ')':30} "
                f"{str(r['wins']) + '/' + str(r['n']):>6} "
                f"{r['rel'] * 100:+7.1f}% {r['spread']:8.3f} {bound:>6}  "
                + ", ".join(verdict))
    return "\n".join(lines)


# -------------------------------------------------------------------- running

def steal_counters():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def perfbench(side_root, build_dir, args):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=side_root, env=env, stdout=subprocess.PIPE,
                          text=True)


def timed_run(side_root, build_dir, workload, seed, seconds, trace):
    steal0, total0 = steal_counters()
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = perfbench(side_root, build_dir,
                     ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)])
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    steal1, total1 = steal_counters()
    lines = proc.stdout.splitlines()
    result = {}
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {}
    attempted = max(1, result.get("attempted", 0))
    cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return {
        "exit": proc.returncode,
        "correct": result.get("correct"),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed"),
        "metrics": result.get("metrics", {}),
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "nvcsw_per_req": (ru1.ru_nvcsw - ru0.ru_nvcsw) / attempted,
        "cpu_us_per_req": cpu_s * 1e6 / attempted,
        "detail": lines[:-1],
    }


def prepare(args):
    """Clones the parent, then builds and smoke-checks both sides."""
    # Resolve the ref here: a relative ref such as HEAD~1 would mean
    # something else inside the clone once it has been checked out.
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          args.parent + "^{commit}"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    parent_root = os.path.join(args.scratch, "parent")
    if not os.path.isdir(parent_root):
        subprocess.run(["git", "clone", "-q", ROOT, parent_root], check=True)
    subprocess.run(["git", "-C", parent_root, "fetch", "-q", "origin"],
                   check=True)
    subprocess.run(["git", "-C", parent_root, "checkout", "-q", sha],
                   check=True)
    args.parent_sha = sha
    sides = {"parent": (parent_root, os.path.join(args.scratch,
                                                  "build-parent")),
             "change": (ROOT, os.path.join(args.scratch, "build-change"))}
    for side, (root, build_dir) in sides.items():
        print(f"pairs: building and smoke-checking {side}", file=sys.stderr,
              flush=True)
        if perfbench(root, build_dir, ["--smoke"]).returncode != 0:
            raise SystemExit(f"pairs: {side} failed perfbench --smoke")
    return sides


def order(k):
    """Pair k runs the parent first when k is even."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--report", metavar="FILE",
                    help="print the tables of a saved run file and exit")
    ap.add_argument("--parent", help="git ref of the parent side")
    ap.add_argument("--scratch", help="directory for the clone and builds")
    ap.add_argument("--out", help="JSON file that receives every run")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = benchmark_spec()
    if args.report:
        with open(args.report) as f:
            print(render(json.load(f)["runs"], bounds))
        return 0
    if not (args.parent and args.scratch and args.out):
        ap.error("--parent, --scratch and --out are required to run pairs")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    args.scratch = os.path.abspath(args.scratch)
    os.makedirs(args.scratch, exist_ok=True)
    sides = prepare(args)
    doc = {"parent": args.parent_sha, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(), "runs": []}
    for workload in args.workload or WORKLOADS:
        for k in range(args.pairs):
            seed = args.seed + k
            for side in order(k):
                root, build_dir = sides[side]
                run = timed_run(root, build_dir, workload, seed,
                                args.seconds, args.trace)
                run.update(workload=workload, pair=k, seed=seed, side=side)
                doc["runs"].append(run)
                with open(args.out, "w") as f:
                    json.dump(doc, f, indent=1)
                rows = run["metrics"].get("rows_per_s", {}).get("value", 0)
                print(f"pairs: {workload} pair {k} seed {seed} {side}: "
                      f"exit {run['exit']}, steal "
                      f"{run['steal_share'] * 100:.1f}%, "
                      f"{run['nvcsw_per_req']:.2f} csw/req, "
                      f"{rows:.0f} rows/s", file=sys.stderr, flush=True)
    print(render(doc["runs"], bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
