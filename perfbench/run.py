#!/usr/bin/env python3
"""The repository's benchmark: the simulator and the detector, end to end
and layer by layer.

Run one workload, or all three one after another (builds the harness
first; run from the repository root):

    python3 perfbench/run.py --workload grid_detect --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

--seed and --seconds default to the workload's default seed in
perfbench/meta.json and BENCHMARK.json's run_seconds.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 a separate traced run reports its per_layer list and writes
the spans to .bench_results/spans/. Every run's full record (metrics with
their bases, digest of the deterministic outputs, run metadata) is kept
under .bench_results/<workload>/.

Other modes:

    python3 perfbench/run.py --spread WORKLOAD --seeds 1-10 [--seconds S]
        runs several seeds and prints each end-to-end metric's quartile
        spread as a share of its median: ok below a third of its bound,
        WIDE up to the bound, OVER BOUND beyond it; exits 1 unless all ok.
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
        compares two result sets (directories of result records) metric by
        metric: medians, quartiles, pair wins and a verdict. Runs of one
        workload and seed must print the same digest of their simulated
        results on both sides; otherwise it exits with 1.
    python3 perfbench/run.py --selftest
        checks the benchmark itself (percentile rule, ratio bases, metric
        names against BENCHMARK.json, tiny smoke runs).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RESULTS = ROOT / ".bench_results"
HARNESS = BUILD / "perfbench_harness"
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_spec():
    spec = load_json(ROOT / "BENCHMARK.json")
    meta = load_json(HERE / "meta.json")
    return spec, meta


# --- Build ---------------------------------------------------------------------


def build():
    """Configures and builds the harness from the checkout's sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text(encoding="utf-8")[-4000:])
                fail("building the harness failed", 1)


# --- Running -------------------------------------------------------------------


def run_harness(args, timeout=HARNESS_TIMEOUT_S):
    """Runs the harness; returns (human lines, record) or exits on error."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MANET_RATE_CACHE", "MANET_ARTIFACTS")}
    try:
        proc = subprocess.run([str(HARNESS)] + args, capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {timeout} s: {' '.join(args)}", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"harness exited with {proc.returncode}: {' '.join(args)}", 1)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("harness printed nothing", 1)
    return lines[:-1], json.loads(lines[-1])


def observed_on(meta, name, workload):
    return workload in meta["per_layer"][name]["workloads"]


def result_metrics(spec, meta, record, workload, trace):
    """The contract's metric map, checked against BENCHMARK.json."""
    got = record["metrics"]
    metrics, problems = {}, []
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                problems.append(f"{name}: unit {got[name]['unit']} != {unit}")
            value = got[name]["value"]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{name}: value {value!r} is not a finite number")
            metrics[name] = {"value": value, "unit": unit}
        elif trace and not observed_on(meta, name, workload):
            # This workload does not exercise (or cannot observe) that
            # layer; the metric reads 0 here and is measured elsewhere.
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"{name}: not reported")
    extra = sorted(set(got) - {m["name"] for m in wanted})
    if extra:
        problems.append(f"unexpected metrics {extra}")
    return metrics, problems


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_workload(spec, meta, workload, seed, seconds, trace):
    """One run: returns (contract result, full record, human lines)."""
    load_at_start = os.getloadavg()
    started = time.time()
    RESULTS.mkdir(exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    spans = None
    if trace:
        (RESULTS / "spans").mkdir(exist_ok=True)
        spans = RESULTS / "spans" / f"{workload}-seed{seed}.json"
        args += ["--spans", str(spans)]
    lines, record = run_harness(args)
    metrics, problems = result_metrics(spec, meta, record, workload, trace)
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems), 1)
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    full = {
        "result": result,
        "harness": record,
        "run": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": git_commit(), "nproc": os.cpu_count(),
            "loadavg_at_start": list(load_at_start),
            "wall_s": time.time() - started,
            "failed_frac": record["failed"] / record["attempted"],
            "spans": str(spans.relative_to(ROOT)) if spans else None,
        },
    }
    out_dir = RESULTS / workload
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    name = f"seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    with open(out_dir / name, "w", encoding="utf-8") as f:
        json.dump(full, f, indent=1)
    return result, full, lines


def print_run(full, lines):
    for line in lines:
        print(line)
    run = full["run"]
    h = full["harness"]
    print(f"# run nproc={run['nproc']} compiler={h['compiler']!r} "
          f"build={h['build_type']} flags={h['cxx_flags']!r} commit={run['commit']} "
          f"loadavg={run['loadavg_at_start'][0]:.2f} seed={run['seed']} "
          f"failed_frac={run['failed_frac']:.6g}")
    print(json.dumps(full["result"]))


# --- Spread and compare ----------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(spec, meta, workload, seeds, seconds):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds:
        result, full, _ = run_workload(spec, meta, workload, seed, seconds, False)
        print(f"seed {seed}: correct={result['correct']} digest={full['harness']['digest']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values[k].append(v["value"])
    ok = True
    print(f"\n{workload}: quartile spread over {len(seeds)} seeds (share of median)")
    for m in spec["end_to_end"]:
        q1, q2, q3 = quartiles(values[m["name"]])
        share = (q3 - q1) / q2 if q2 else float("inf")
        steady = share < m["bound"] / 3
        ok = ok and steady
        state = "ok" if steady else "WIDE" if share <= m["bound"] else "OVER BOUND"
        print(f"  {m['name']:18s} median {q2:12.6g} IQR/median {share:7.4f} "
              f"bound {m['bound']:.2f} {state}")
    return ok


def load_results(directory):
    runs = []
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            data = load_json(path)
        except (OSError, ValueError):
            continue
        if isinstance(data, dict) and "result" in data and "run" in data:
            runs.append(data)
    return runs


def verdict(a, b, better, bound):
    """Parent values a, change values b (paired by position)."""
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    iqr = qa3 - qa1
    gain = sign * (mb - ma)
    if pairs and wins / len(pairs) >= 0.9 and gain > iqr:
        v = "improved"
    elif pairs and losses / len(pairs) >= 0.9 and -gain > iqr:
        v = "worse"
    elif bound is not None and ma and -gain > bound * abs(ma):
        v = "worse"
    elif bound is not None and ma and iqr / abs(ma) > bound:
        all_better = min(sign * y for y in b) > max(sign * x for x in a)
        v = "improved" if all_better else "unresolved"
    else:
        v = "unchanged"
    return wins, len(pairs), v


def digests_by_seed(runs, side):
    """{(workload, seed): digest}; a seed whose runs disagree is an error."""
    digests, ok = {}, True
    for r in runs:
        key = (r["run"]["workload"], r["run"]["seed"])
        d = r["harness"]["digest"]
        if digests.setdefault(key, d) != d:
            print(f"ERROR {side}: {key[0]} seed {key[1]} printed different digests "
                  f"({digests[key]} and {d}); its results are not deterministic")
            ok = False
    return digests, ok


def check_digests(a_runs, b_runs):
    """Runs of one seed must print one digest, on each side and across
    the sides: a change that alters the simulated results fails here."""
    da, ok_a = digests_by_seed(a_runs, "parent")
    db, ok_b = digests_by_seed(b_runs, "change")
    ok = ok_a and ok_b
    shared = sorted(set(da) & set(db))
    for key in shared:
        if da[key] != db[key]:
            print(f"RESULTS CHANGED: {key[0]} seed {key[1]} digest parent {da[key]} "
                  f"change {db[key]}")
            ok = False
    print(f"digests: {len(shared)} (workload, seed) pairs on both sides, "
          f"{'all equal' if ok else 'MISMATCH'}\n")
    return ok


def compare(spec, dir_a, dir_b):
    """Prints the comparison; returns False when the digests disagree."""
    bounds = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load_results(dir_a), load_results(dir_b)
    if not a_runs or not b_runs:
        fail("both result directories must hold result records")
    digests_ok = check_digests(a_runs, b_runs)
    keys = sorted({(r["run"]["workload"], r["run"]["trace"]) for r in a_runs + b_runs})
    print(f"{'workload':16s} {'metric':28s} {'parent p50 [q1,q3]':>34s} "
          f"{'change p50 [q1,q3]':>34s} {'wins':>7s} verdict")
    for workload, trace in keys:
        def pick(runs):
            rs = [r for r in runs if r["run"]["workload"] == workload
                  and r["run"]["trace"] == trace]
            return sorted(rs, key=lambda r: (r["run"]["seed"], r["run"]["wall_s"]))
        ra, rb = pick(a_runs), pick(b_runs)
        if not ra or not rb:
            print(f"{workload:16s} (trace {int(trace)}) present on one side only")
            continue
        # Pair runs of the same seed first, then the rest in order.
        seeds_b = {}
        for r in rb:
            seeds_b.setdefault(r["run"]["seed"], []).append(r)
        pairs, left_a = [], []
        for r in ra:
            match = seeds_b.get(r["run"]["seed"])
            if match:
                pairs.append((r, match.pop(0)))
            else:
                left_a.append(r)
        left_b = [r for rs in seeds_b.values() for r in rs]
        pairs += list(zip(left_a, left_b))
        for name in ra[0]["result"]["metrics"]:
            if name not in bounds:
                continue
            better, bound = bounds[name]
            a = [p[0]["result"]["metrics"][name]["value"] for p in pairs]
            b = [p[1]["result"]["metrics"][name]["value"] for p in pairs]
            if not a:
                continue
            qa1, ma, qa3 = quartiles(a)
            qb1, mb, qb3 = quartiles(b)
            wins, n, v = verdict(a, b, better, bound)
            print(f"{workload:16s} {name:28s} {ma:12.6g} [{qa1:9.4g},{qa3:9.4g}] "
                  f"{mb:12.6g} [{qb1:9.4g},{qb3:9.4g}] {wins:3d}/{n:<3d} {v}")
    return digests_ok


# --- Self-test -------------------------------------------------------------------


def selftest(spec, meta):
    problems = []
    proc = subprocess.run([str(HARNESS), "--selftest"], capture_output=True, text=True)
    if proc.returncode:
        problems.append("harness percentile self-test: " + proc.stdout + proc.stderr)

    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    described = set(meta["end_to_end"]) | set(meta["per_layer"])
    if names != described:
        problems.append(f"BENCHMARK.json and meta.json disagree: {sorted(names ^ described)}")
    workloads = [w["name"] for w in spec["workloads"]]
    if set(workloads) != set(meta["seeds"]):
        problems.append("meta.json seeds do not cover the workloads")

    for workload in workloads:
        for trace in (False, True):
            record = run_harness(["--workload", workload, "--seed", "1", "--seconds", "1",
                                  "--trace", "1" if trace else "0", "--tiny"])[1]
            tag = f"{workload} trace {int(trace)}"
            _, issues = result_metrics(spec, meta, record, workload, trace)
            problems += [f"{tag}: {p}" for p in issues]
            if trace:
                expected = {n for n in meta["per_layer"] if observed_on(meta, n, workload)}
                if set(record["metrics"]) != expected:
                    problems.append(f"{tag}: observed per-layer metrics "
                                    f"{sorted(set(record['metrics']) ^ expected)} "
                                    "disagree with meta.json")
            if record["failed"] != 0 or record["attempted"] < 1:
                problems.append(f"{tag}: failed_frac {record['failed']}/{record['attempted']}")
            for name, m in record["metrics"].items():
                info = meta["per_layer"].get(name) or meta["end_to_end"].get(name)
                kind = info.get("kind", "value") if info else "value"
                if kind == "ratio" and " / " not in m["base"]:
                    problems.append(f"{tag}: ratio {name} printed no base")
                if kind == "sampled" and "n=" not in m["base"]:
                    problems.append(f"{tag}: {name} printed no sample count")
            print(f"smoke {tag}: ok={not problems} attempted={record['attempted']} "
                  f"failed={record['failed']}", flush=True)
    for p in problems:
        print("selftest FAILED:", p)
    print("selftest", "FAILED" if problems else "ok")
    return not problems


# --- Main ------------------------------------------------------------------------


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spread", metavar="WORKLOAD")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file() or not (HERE / "meta.json").is_file():
        fail("BENCHMARK.json or perfbench/meta.json missing")
    spec, meta = load_spec()
    if a.compare:
        return 0 if compare(spec, *a.compare) else 1
    build()
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if a.selftest:
        return 0 if selftest(spec, meta) else 1
    if a.spread:
        return 0 if spread(spec, meta, a.spread, parse_seeds(a.seeds), seconds) else 1
    workloads = [w["name"] for w in spec["workloads"]]
    if a.workload == "all":
        chosen = workloads
    elif a.workload in workloads:
        chosen = [a.workload]
    else:
        fail(f"--workload must be 'all' or one of {workloads}")
    for workload in chosen:  # one harness process per workload (peak RSS)
        seed = a.seed if a.seed is not None else meta["seeds"][workload]["default"]
        _, full, lines = run_workload(spec, meta, workload, seed, seconds, bool(a.trace))
        print_run(full, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
