#!/usr/bin/env python3
"""Entry point of the repository's benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload: builds the `perfbench` binary if needed, runs
        it, and passes its output through. The last line of standard output is
        the result object BENCHMARK.json describes.
    python3 perfbench/run.py --all [--runs R] [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]
        Every workload, each run in its own process, R runs per workload on
        seeds N..N+R-1. Prints every metric's median and quartile spread and
        writes all runs to FILE. A run that crashes or times out is recorded as
        failed and the sweep continues.
    python3 perfbench/run.py --compare A.json B.json
        Two --all result files side by side: per workload and end-to-end metric
        both medians, B/A, and within-bound / regressed / unresolved (spread
        wider than the bound); per-layer metrics with both values and whether
        they are identical.
    python3 perfbench/run.py --test
        The package's unit tests (`cargo test`), same offline build.

Run from the root of a checkout. Everything it writes stays under the checkout:
the build in $CARGO_TARGET_DIR (default .bench_build), the rest in perfbench/out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s; leave room to report


def cargo(subcommand, *extra):
    """A cargo command line for the benchmark package, building offline against
    the repository's own stand-ins for registry crates and with the repository's
    own release profile, both read from the repository so they follow it."""
    patch_toml = os.path.join(ROOT, ".typecheck", "patch.toml")
    if not os.path.exists(patch_toml):
        sys.exit(f"perfbench: {ROOT} is not a checkout of the repository: no .typecheck/patch.toml")
    with open(patch_toml, "rb") as f:
        patches = tomllib.load(f)["patch"]["crates-io"]
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    config = []
    for crate, spec in patches.items():
        # patch.toml is written relative to .typecheck/work/.
        path = os.path.normpath(os.path.join(ROOT, ".typecheck", "work", spec["path"]))
        config += ["--config", f"patch.crates-io.{crate}.path={json.dumps(path)}"]
    for key, value in profile.items():
        config += ["--config", f"profile.release.{key}={json.dumps(value)}"]
    manifest = os.path.join(HERE, "Cargo.toml")
    return ["cargo", subcommand, "--release", "--offline", "--quiet",
            "--manifest-path", manifest, *config, *extra]


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Build the binary (a no-op when up to date) and return its path. Build
    time is outside every metric: the binary starts its clocks itself."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(cargo("build"), env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target_dir(), "release", "perfbench")


def run_binary(binary, args, capture):
    """Run one workload in its own process; returns (exit code, stdout)."""
    cmd = [binary, *args, "--out-dir", os.path.join(HERE, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
        return done.returncode, done.stdout or ""
    except subprocess.TimeoutExpired as err:
        return 124, err.stdout or ""


def provenance():
    def out(*cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""
    return {
        "deps": "stub",  # registry crates are the in-repo stand-ins under .typecheck/stubs
        "nproc": os.cpu_count(),
        "rustc": out("rustc", "--version"),
        "commit": out("git", "rev-parse", "HEAD") or "not a git checkout",
    }


def spread(values):
    """Interquartile range as a share of the median (needs >= 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs):
    """{workload: {metric: (median, spread, unit, n)}} over the runs that reported."""
    table = {}
    for run in runs:
        for name, m in (run["result"] or {}).get("metrics", {}).items():
            table.setdefault(run["workload"], {}).setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return {w: {name: (statistics.median(v), spread(v), unit, len(v))
                for name, (v, unit) in metrics.items()}
            for w, metrics in table.items()}


def sweep(binary, opts):
    listing = subprocess.run([binary, "--list"], capture_output=True, text=True).stdout
    workloads = [line.split("\t")[0] for line in listing.splitlines()]
    runs = []
    for workload in workloads:
        for seed in range(opts.seed, opts.seed + opts.runs):
            code, stdout = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                               "--seconds", str(opts.seconds),
                                               "--trace", str(opts.trace)], capture=True)
            result = None
            if code == 0 and stdout.strip():
                result = json.loads(stdout.strip().splitlines()[-1])
            else:
                # Every trial of a crashed or timed-out run counts as failed.
                print(f"# {workload} seed {seed}: exit code {code}, counted as failed")
            runs.append({"workload": workload, "seed": seed, "trace": opts.trace,
                         "exit_code": code, "result": result})
            state = "ok" if result and result["correct"] else "FAILED"
            print(f"# {workload} seed {seed} trace {opts.trace}: {state}", flush=True)
    doc = {"provenance": provenance(), "seconds": opts.seconds, "runs": runs}
    out = opts.out or os.path.join(HERE, "out", f"runs-trace{opts.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    for workload, metrics in summarize(runs).items():
        print(f"\n{workload}")
        for name, (med, spr, unit, n) in metrics.items():
            print(f"  {name:<44} {med:>16.6g} {unit:<6} spread {spr:6.1%}  n={n}")
    failed = sum(1 for r in runs if not (r["result"] and r["result"]["correct"]))
    attempted = sum((r["result"] or {}).get("attempted", 0) for r in runs)
    failed_ops = sum((r["result"] or {}).get("failed", 0) for r in runs)
    print(f"\nfailed_share = {failed_ops}/{attempted} checks; {failed}/{len(runs)} runs not correct")
    print(f"wrote {out}")
    return 1 if failed else 0


def compare(path_a, path_b):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(path_a) as f:
        a = summarize(json.load(f)["runs"])
    with open(path_b) as f:
        b = summarize(json.load(f)["runs"])
    verdicts = set()
    end_to_end = {metric["name"] for metric in bench["end_to_end"]}
    for workload in a:
        print(workload)
        for name, (med_a, _, unit, _) in a[workload].items():
            # Per-layer metrics have no bound: both values, and whether they repeat.
            if name in end_to_end or name not in b.get(workload, {}):
                continue
            med_b = b[workload][name][0]
            note = "identical" if med_a == med_b else f"B/A {med_b / med_a:6.3f} (base A)" if med_a else ""
            print(f"  {name:<44} A {med_a:>14.6g}  B {med_b:>14.6g} {unit:<6} {note}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in a[workload] or name not in b.get(workload, {}):
                continue
            (med_a, spr_a, unit, _), (med_b, spr_b, _, _) = a[workload][name], b[workload][name]
            ratio = med_b / med_a
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if max(spr_a, spr_b) > bound:
                verdict = "unresolved"
            else:
                verdict = "regressed" if worse > bound else "within-bound"
            verdicts.add(verdict)
            print(f"  {name:<22} A {med_a:>12.6g}  B {med_b:>12.6g} {unit:<4} B/A {ratio:6.3f} "
                  f"(base A)  spread A {spr_a:5.1%} B {spr_b:5.1%}  bound {bound:4.0%}  {verdict}")
    return 0 if verdicts <= {"within-bound"} else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs: plumbing, not numbers")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--test", action="store_true")
    opts = ap.parse_args()
    if opts.compare:
        return compare(*opts.compare)
    if opts.test:
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
        return subprocess.run(cargo("test"), env=env).returncode
    binary = build()
    if opts.all:
        return sweep(binary, opts)
    if not opts.workload:
        ap.error("--workload, --all, --compare or --test is required")
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    code, _ = run_binary(binary, args + (["--smoke"] if opts.smoke else []), capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
