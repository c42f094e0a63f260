#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. Builds perfbench/ (release) into $CARGO_TARGET_DIR, default
      .bench_build, then runs it. The last stdout line is the result JSON;
      the line before it is the run's provenance. At the default seed the
      digest must equal the one recorded in perfbench/expected.json.
      --expected FILE  compare against another expected-digest file
      --save FILE      also write {"provenance", "result"} to FILE

  python3 perfbench/run.py aa --workload W [--runs 10] [--seconds S]
      A/A self-comparison: two interleaved sets of runs of one build, one
      seed per run. Prints each side's median and quartiles per end-to-end
      metric, and fails when a spread exceeds a third of the metric's bound
      or the two medians differ by more than the bound.

  python3 perfbench/run.py table [--seed N] [--seconds S] [--trace 0|1]
      Every workload once; prints each metric by name and unit.

  python3 perfbench/run.py compare A.json B.json
      Ratio B/A per metric of two saved results. Refused (exit 2) when the
      host fingerprints differ.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["stream_grid", "browse_pop", "browse_coupled", "quic_web"]
# Keys of the provenance that must match before two results are compared.
FINGERPRINT = ("nproc", "cpu_model", "rustc")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log("build failed")
        return None
    return target_dir() / "release" / "perfbench"


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_rev():
    top = tool_output(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"])
    if top is None or pathlib.Path(top).resolve() != ROOT:
        return "none"
    return tool_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) or "none"


def expected_digest(path, workload, seed):
    data = json.loads(pathlib.Path(path).read_text())
    if seed != data["seed"]:
        return None
    return data["digests"][workload]


def run_once(binary, workload, seed, seconds, trace, expected):
    """Run the binary once. Returns (exit code, provenance, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    digest = expected_digest(expected, workload, seed)
    if digest is not None:
        cmd += ["--expect-digest", digest]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} timed out after {RUN_TIMEOUT_S} s")
        return 1, None, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("provenance "):
        log(f"{workload} seed {seed}: no result (exit {proc.returncode})")
        return proc.returncode or 1, None, None
    prov = json.loads(lines[-2][len("provenance "):])
    prov.update(rustc=tool_output(["rustc", "-V"]) or "unknown", git_rev=git_rev(),
                expected_digest=digest)
    return proc.returncode, prov, json.loads(lines[-1])


def cmd_run(args):
    binary = build()
    if binary is None:
        return 1
    code, prov, result = run_once(binary, args.workload, args.seed, args.seconds,
                                  args.trace, args.expected)
    if result is None:
        return code or 1
    if args.save:
        pathlib.Path(args.save).write_text(
            json.dumps({"provenance": prov, "result": result}, indent=1) + "\n")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return code


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_aa(args):
    binary = build()
    if binary is None:
        return 1
    spec = bounds()
    sides = {"A": {}, "B": {}}
    fingerprints = set()
    for i in range(args.runs):
        seed = args.seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            code, prov, result = run_once(binary, args.workload, seed, args.seconds, 0,
                                          args.expected)
            if code != 0 or result is None or not result["correct"]:
                log(f"run {side} seed {seed} failed")
                return 1
            fingerprints.add(tuple(prov[k] for k in FINGERPRINT))
            for name, m in result["metrics"].items():
                sides[side].setdefault(name, []).append(m["value"])
        log(f"{args.workload}: pair {i + 1}/{args.runs} done")
    if len(fingerprints) != 1:
        log(f"refusing: runs span host fingerprints {sorted(fingerprints)}")
        return 2
    ok = True
    print(f"A/A {args.workload}: {args.runs} runs per side, seeds "
          f"{args.seed}..{args.seed + args.runs - 1}, {args.seconds} s each")
    print(f"{'metric':24} {'unit':6} {'A q1':>11} {'A med':>11} {'A q3':>11} "
          f"{'B q1':>11} {'B med':>11} {'B q3':>11} {'spread':>7} {'B/A-1':>7} bound")
    for name, m in spec.items():
        a, b = sides["A"][name], sides["B"][name]
        qa, qb = quartiles(a), quartiles(b)
        spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]) if qa[1] and qb[1] else 0.0
        worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        if m["better"] == "higher":
            worse = -worse
        steady = name == "setup_s" or spread <= m["bound"] / 3
        agree = worse <= m["bound"]
        ok &= steady and agree
        flag = "" if steady and agree else "  <-- " + ("spread" if not steady else "median")
        print(f"{name:24} {m['unit']:6} {qa[0]:11.5g} {qa[1]:11.5g} {qa[2]:11.5g} "
              f"{qb[0]:11.5g} {qb[1]:11.5g} {qb[2]:11.5g} {spread:7.4f} {worse:+7.4f} "
              f"{m['bound']}{flag}")
    return 0 if ok else 1


def cmd_table(args):
    binary = build()
    if binary is None:
        return 1
    status = 0
    for w in WORKLOADS:
        code, prov, result = run_once(binary, w, args.seed, args.seconds, args.trace,
                                      args.expected)
        if result is None:
            return code or 1
        status |= code
        print(f"\n== {w}  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} tail=p{prov['tail_percentile']} of "
              f"{prov['unit_samples_per_pass']} units/pass, {prov['passes']} passes")
        for name, m in result["metrics"].items():
            note = ""
            if name == "telemetry.on_ratio" and m["value"]:
                note = "  (DESIGN.md section 8 budget: 1.15)"
            print(f"  {name:32} {m['value']:>16.6g} {m['unit']}{note}")
    return status


def cmd_compare(args):
    a = json.loads(pathlib.Path(args.a).read_text())
    b = json.loads(pathlib.Path(args.b).read_text())
    fa = {k: a["provenance"].get(k) for k in FINGERPRINT}
    fb = {k: b["provenance"].get(k) for k in FINGERPRINT}
    if fa != fb:
        log(f"refusing to compare results from different hosts: {fa} vs {fb}")
        return 2
    for name, m in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"{name:32} {m['value']:>14.6g} {other['value']:>14.6g} {ratio:8.4f} {m['unit']}")
    return 0


def main(argv):
    mode = "run"
    if argv and argv[0] in ("aa", "table", "compare"):
        mode, argv = argv[0], argv[1:]
    p = argparse.ArgumentParser(prog=f"run.py {mode}" if mode != "run" else "run.py")
    expected = str(HERE / "expected.json")
    if mode == "compare":
        p.add_argument("a")
        p.add_argument("b")
    else:
        p.add_argument("--expected", default=expected)
        p.add_argument("--seconds", type=float, default=10)
        p.add_argument("--seed", type=int, default=1)
    if mode in ("run", "aa"):
        p.add_argument("--workload", required=True, choices=WORKLOADS)
    if mode in ("run", "table"):
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    if mode == "run":
        p.add_argument("--save")
    if mode == "aa":
        p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    return {"run": cmd_run, "aa": cmd_aa, "table": cmd_table, "compare": cmd_compare}[mode](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
