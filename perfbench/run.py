#!/usr/bin/env python3
"""NICE-MC benchmark: build the program, run one workload, check every
verdict against its pinned answer, and print the metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. W is exhaust, reduce-parallel, symmetry or bughunt. With
      --trace 0 the untraced end-to-end metrics, with --trace 1 the
      per-layer metrics of the traced replay. The last line of stdout is
      the JSON result; the lines above it are a readable table and the
      run's provenance. Exits 1 on a wrong verdict or a replay mismatch.
  python3 perfbench/run.py --smoke
      Every workload, both modes, one second each: checks that every
      named metric prints with its unit, and prints them all.
  python3 perfbench/run.py --self-test
      Checks that a deliberately wrong pinned answer raises verdict_errors
      and makes a run exit non-zero, and that the true answers do not.
  python3 perfbench/run.py --cross-validate
      Runs every workload once under each state store (hash, full,
      collapsed) and checks the pinned answers against all three.
  python3 perfbench/run.py --baseline RUNS [--seconds S]
      RUNS seeded runs per workload plus one traced run each; appends
      medians, quartiles and the per-layer table to trajectory.jsonl.

The program is built from source into .bench_build/perfbench under the
repository root (perfbench/CMakeLists.txt, Release). See README.md.
"""
import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "nice_bench")
RECORDS = os.path.join(BUILD, "records")
PINNED = os.path.join(HERE, "pinned.json")
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")

WORKLOADS = ("exhaust", "reduce-parallel", "symmetry", "bughunt")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# Per-layer metrics of layers that only some workloads reach. They are
# printed (and recorded) where the layer ran; the JSON result carries the
# per_layer metrics of BENCHMARK.json, which every workload reaches.
WORKLOAD_LAYER_METRICS = {
    "exhaust": {"state.hash_ns": "ns"},
    "reduce-parallel": {
        "state.hash_ns": "ns",
        "collapse.key_ns": "ns",
        "collapse.dedupe_ratio": "ratio",
        "por.footprint_ns": "ns",
        "por.transitions_saved": "share",
        "parallel.cpu_inflation": "ratio",
    },
    "symmetry": {"sym.canonical_key_ns": "ns", "sym.key_bytes": "bytes"},
    "bughunt": {
        "state.hash_ns": "ns",
        "discover.ns_per_run": "ns",
        "discover.solver_queries_per_run": "count",
        "discover.handler_runs_per_run": "count",
    },
}


class BenchError(Exception):
    pass


def load_json(path):
    with open(path) as f:
        return json.load(f)


def spec():
    """The metric lists of BENCHMARK.json, as {name: unit}."""
    b = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    e2e = {m["name"]: m["unit"] for m in b["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in b["per_layer"]}
    return e2e, layer


# --- build -------------------------------------------------------------------

def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "nice_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-6000:])
            raise BenchError(f"build step {' '.join(cmd[:2])} failed")


def run_program(args):
    """Run the benchmark binary; returns its last stdout line as JSON."""
    try:
        p = subprocess.run([BINARY] + [str(a) for a in args],
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"nice_bench {args[0]} timed out")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"nice_bench {' '.join(map(str, args))} "
                         f"exited {p.returncode}")
    return json.loads(lines[-1])


# --- verdicts and statistics -------------------------------------------------

def check_verdicts(workload, verdicts, pins):
    """Compare each distinct verdict with the pinned answer of its
    scenario. Returns (runs attempted, runs failed, problem lines)."""
    want = pins[workload]
    attempted = failed = 0
    problems = []
    for v in verdicts:
        attempted += v["count"]
        pin = want.get(v["scenario"])
        wrong = ([] if pin is None else
                 [k for k, val in pin.items() if v.get(k) != val])
        if pin is None or wrong:
            failed += v["count"]
            problems.append(f"{v['scenario']}: {v['count']} run(s) differ "
                            f"from the pinned answer in "
                            f"{wrong or 'scenario'}: "
                            + json.dumps({k: v.get(k) for k in
                                          (pin or {"scenario": 0})}))
    missing = sorted(set(want) - {v["scenario"] for v in verdicts})
    if missing:
        problems.append(f"pinned scenarios never ran: {missing}")
    return attempted, failed, problems


def quantile(values, q):
    """Linear interpolation between closest ranks (inclusive)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(data):
    """End-to-end metrics of one untraced run, with their sample counts."""
    verdict = data["verdict_s"]
    ttv = data["ttv_ms"]
    rates = [u / v for u, v in zip(data["unique"], verdict)]
    values = {
        "verdict_s": (statistics.median(verdict), verdict),
        "states_per_s": (statistics.median(rates), rates),
        "ttv_ms.p50": (quantile(ttv, 0.5), ttv),
        "ttv_ms.p90": (quantile(ttv, 0.9), ttv),
        "setup_s": (statistics.median(data["setup_batch_s"]),
                    data["setup_batch_s"]),
        "peak_rss_mb": (data["peak_rss_bytes"] / 2**20, [1]),
    }
    return {k: (v, len(samples)) for k, (v, samples) in values.items()}


# The telemetry phase (CheckerOptions::telemetry) that covers each replay
# span; the footprint probe has no counterpart in an unreduced search.
PHASE_OF_SPAN = {
    "search": "other",
    "execute.make_initial": "other",
    "system.clone": "clone",
    "execute.apply": "apply+property_check",
    "props.at_quiescence": "apply+property_check",
    "state.hash": "remember",
    "collapse.key": "remember",
    "sym.canonical_key": "remember",
    "seen.insert": "remember",
    "execute.enabled": "enabled",
    "discover": "enabled",
}


def phase_split(data):
    """{phase: (replay span self-time share, telemetry share)}: the
    program's own phase split next to the replay's, as a cross-check."""
    layers = data["layers"]
    search_ns = layers["search"]["total_ns"] - \
        layers["por.footprint"]["total_ns"]
    tele = data["telemetry_phase_share"]
    split = {}
    for span, phase in PHASE_OF_SPAN.items():
        spans, _ = split.get(phase, (0.0, 0.0))
        split[phase] = (spans + layers[span]["self_ns"] / search_ns, 0.0)
    for phase in split:
        share = sum(tele.get(p, 0.0) for p in phase.split("+"))
        split[phase] = (split[phase][0], share)
    return split


# --- provenance ----------------------------------------------------------------

def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=10).stdout
        return out.splitlines()[0].strip() if out else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(re.escape(key) + r":\w+=(.*)", line)
                if m:
                    return m.group(1).strip() or "unknown"
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed, threads):
    """The fields of scripts/bench_env.py, plus the run's own settings."""
    nproc = len(os.sched_getaffinity(0))
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        sha = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    p = {
        "git_sha": sha,
        "compiler": first_line([cmake_cache("CMAKE_CXX_COMPILER"),
                                "--version"]),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "cxx_flags_release": cmake_cache("CMAKE_CXX_FLAGS_RELEASE"),
        "cpu_model": cpu_model(),
        "cores": os.cpu_count(),
        "nproc": nproc,
        "threads": threads,
        "workload": workload,
        "seed": seed,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "valid": nproc >= threads,
    }
    if not p["valid"]:
        p["invalid_reason"] = (f"{threads} threads on {nproc} available "
                               "cores: parallel figures not comparable")
    return p


# --- one run -------------------------------------------------------------------

def row(name, value, unit, note=""):
    print(f"  {name:34s} {value:<16.6g} {unit:6s} {note}".rstrip())


def run_once(workload, seed, seconds, trace, pins_path):
    e2e, layer = spec()
    pins = load_json(pins_path)
    build()
    os.makedirs(RECORDS, exist_ok=True)
    stem = os.path.join(RECORDS, f"{workload}-seed{seed}-trace{trace}")
    if trace:
        data = run_program(["trace", workload, seed, seconds,
                            stem + ".spans.json"])
    else:
        data = run_program(["measure", workload, seed, seconds])
        data["peak_rss_bytes"] = run_program(["rss", workload])[
            "peak_rss_bytes"]
    prov = provenance(workload, seed, int(data["threads"]))
    attempted, failed, problems = check_verdicts(workload, data["verdicts"],
                                                 pins)
    if trace and data["mismatches"]:
        problems += [f"replay mismatch: {m}" for m in data["mismatches"]]
        failed = min(attempted, failed + len(data["mismatches"]))
    correct = failed == 0 and not problems

    print(f"perfbench {workload} seed={seed} seconds={seconds} "
          f"trace={trace} threads={prov['threads']} nproc={prov['nproc']}"
          + ("" if prov["valid"] else "  INVALID: " + prov["invalid_reason"]))
    metrics = {}
    if trace:
        got = data["metrics"]
        expected = dict(layer)
        expected.update(WORKLOAD_LAYER_METRICS[workload])
        absent = sorted(set(expected) - set(got))
        if absent:
            raise BenchError(f"trace of {workload} lacks metrics {absent}")
        print("  per-layer metrics (outside-in replay; "
              f"{int(data['replays'])} replays, counts "
              f"{'match' if not data['mismatches'] else 'DIFFER'}):")
        for name, unit in expected.items():
            row(name, got[name], unit)
        metrics = {n: {"value": got[n], "unit": u} for n, u in layer.items()}
        print("  tracing overhead: traced "
              f"{data['traced_s']:.4f} s against untraced "
              f"{data['untraced_s']:.4f} s")
        print("  share of search time   replay spans   program telemetry")
        for phase, (spans, share) in phase_split(data).items():
            print(f"    {phase:22s} {spans:12.3f}   {share:12.3f}")
    else:
        for name, (value, n) in end_to_end(data).items():
            if name not in e2e:
                continue
            row(name, value, e2e[name], f"n={n}")
            metrics[name] = {"value": value, "unit": e2e[name]}
        absent = sorted(set(e2e) - set(metrics))
        if absent:
            raise BenchError(f"no value for end-to-end metrics {absent}")
        print(f"  cold first run {data['cold_s']:.6g} s: excluded")
        steal = sum(data["steal_s"])
        print(f"  hypervisor steal during the runs: {steal:.3g} CPU s "
              f"over {sum(data['verdict_s']):.3g} s of runs")
        prov["steal_cpu_s"] = steal
    row("verdict_errors", failed / max(1, attempted), "share",
        f"({failed}/{attempted} runs)")
    for p in problems:
        print("  WRONG: " + p)
    print("provenance " + json.dumps(prov, sort_keys=True))

    record = {"provenance": prov, "correct": correct, "attempted": attempted,
              "failed": failed, "problems": problems, "metrics": metrics,
              "program": data}
    if trace:
        record["phase_split"] = phase_split(data)
    with open(stem + ".json", "w") as f:
        json.dump(record, f)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


# --- checks and the baseline -----------------------------------------------------

def self_run(*args, pins=None):
    cmd = [sys.executable, os.path.abspath(__file__)] + [str(a) for a in args]
    if pins:
        cmd += ["--pinned", pins]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=2 * RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines


def table(lines):
    """{name: unit} of the readable table rows of one run."""
    rows = {}
    for line in lines:
        m = re.match(r"^  (\S+)\s+(-?[0-9][^ ]*)\s+(\S+)", line)
        if m:
            rows[m.group(1)] = m.group(3)
    return rows


def smoke():
    e2e, layer = spec()
    bad = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, lines = self_run("--workload", w, "--seed", 1,
                                   "--seconds", 1, "--trace", trace)
            if code != 0:
                bad.append(f"{w} trace={trace}: exit {code}")
                continue
            final = json.loads(lines[-1])
            want = dict(layer) if trace else dict(e2e)
            in_result = {n: m["unit"] for n, m in final["metrics"].items()}
            if in_result != want:
                bad.append(f"{w} trace={trace}: result metrics {in_result} "
                           f"!= {want}")
            if trace:
                want.update(WORKLOAD_LAYER_METRICS[w])
            want["verdict_errors"] = "share"
            rows = table(lines[:-1])
            for name, unit in want.items():
                if rows.get(name) != unit:
                    bad.append(f"{w} trace={trace}: {name} printed with "
                               f"unit {rows.get(name)}, expected {unit}")
            print(f"smoke {w} trace={trace}: {len(want)} metrics checked")
            for name in want:
                print(next(line for line in lines
                           if line.startswith(f"  {name} ")))
    for b in bad:
        print("FAIL " + b)
    print("smoke: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


def self_test():
    pins = load_json(PINNED)
    cases = [
        ("bughunt", ("bughunt", "pyswitch-bug1", "property"),
         "NotTheViolatedProperty"),
        ("exhaust", ("exhaust", "lb-sym4", "unique"),
         pins["exhaust"]["lb-sym4"]["unique"] + 1),
    ]
    bad = []
    os.makedirs(BUILD, exist_ok=True)
    for workload, (w, scenario, key), wrong in cases:
        code, lines = self_run("--workload", workload, "--seed", 1,
                               "--seconds", 1, "--trace", 0)
        errors = table_value(lines, "verdict_errors")
        if code != 0 or errors != 0:
            bad.append(f"{workload}: true pins gave exit {code}, "
                       f"verdict_errors {errors}")
        broken = json.loads(json.dumps(pins))
        broken[w][scenario][key] = wrong
        path = os.path.join(BUILD, f"pinned-wrong-{workload}.json")
        with open(path, "w") as f:
            json.dump(broken, f)
        code, lines = self_run("--workload", workload, "--seed", 1,
                               "--seconds", 1, "--trace", 0, pins=path)
        errors = table_value(lines, "verdict_errors")
        final = json.loads(lines[-1]) if lines else {}
        if code == 0 or not errors or final.get("correct", True):
            bad.append(f"{workload}: wrong pin {scenario}.{key}={wrong!r} "
                       f"gave exit {code}, verdict_errors {errors}")
        print(f"self-test {workload}: wrong {scenario}.{key} -> exit {code}, "
              f"verdict_errors {errors}")
    for b in bad:
        print("FAIL " + b)
    print("self-test: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


def table_value(lines, name):
    for line in lines:
        m = re.match(r"^  " + re.escape(name) + r"\s+(\S+)", line)
        if m:
            return float(m.group(1))
    return None


def cross_validate():
    build()
    pins = load_json(PINNED)
    bad = []
    for w in WORKLOADS:
        for store in ("hash", "full", "collapsed"):
            data = run_program(["verdicts", w, store])
            _, failed, problems = check_verdicts(w, data["verdicts"], pins)
            print(f"cross-validate {w} {store}: "
                  + ("ok" if not (failed or problems) else "WRONG"))
            bad += [f"{w} {store}: {p}" for p in problems]
    for b in bad:
        print("FAIL " + b)
    return 1 if bad else 0


def baseline(runs, seconds):
    """Append the baseline of this commit to trajectory.jsonl."""
    entry = {"kind": "baseline", "run_seconds": seconds, "runs": runs,
             "workloads": {}}
    for w in WORKLOADS:
        values = {}
        samples = {}  # within-run sample count of each run's value
        errors = 0
        attempted = 0
        for seed in range(1, runs + 1):
            code, lines = self_run("--workload", w, "--seed", seed,
                                   "--seconds", seconds, "--trace", 0)
            if code != 0:
                raise BenchError(f"{w} seed {seed} exited {code}")
            final = json.loads(lines[-1])
            errors += final["failed"]
            attempted += final["attempted"]
            record = load_json(os.path.join(RECORDS,
                                            f"{w}-seed{seed}-trace0.json"))
            for name, (value, n) in end_to_end(record["program"]).items():
                values.setdefault(name, []).append(value)
                samples.setdefault(name, []).append(n)
        e2e = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vs),
                         "spread": (q3 - q1) / med, "values": vs,
                         "samples_per_run": samples[name]}
            print(f"baseline {w} {name}: median {med:.6g} "
                  f"spread {(q3 - q1) / med:.4f}")
        code, lines = self_run("--workload", w, "--seed", 1,
                               "--seconds", seconds, "--trace", 1)
        if code != 0:
            raise BenchError(f"{w} traced run exited {code}")
        record = load_json(os.path.join(RECORDS, f"{w}-seed1-trace1.json"))
        entry["workloads"][w] = {
            "end_to_end": e2e,
            "verdict_errors": errors / max(1, attempted),
            "runs_attempted": attempted,
            "per_layer": record["program"]["metrics"],
            "layers": record["program"]["layers"],
            "phase_split": record["phase_split"],
            "tracing": {"traced_s": record["program"]["traced_s"],
                        "untraced_s": record["program"]["untraced_s"]},
            "provenance": record["provenance"],
        }
    with open(TRAJECTORY, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"baseline appended to {os.path.relpath(TRAJECTORY, ROOT)}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pinned", default=PINNED,
                    help="pinned answers (default: perfbench/pinned.json)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--cross-validate", action="store_true")
    ap.add_argument("--baseline", type=int, metavar="RUNS")
    a = ap.parse_args()
    seconds = int(a.seconds) if a.seconds == int(a.seconds) else a.seconds
    try:
        if a.smoke:
            return smoke()
        if a.self_test:
            return self_test()
        if a.cross_validate:
            return cross_validate()
        if a.baseline is not None:
            if a.baseline < 2:
                ap.error("--baseline needs at least 2 runs for quartiles")
            return baseline(a.baseline, seconds)
        if a.workload is None:
            ap.error("--workload is required")
        return run_once(a.workload, a.seed, seconds, a.trace, a.pinned)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
