#!/usr/bin/env python3
"""SafeFlow benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a SafeFlow checkout. The first run builds the
analyzer and perfbench/sfbench.cpp from source into .bench_build/;
every run works in a fresh directory under .bench_work/ and removes it.

--trace 0 measures the end-to-end metrics in a closed loop (one client,
one request at a time): rounds of one cold CLI verdict, one fresh
one-function edit and a few unchanged (warm) requests, interleaved so
every metric sees the same host drift. --trace 1 is the separate traced
run that gives the per-layer metrics. Every verdict is checked against a
hand-written expectation (EXPECTED below). The last line of stdout is
one JSON object: correct, attempted, failed, metrics.

See perfbench/README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = ".bench_build"
WORK_PARENT = ".bench_work"
SAFEFLOW = os.path.join(BUILD, "safeflow", "safeflow", "safeflow")
SAFEFLOWD = os.path.join(BUILD, "safeflow", "safeflow", "safeflowd")
SFBENCH = os.path.join(BUILD, "sfbench")

# A failed op enters every latency sample at its deadline.
OP_DEADLINE_S = 30.0
WARM_OPS_PER_ROUND = 3
SETUP_REPEATS = 5
TRACE_REPS = 4
PERCENTILES = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)

# Hand-written expected verdicts: (warnings, data errors, control-only
# entries, exit code). The paper systems are Table 1 of the paper.
# taint_cycles follows from accumulatorCycleProgram(F=60, 48): every
# compute<f> makes one unmonitored read of region r<f % 6>, and main's
# assert(safe(total)) depends on all of them through data flow only, so
# F warnings and one data error per distinct region, min(F, 6).
# pointer_churn reads no shared memory and asserts nothing: clean.
TAINT_CYCLES_F = 60
EXPECTED = {
    "taint_cycles": (TAINT_CYCLES_F, min(TAINT_CYCLES_F, 6), 0, 1),
    "pointer_churn": (0, 0, 0, 0),
    "ip": (7, 1, 2, 1),
    "generic_simplex": (7, 2, 6, 1),
    "double_ip": (8, 2, 2, 1),
}
PAPER_SYSTEMS = ("ip", "generic_simplex", "double_ip")

WARNINGS_RE = re.compile(
    r"^warnings \(unmonitored non-core accesses\): (\d+)$", re.M)
ERRORS_RE = re.compile(
    r"^error dependencies: \d+ \((\d+) data, (\d+) control-only", re.M)

EDIT_DECL = "extern int sfbench_touch(int v);\n"


# ---------------------------------------------------------------- build

def build():
    """Configures and builds incrementally (a no-op when up to date);
    fails loudly."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "perfbench-build.log"), "w") as out:
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=out, stderr=subprocess.STDOUT)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                        "safeflow", "safeflowd", "sfbench"], check=True,
                       stdout=out, stderr=subprocess.STDOUT)


# ------------------------------------------------------------- verdicts

def parse_verdict(stdout, exit_code):
    w = WARNINGS_RE.search(stdout)
    e = ERRORS_RE.search(stdout)
    if w is None or e is None:
        return None
    return (int(w.group(1)), int(e.group(1)), int(e.group(2)), exit_code)


# --------------------------------------------------------------- inputs

class System:
    """One analysis request: a file set, its flags and its answer."""

    def __init__(self, name, files, flags):
        self.name = name
        self.files = files          # paths relative to the checkout root
        self.flags = flags
        self.expected = EXPECTED[name]
        self.base = {f: open(f).read() for f in files}
        self.edits = {}             # (file, line index) -> constant

    def edit_targets(self):
        """Function bodies an edit may touch: a line holding only '{'
        after a ')' line, skipping annotated (shminit/monitor)
        functions, whose annotation lines sit right above the brace."""
        targets = []
        for f in self.files:
            lines = self.base[f].split("\n")
            for i in range(1, len(lines)):
                if lines[i] != "{" or not lines[i - 1].rstrip().endswith(")"):
                    continue
                if any("Annotation" in l for l in lines[max(0, i - 4):i]):
                    continue
                targets.append((f, i))
        return targets

    def apply_edit(self, target, constant):
        """Gives one function a constant never used before in this run:
        new body bytes, so its summary key and the whole-result cache key
        are both new. Earlier edits stay in place."""
        self.edits[target] = constant
        f = target[0]
        lines = self.base[f].split("\n")
        for (ef, line), c in sorted(self.edits.items(), reverse=True):
            if ef == f:
                lines.insert(line + 1,
                             "    int sfbench_edit = sfbench_touch(%d);" % c)
        with open(f, "w") as out:
            out.write(EDIT_DECL + "\n".join(lines))


def make_systems(workload, inputs_dir):
    os.makedirs(inputs_dir)
    if workload in ("taint_cycles", "pointer_churn"):
        path = os.path.join(inputs_dir, workload + ".c")
        subprocess.run([SFBENCH, "gen", workload, path], check=True)
        return [System(workload, [path], [])]
    systems = []
    for name in PAPER_SYSTEMS:
        src = os.path.join("corpus", name)
        dst = os.path.join(inputs_dir, name)
        shutil.copytree(os.path.join(src, "common"),
                        os.path.join(dst, "common"))
        shutil.copytree(os.path.join(src, "core"), os.path.join(dst, "core"))
        core = os.path.join(dst, "core")
        files = sorted(os.path.join(core, f) for f in os.listdir(core)
                       if f.endswith(".c"))
        systems.append(System(name, files, ["-I", os.path.join(dst, "common"),
                                            "--kill-critical"]))
    return systems


# ------------------------------------------------------------------ ops

class Op:
    """`seconds` is the latency sample: the measured time, or the op's
    deadline when the op failed. `elapsed` is always the measured time."""
    __slots__ = ("kind", "elapsed", "seconds", "ok", "rss_mb", "reply")

    def __init__(self, kind, elapsed, ok, rss_mb=None, reply=None):
        self.kind, self.elapsed, self.ok = kind, elapsed, ok
        self.seconds = elapsed if ok else OP_DEADLINE_S
        self.rss_mb, self.reply = rss_mb, reply


def cli_op(kind, system, work, extra=()):
    """One-shot safeflow process, spawn to exit, rusage via wait4."""
    out_path = os.path.join(work, "cli.out")
    argv = [SAFEFLOW] + list(extra) + system.flags + system.files
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(OP_DEADLINE_S, proc.kill)
        timer.start()
        _, status, rusage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        verdict = parse_verdict(f.read(), proc.returncode)
    ok = verdict == system.expected and seconds < OP_DEADLINE_S
    return Op(kind, seconds, ok, rss_mb=rusage.ru_maxrss / 1024.0)


class Daemon:
    """A fresh safeflowd on a fresh cache dir, defaults otherwise."""

    def __init__(self, work):
        self.sock = os.path.join(work, "sfd.sock")
        self.log = open(os.path.join(work, "safeflowd.log"), "wb")
        self.proc = subprocess.Popen(
            [os.path.abspath(SAFEFLOWD), "--socket", "sfd.sock",
             "--cache-dir", os.path.abspath(os.path.join(work, "cache"))],
            cwd=work, stdout=self.log, stderr=self.log)
        deadline = time.monotonic() + 10.0
        while True:
            try:
                self.request({"safeflowd": 1, "op": "status"}, 1.0)
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("safeflowd did not come up")
                time.sleep(0.01)

    def request(self, doc, timeout):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(timeout)
            s.connect(self.sock)
            s.sendall((json.dumps(doc) + "\n").encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
        return json.loads(data)

    @staticmethod
    def flags(system):
        """safeflowd resolves paths against its own working directory."""
        return [os.path.abspath(f) if i > 0 and system.flags[i - 1] == "-I"
                else f for i, f in enumerate(system.flags)]

    def analyze(self, system):
        return self.request({"safeflowd": 1, "op": "analyze",
                             "files": [os.path.abspath(f)
                                       for f in system.files],
                             "flags": Daemon.flags(system),
                             "deadline_ms": int(OP_DEADLINE_S * 1000)},
                            OP_DEADLINE_S)

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request({"safeflowd": 1, "op": "shutdown"}, 5.0)
            except (OSError, ValueError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def daemon_op(kind, daemon, system):
    t0 = time.perf_counter()
    try:
        reply = daemon.analyze(system)
    except (OSError, ValueError):
        return Op(kind, OP_DEADLINE_S, False)
    seconds = time.perf_counter() - t0
    verdict = None
    if reply.get("status") == "ok":
        verdict = parse_verdict(reply.get("stdout", ""),
                                reply.get("exit_code"))
    ok = verdict == system.expected and seconds < OP_DEADLINE_S
    return Op(kind, seconds, ok, reply=reply)


# ------------------------------------------------------------- workload

class Session:
    """Fresh per-run state: inputs, a daemon (or CLI cache) and the
    seeded op sequence. Every run replays the same sequence for a seed,
    so state growth within a session is identical run to run."""

    def __init__(self, workload, seed, work, daemon_for_edits):
        self.work = work
        os.makedirs(work)
        self.systems = make_systems(workload, os.path.join(work, "inputs"))
        rng = random.Random(seed)
        self.targets = [(s, t) for s in self.systems for t in s.edit_targets()]
        rng.shuffle(self.targets)
        self.next_edit = 0
        self.next_cold = rng.randrange(len(self.systems))
        self.edited = self.systems[0]
        # The paper corpora are multi-file programs. safeflowd shards a
        # request per file, which loses the cross-file shm wiring and
        # answers "clean" (see README.md, baseline findings), so their
        # incremental ops use the CLI's whole-program result cache and
        # summary store instead; the traced run still checks the daemon.
        self.daemon = Daemon(work) if daemon_for_edits else None
        self.cli_cache = ["--cache-dir", os.path.join(work, "clicache"),
                          "--summaries"]

    def incremental_op(self, kind, system):
        if self.daemon is not None:
            return daemon_op(kind, self.daemon, system)
        return cli_op(kind, system, self.work, self.cli_cache)

    def prime(self):
        return [self.incremental_op("prime", s) for s in self.systems]

    def cold(self):
        system = self.systems[self.next_cold % len(self.systems)]
        self.next_cold += 1
        return cli_op("cold", system, self.work)

    def edit(self):
        system, target = self.targets[self.next_edit % len(self.targets)]
        self.next_edit += 1
        system.apply_edit(target, 1000 + self.next_edit)
        self.edited = system
        return self.incremental_op("edit", system)

    def warm(self):
        return self.incremental_op("warm", self.edited)

    def close(self):
        if self.daemon is not None:
            self.daemon.stop()


def setup(workload, seed, work, daemon_for_edits):
    """Everything before the first timed op: inputs, a fresh daemon on a
    fresh cache dir, and one untimed op of each kind."""
    t0 = time.perf_counter()
    session = Session(workload, seed, work, daemon_for_edits)
    try:
        ops = session.prime()
        ops += [session.edit(), session.warm(), session.cold()]
    except BaseException:
        session.close()
        raise
    return session, time.perf_counter() - t0, ops


def read_steal():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def tail_percentile(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(round(p * n, 6)))
        if n - rank >= 10:
            best = (p, xs[rank - 1], n - rank)
    return best


def describe(name, unit, samples):
    line = "%-16s median %.6g %s (n=%d)" % (
        name, statistics.median(samples), unit, len(samples))
    tail = tail_percentile(samples)
    if tail is None:
        return line + "; no percentile has 10 samples beyond it"
    p, value, beyond = tail
    return line + "; p%g %.6g %s (%d samples beyond)" % (
        p * 100, value, unit, beyond)


def measure(workload, seed, seconds, work):
    daemon_for_edits = workload != "paper_corpora"
    setups, failed_setup = [], 0
    session = None
    for i in range(SETUP_REPEATS):
        if session is not None:
            session.close()
        session, took, ops = setup(workload, seed,
                                   os.path.join(work, "s%d" % i),
                                   daemon_for_edits)
        setups.append(took)
        failed_setup += sum(not op.ok for op in ops)
    ops = []
    try:
        steal0, total0 = read_steal()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            ops.append(session.cold())
            ops.append(session.edit())
            for _ in range(WARM_OPS_PER_ROUND):
                ops.append(session.warm())
        wall = time.perf_counter() - t0
        steal1, total1 = read_steal()
    finally:
        session.close()

    by_kind = {k: [op for op in ops if op.kind == k]
               for k in ("cold", "edit", "warm")}
    cold_s = [op.seconds for op in by_kind["cold"]]
    edit_ms = [op.seconds * 1e3 for op in by_kind["edit"]]
    warm_ms = [op.seconds * 1e3 for op in by_kind["warm"]]
    rss = [op.rss_mb for op in by_kind["cold"] if op.ok]
    failed = sum(not op.ok for op in ops)
    steal = (steal1 - steal0) / max(1, total1 - total0)
    print("workload %s seed %d: %d ops in %.3f s wall, host steal share "
          "%.4f, %d failed (+%d in set-up)" % (
              workload, seed, len(ops), wall, steal, failed, failed_setup))
    print(describe("cold_verdict_s", "s", cold_s))
    print(describe("edit_verdict_ms", "ms", edit_ms))
    print(describe("warm_verdict_ms", "ms", warm_ms))
    if rss:
        print(describe("peak_rss_mb", "MB", rss))
    print(describe("setup_s", "s", setups))
    metrics = {
        "cold_verdict_s": (statistics.median(cold_s), "s"),
        "edit_verdict_ms": (statistics.median(edit_ms), "ms"),
        "warm_verdict_ms": (statistics.median(warm_ms), "ms"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return failed == 0 and failed_setup == 0, len(ops), failed, metrics


# ---------------------------------------------------------------- trace

def traced(workload, seed, seconds, work):
    """Per-layer run: daemon-side figures from a short closed loop, then
    sfbench's traced pipeline on the cold and one edited input."""
    paper = workload == "paper_corpora"
    session, _, ops = setup(workload, seed, os.path.join(work, "s"), True)
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds / 2:
            ops.append(session.edit())
            ops += [session.warm() for _ in range(WARM_OPS_PER_ROUND)]
        status = session.daemon.request({"safeflowd": 1, "op": "status"},
                                        5.0)
    finally:
        session.close()
    daemon_ops = [op for op in ops if op.reply is not None]
    # Known-wrong daemon answers on the multi-file corpora are counted,
    # not hidden; any other failed op fails the run.
    wrong = sum(not op.ok for op in daemon_ops)
    failed = sum(not op.ok for op in ops if op.reply is None or not paper)
    counters = status.get("counters", {})
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    daemon = {
        "warm_ms": [op.elapsed * 1e3 for op in daemon_ops
                    if op.kind == "warm"],
        "workers_per_request": statistics.mean(
            op.reply.get("workers_spawned", 0) for op in daemon_ops),
        "cache_hit_ratio": hits / max(1, hits + misses),
        "wrong": wrong,
        "daemon_ops": len(daemon_ops),
        "ops": len(ops),
        "failed": failed,
    }

    # The traced pipeline: pristine inputs and a copy with one edit.
    cold_sys = make_systems(workload, os.path.join(work, "trace-cold"))
    edit_sys = make_systems(workload, os.path.join(work, "trace-edit"))
    targets = edit_sys[0].edit_targets()
    edit_sys[0].apply_edit(
        targets[random.Random(seed).randrange(len(targets))], 999)
    spec = {
        "safeflow": SAFEFLOW,
        "cache_dir": os.path.join(session.work, "cache"),
        "inputs": [{"name": c.name, "flags": c.flags, "cold": c.files,
                    "edited": e.files,
                    "lookup": [os.path.abspath(f) for f in d.files],
                    "lookup_flags": Daemon.flags(d)}
                   for c, e, d in zip(cold_sys, edit_sys, session.systems)],
    }
    spec_path = os.path.join(work, "trace-spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    # Each traced run is its own process in its own fresh directory, so
    # every run has the same heap history and allocation counts can be
    # compared exactly (see README.md).
    reps = []
    for i in range(TRACE_REPS):
        out = subprocess.run([SFBENCH, "trace", spec_path,
                              os.path.join(work, "trace-%d" % i)],
                             check=True, capture_output=True, text=True,
                             timeout=60)
        reps.append(json.loads(out.stdout))
    return reps, daemon, len(spec["inputs"])


def layer_metrics(workload, seed, seconds, work):
    reps, daemon, n_inputs = traced(workload, seed, seconds, work)

    def med(get):
        return statistics.median(get(r) for r in reps)

    problems = []
    if daemon["failed"]:
        problems.append("%d daemon-side ops failed" % daemon["failed"])
    mismatches = sorted({m for r in reps for m in r["mismatches"]})
    if mismatches:
        problems.append("traced report differs from SafeFlowDriver's: %s"
                        % ", ".join(mismatches))
    # Exact work and allocation counts repeat across traced runs.
    for key in ("allocs", "alloc_bytes", "counters"):
        for i, r in enumerate(reps[1:], 1):
            diff = {k: (reps[0][key].get(k), v) for k, v in r[key].items()
                    if reps[0][key].get(k) != v}
            if diff:
                problems.append("%s differ between traced runs 0 and %d: %s"
                                % (key, i, diff))
    for r in reps:
        if abs(r["self_sum_s"] - r["pipeline_total_s"]) > \
                1e-6 * r["pipeline_total_s"] + 1e-9:
            problems.append("layer self times do not sum to the total")

    r0 = reps[0]
    m = {}
    for layer in ("frontend", "lowering", "ssa", "callgraph", "shm_regions",
                  "ranges", "shm_propagation", "restrictions", "pointsto",
                  "taint", "report"):
        m[layer + ".self_s"] = (med(lambda r: r["self_s"].get(layer, 0.0)),
                                "s")
    for layer in ("frontend", "lowering", "ssa", "ranges", "pointsto",
                  "taint"):
        m[layer + ".allocs"] = (r0["allocs"].get(layer, 0), "count")
    for layer in ("pointsto", "taint"):
        m[layer + ".alloc_mb"] = (r0["alloc_bytes"].get(layer, 0) / 2**20,
                                  "MB")
    c = r0["counters"]
    m["frontend.tokens"] = (c["frontend.tokens"], "count")
    m["ssa.phis_inserted"] = (c["ssa.phis_inserted"], "count")
    m["ranges.function_analyses"] = (c["ranges.function_analyses"], "count")
    m["shm_propagation.iterations"] = (c["shm_propagation.iterations"],
                                       "count")
    m["pointsto.worklist_iterations"] = (c["pointsto.worklist_iterations"],
                                         "count")
    m["pointsto.points_to_edges"] = (c["alias.points_to_edges"], "count")
    m["taint.body_analyses"] = (c["taint.body_analyses"], "count")
    m["taint.sweep_rounds"] = (c["taint.sweep_rounds"], "count")
    m["summary_store.recover_s"] = (
        med(lambda r: r["summary_store"]["recover_s"]), "s")
    store = r0["summary_store"]
    m["summary_store.hit_ratio"] = (store["hit_ratio"], "ratio")
    m["summary_store.spliced"] = (store["spliced"], "count")
    m["summary_store.entries"] = (store["entries"], "count")
    m["summary_store.bytes"] = (store["bytes"], "bytes")
    lookup_ms = statistics.median(
        x for r in reps for x in r["cache_lookup_ms"])
    m["cache.lookup_ms"] = (lookup_ms, "ms")
    m["cache.hit_ratio"] = (daemon["cache_hit_ratio"], "ratio")
    m["supervisor.workers_per_request"] = (daemon["workers_per_request"],
                                           "count")
    m["supervisor.spawn_ms"] = (
        statistics.median(x for r in reps for x in r["spawn_ms"]), "ms")
    m["daemon.overhead_ms"] = (
        statistics.median(daemon["warm_ms"]) - lookup_ms, "ms")
    m["daemon.wrong_verdict_ratio"] = (
        daemon["wrong"] / daemon["daemon_ops"], "ratio")
    traced_s = med(lambda r: r["pipeline_total_s"])
    m["pipeline.traced_s"] = (traced_s, "s")
    m["pipeline.untraced_s"] = (med(lambda r: r["driver_s"]), "s")
    for p in problems:
        print("CHECK FAILED: " + p)
    print("traced pipeline %.6g s vs untraced driver %.6g s; %d of %d daemon "
          "verdicts differ from the expected answer" % (
              traced_s, m["pipeline.untraced_s"][0], daemon["wrong"],
              daemon["daemon_ops"]))
    # Each rep runs three traced pipelines (cold, prime, edit) per input.
    attempted = daemon["ops"] + 3 * len(reps) * n_inputs
    return not problems, attempted, len(problems), m


# ----------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("taint_cycles", "pointer_churn",
                                 "paper_corpora"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build()
    # A fixed, relative work path: the traced inputs' paths, and with
    # them the allocation counts, do not depend on where the checkout is.
    work = os.path.join(WORK_PARENT, "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            ok, attempted, failed, metrics = layer_metrics(
                args.workload, args.seed, args.seconds, work)
        else:
            ok, attempted, failed, metrics = measure(
                args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_PARENT)
        except OSError:
            pass
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
