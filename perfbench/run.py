#!/usr/bin/env python3
"""Benchmark runner for the kp solver (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

It builds `kp` and the in-process helper `perfbench/probe.exe` from source
into .bench_build/, generates every input from --seed, runs the workload for
--seconds on the default configuration, checks every answer against values
planted by the generator, and prints a human-readable report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones.  Run records and
benchmark-side spans go to .bench_out/.
"""

import argparse
import json
import math
import operator
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
KP = os.path.join(BUILD_DIR, "default", "bin", "kp.exe")
PROBE = os.path.join(BUILD_DIR, "default", "perfbench", "probe.exe")
SOCK = os.path.join(OUT_DIR, "serve.sock")
P = 998244353
OP_TIMEOUT_S = 60

# one-shot CLI workloads: (op, n, planted rank or None)
CLI_OPS = {
    "oneshot": {"prime": P, "ops": [("solve", 512, None), ("det", 32, None), ("rank", 24, 16)]},
    "gf2": {"prime": 2, "ops": [("solve", 256, None)]},
}
SERVE_N = 64
SERVE_KEYS = 2
SERVE_CONNS = 2
SERVE_BATCH_EVERY = 5  # 1 request in 5 is a keyed batch
SERVE_BATCH = 4
SETUP_REPEATS = 3
SPARSE_N = 1000

END_TO_END = {
    "solve_s": "s", "mix_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.overhead_s": "s",
    "kernel.matvec_us": "us", "kernel.calls_per_op": "count", "kernel.ops_per_call": "count",
    "kernel.cstub_share": "ratio",
    "matrix.sparse_matvec_us": "us", "matrix.blackbox_applies_per_op": "count",
    "precond.butterfly_apply_us": "us", "precond.dense_det_ms": "ms",
    "precond.build_us.dense": "us", "precond.build_us.sparse": "us", "precond.build_us.ext": "us",
    "precond.demotions_per_op": "count",
    "structured.charpoly_ms": "ms", "seqgen.bm_ms": "ms",
    "core.det_hd_share": "ratio", "core.generator_share": "ratio", "core.krylov_share": "ratio",
    "robust.attempts_per_op": "count", "robust.yield": "ratio", "robust.escalations_per_op": "count",
    "session.build_s": "s", "session.keyed_solve_ms": "ms", "session.hit_ratio": "ratio",
    "serve.parse_us": "us", "serve.overhead_ms": "ms", "serve.shed_share": "ratio",
    "obs.span_ns": "ns", "obs.trace_overhead_share": "ratio",
}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- tracing

class Trace:
    """Benchmark-side spans, kept in memory and written when the run ends."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.polls = []
        self.origin = time.perf_counter_ns()
        self.lock = threading.Lock()

    def span(self, name, trace_id, t0, t1):
        if self.enabled:
            with self.lock:
                self.spans.append({"name": name, "trace": trace_id, "parent": None,
                                   "start_ns": t0 - self.origin, "end_ns": t1 - self.origin})

    def extend(self, name, spans):
        if self.enabled:
            with self.lock:
                self.spans.extend(dict(s, parent=name) for s in spans)


# ---------------------------------------------------------------- processes

def run_proc(cmd, timeout=OP_TIMEOUT_S, tag="op"):
    """Run one program to completion.  Returns (wall_s, exit_code,
    stdout, stderr, maxrss_kb, timed_out); output goes through files in
    OUT_DIR so large replies cannot block a pipe."""
    out_path = os.path.join(OUT_DIR, tag + ".out")
    err_path = os.path.join(OUT_DIR, tag + ".err")
    killed = []
    with open(out_path, "w+") as fo, open(err_path, "w+") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe)

        def kill():
            killed.append(True)
            proc.kill()
        timer = threading.Timer(timeout, kill)
        timer.start()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return wall, proc.returncode, fo.read(), fe.read(), ru.ru_maxrss, bool(killed)


def build():
    if not os.path.isfile(os.path.join("bin", "kp.ml")) or not os.path.isfile("dune-project"):
        die("run from the root of a kp source checkout (bin/kp.ml and dune-project not found)")
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    r = subprocess.run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                        "--display", "quiet", "./bin/kp.exe", "./perfbench/probe.exe"],
                       env=env, capture_output=True, text=True, timeout=870)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def run_record():
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    _, _, kernels, _, _, _ = run_proc([KP, "kernels"], tag="kernels")
    resolution = [l.strip() for l in kernels.splitlines()
                  if l.startswith("dispatch mode") or l.startswith("kp --prime")]
    return {"commit": commit, "nproc": os.cpu_count(), "kernels": resolution}


# ---------------------------------------------------------------- inputs

def rng_for(*parts):
    return random.Random("/".join(str(p) for p in parts))


def matvec(a, x, p):
    return [sum(map(operator.mul, row, x)) % p for row in a]


def matmul(a, b, p):
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) % p for col in bt] for row in a]


def planted_ldu(rng, n, p, rank=None):
    """A = L·D·U with L unit lower, U unit upper and D diagonal with `rank`
    nonzero entries (all n by default): rank(A) = rank(D), det(A) = ∏ D."""
    r = n if rank is None else rank
    d = [rng.randrange(1, p) if i < r else 0 for i in range(n)]
    low = [[rng.randrange(p) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    up = [[rng.randrange(p) * d[i] % p if j > i else (d[i] if i == j else 0)
           for j in range(n)] for i in range(n)]
    det = 1
    for v in d:
        det = det * v % p
    return matmul(low, up, p), det, r


def gf2_nonsingular(rng, n):
    """A = L·U over GF(2), rows as bit masks (bit j = column j)."""
    up = [(rng.getrandbits(n) >> (i + 1) << (i + 1)) | (1 << i) for i in range(n)]
    rows = []
    for i in range(n):
        lmask = rng.getrandbits(i) if i else 0
        row = up[i]
        k = 0
        while lmask:
            if lmask & 1:
                row ^= up[k]
            lmask >>= 1
            k += 1
        rows.append(row)
    return rows


def write_matrix(path, rows, b=None):
    with open(path, "w") as f:
        f.write("%d\n" % len(rows))
        for row in rows:
            f.write(" ".join(map(str, row)))
            f.write("\n")
        if b is not None:
            f.write(" ".join(map(str, b)))
            f.write("\n")


def make_cli_input(workload, seed, i, op, n, rank, p):
    """Write the matrix file for op i; return the planted answer."""
    rng = rng_for(workload, seed, i)
    path = os.path.join(OUT_DIR, "matrix.txt")
    if op == "solve" and p == 2:
        masks = gf2_nonsingular(rng, n)
        xbits = rng.getrandbits(n)
        b = [bin(m & xbits).count("1") & 1 for m in masks]
        rows = [[(m >> j) & 1 for j in range(n)] for m in masks]
        write_matrix(path, rows, b)
        return [(xbits >> j) & 1 for j in range(n)]
    if op == "solve":
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        x = [rng.randrange(p) for _ in range(n)]
        write_matrix(path, a, matvec(a, x, p))
        return x
    a, det, r = planted_ldu(rng, n, p, rank)
    write_matrix(path, a)
    return det if op == "det" else r


# ---------------------------------------------------------------- oracle

SOL_RE = re.compile(r"^\s+x_(\d+) = (\d+)\s*$", re.M)
DET_RE = re.compile(r"^det = (\d+)", re.M)
RANK_RE = re.compile(r"^rank = (\d+)", re.M)


def check_cli(op, out, want):
    """None if the kp output carries the planted answer, else why not."""
    if op == "solve":
        got = {int(i): int(v) for i, v in SOL_RE.findall(out)}
        x = [got.get(i) for i in range(len(want))]
        if x != want:
            bad = next(i for i in range(len(want)) if x[i] != want[i])
            return "x_%d = %s, planted %d" % (bad, x[bad], want[bad])
        return None
    m = (DET_RE if op == "det" else RANK_RE).search(out)
    if m is None:
        return "no %s in output" % op
    if int(m.group(1)) != want:
        return "%s = %s, planted %d" % (op, m.group(1), want)
    return None


def check_reply(reply, want):
    """None if a serve reply carries the planted solution(s)."""
    if reply.get("status") != "ok":
        return "status %s: %s" % (reply.get("status"), json.dumps(reply.get("error") or reply.get("detail")))
    if isinstance(want[0], list):
        return None if reply.get("xs") == want else "xs differ from planted"
    return None if reply.get("x") == want else "x differs from planted"


class Ledger:
    """Every checked op: latency samples by kind and failures by seed."""

    def __init__(self, seed):
        self.seed = seed
        self.samples = {}
        self.failures = []
        self.attempted = 0
        self.lock = threading.Lock()

    def record(self, kind, seconds, failure, traced=False):
        with self.lock:
            self.attempted += 1
            if failure is None:
                self.samples.setdefault((kind, traced), []).append(seconds)
            else:
                self.failures.append({"seed": self.seed, "op": kind, "detail": failure})

    def times(self, kind, traced=False):
        return self.samples.get((kind, traced), [])


def med(xs):
    return statistics.median(xs) if xs else float("nan")


# ---------------------------------------------------------------- one-shot CLI workloads

def kp_setup_s(k):
    """Fixed cost of every CLI op: k kp invocations that do no linear
    algebra."""
    return [run_proc([KP, "precond"], tag="setup")[0] for _ in range(k)]


def stats_of(out):
    last = out.strip().splitlines()[-1] if out.strip() else ""
    try:
        return json.loads(last)
    except ValueError:
        return None


class LayerAcc:
    """Counters and spans the program exports, summed over traced ops."""

    def __init__(self):
        self.counters = {}
        self.spans = {}
        self.ops = 0
        self.cli_overhead = []

    def add_counters(self, counters):
        for k, v in counters.items():
            self.counters[k] = self.counters.get(k, 0) + v

    def add_spans(self, spans):
        for s in spans:
            self.spans[s["path"]] = self.spans.get(s["path"], 0) + s["total_ns"]

    def add_cli_overhead(self, st, wall):
        """kp wall time minus its top-level spans."""
        root_ns = sum(s["total_ns"] for s in st["spans"] if "/" not in s["path"])
        self.cli_overhead.append(wall - root_ns / 1e9)


def run_cli_op(workload, ledger, acc, trace, seed, i, op, n, rank, p, traced):
    want = make_cli_input(workload, seed, i, op, n, rank, p)
    cmd = [KP, op, "--matrix", os.path.join(OUT_DIR, "matrix.txt")]
    if p != P:
        cmd += ["--prime", str(p)]
    if traced:
        cmd.append("--stats=json")
    t0 = time.perf_counter_ns()
    wall, rc, out, err, rss, timed_out = run_proc(cmd)
    trace.span("cli." + op, i, t0, time.perf_counter_ns())
    if timed_out:
        failure = "timeout after %d s" % OP_TIMEOUT_S
    elif rc != 0:
        failure = "exit %d: %s" % (rc, (err.strip().splitlines() or [""])[-1])
    else:
        failure = check_cli(op, out, want)
    ledger.record(op, wall, failure, traced)
    if traced and failure is None:
        st = stats_of(out)
        if st is not None:
            acc.add_counters(st["counters"])
            acc.add_spans(st["spans"])
            acc.add_cli_overhead(st, wall)
            acc.ops += 1
    return rss


def cli_workload(name, seed, seconds, trace_on, trace):
    spec = CLI_OPS[name]
    ledger, acc = Ledger(seed), LayerAcc()
    setup = kp_setup_s(11)
    peak_kb = 0
    ops = spec["ops"]
    t_start = time.perf_counter()
    i = cycle = 0
    # at least one full cycle (two when traced: one traced, one untraced)
    min_cycles = 2 if trace_on else 1
    while cycle < min_cycles or time.perf_counter() - t_start < seconds:
        traced = trace_on and cycle % 2 == 1
        # set-up samples spread over the run, so one slow moment cannot
        # decide their median
        setup += kp_setup_s(3)
        for op, n, rank in ops:
            peak_kb = max(peak_kb, run_cli_op(name, ledger, acc, trace, seed, i, op, n, rank,
                                              spec["prime"], traced))
            i += 1
        cycle += 1
    return ledger, acc, {"setup_s": setup, "peak_kb": peak_kb, "kinds": [op for op, _, _ in ops]}


# ---------------------------------------------------------------- serve

class Conn:
    def __init__(self):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(SOCK)
        self.rfile = self.sock.makefile("r")

    def request(self, obj):
        self.sock.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())
        line = self.rfile.readline()
        if not line:
            raise EOFError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.rfile.close()
        self.sock.close()


class Daemon:
    """One `kp serve` process with default flags on a socket in OUT_DIR."""

    def __init__(self):
        if os.path.exists(SOCK):
            os.unlink(SOCK)
        self.log = open(os.path.join(OUT_DIR, "serve.log"), "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([KP, "serve", "--socket", SOCK],
                                     stdout=self.log, stderr=self.log)
        deadline = self.t0 + 30
        while True:
            try:
                c = Conn()
                if c.request({"id": "ping", "op": "ping"}).get("status") == "ok":
                    c.close()
                    return
                c.close()
            except (OSError, EOFError, ValueError):
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.stop()
                die("kp serve did not answer ping")
            time.sleep(0.005)

    def vmhwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def serve_key(seed, j, n):
    rng = rng_for("serve-key", seed, j)
    a, _, _ = planted_ldu(rng, n, P)
    return a


def planted_rhs(rng, a, k):
    xs = [[rng.randrange(P) for _ in range(len(a))] for _ in range(k)]
    return xs, [matvec(a, x, P) for x in xs]


def serve_setup(seed, keys, n, ledger):
    """Spawn the daemon, wait for ping, register every key with an inline
    solve.  Returns (daemon, setup seconds, registration latencies)."""
    d = Daemon()
    builds = []
    try:
        c = Conn()
        for j, a in enumerate(keys):
            (x,), (b,) = planted_rhs(rng_for("serve-reg", seed, j), a, 1)
            req = {"id": "reg%d" % j, "op": "solve", "n": n, "key": "k%d" % j,
                   "a": [v for row in a for v in row], "b": b}
            t0 = time.perf_counter()
            reply = c.request(req)
            builds.append(time.perf_counter() - t0)
            ledger.record("register", builds[-1], check_reply(reply, x))
        c.close()
    except BaseException:
        d.stop()
        raise
    return d, time.perf_counter() - d.t0, builds


def serve_load(seed, keys, seconds, conns, batch_every, ledger, trace, trace_on):
    """Closed loop: each connection sends its next request when the last
    reply arrives.  With tracing on, odd 1-second slots are traced: spans
    per request and a metrics poll each slot."""
    stop_at = time.perf_counter() + seconds
    counts = []

    def client(t):
        c = Conn()
        rng = rng_for("serve-load", seed, t)
        done = last_poll = 0
        k = 0
        try:
            while time.perf_counter() < stop_at:
                j = k % len(keys)
                batch = batch_every and k % batch_every == batch_every - 1
                xs, bs = planted_rhs(rng, keys[j], SERVE_BATCH if batch else 1)
                if batch:
                    req = {"id": "t%d-%d" % (t, k), "op": "batch", "key": "k%d" % j, "bs": bs}
                    want = xs
                else:
                    req = {"id": "t%d-%d" % (t, k), "op": "solve", "key": "k%d" % j, "b": bs[0]}
                    want = xs[0]
                now = time.perf_counter()
                traced = trace_on and int(now - (stop_at - seconds)) % 2 == 1
                if traced and t == 0 and now - last_poll > 1.0:
                    trace.polls.append(c.request({"id": "poll", "op": "metrics"}))
                    last_poll = now
                t0 = time.perf_counter_ns()
                reply = c.request(req)
                t1 = time.perf_counter_ns()
                kind = "batch" if batch else "solve"
                if traced:
                    trace.span("serve." + kind, req["id"], t0, t1)
                failure = check_reply(reply, want)
                ledger.record(kind, (t1 - t0) / 1e9, failure, traced)
                done += failure is None
                k += 1
        except (OSError, EOFError, ValueError) as e:
            ledger.record("connection", 0.0, "%s: %s" % (type(e).__name__, e))
        finally:
            c.close()
            counts.append(done)

    threads = [threading.Thread(target=client, args=(t,)) for t in range(conns)]
    t_start = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return sum(counts) / (time.perf_counter() - t_start)


def serve_session(seed, seconds, ledger, trace, trace_on, n_keys, conns, batch_every,
                  setup_repeats):
    keys = [serve_key(seed, j, SERVE_N) for j in range(n_keys)]
    setups, builds = [], []
    for r in range(setup_repeats):
        d, s, b = serve_setup(seed, keys, SERVE_N, ledger)
        setups.append(s)
        builds += b
        if r < setup_repeats - 1:
            d.stop()
    try:
        rps = serve_load(seed, keys, seconds, conns, batch_every, ledger, trace, trace_on)
        c = Conn()
        metrics = c.request({"id": "m", "op": "metrics"})
        c.close()
        peak_kb = d.vmhwm_kb()
    finally:
        d.stop()
    return {"setup_s": setups, "builds": builds, "rps": rps, "peak_kb": peak_kb,
            "counters": metrics.get("counters", {})}


def serve_workload(seed, seconds, trace_on, trace):
    ledger, acc = Ledger(seed), LayerAcc()
    s = serve_session(seed, seconds, ledger, trace, trace_on, SERVE_KEYS, SERVE_CONNS,
                      SERVE_BATCH_EVERY, SETUP_REPEATS)
    acc.add_counters(s["counters"])
    acc.ops = s["counters"].get("serve.admitted", 0)
    s["kinds"] = ["solve", "batch"]
    return ledger, acc, s


# ---------------------------------------------------------------- sparse (in-process)

def probe_json(args, tag):
    wall, rc, out, err, _, timed_out = run_proc([PROBE] + args, timeout=170, tag=tag)
    if rc != 0 or timed_out:
        die("probe %s failed: %s" % (" ".join(args), err.strip()))
    return json.loads(out.strip().splitlines()[-1])


def sparse_workload(seed, seconds, trace_on, trace):
    ledger, acc = Ledger(seed), LayerAcc()
    sized = ["sparse", "--seed", str(seed), "--n", str(SPARSE_N)]
    setups = [probe_json(sized + ["--setup-only"], "sparse")["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    r = probe_json(sized + ["--seconds", str(seconds),
                    "--trace", "1" if trace_on else "0"], "sparse")
    setups.append(r["setup_s"])
    ledger.record("warmup", r["setup_s"], None if r["warmup_verdict"] == "ok" else "warm-up op failed")
    for op in r["ops"]:
        failure = None if op["verdict"] == "ok" else "%s: %s" % (op["verdict"], op["detail"])
        ledger.record(op["kind"], op["seconds"], failure, op["traced"])
    if trace_on:
        acc.add_counters(r["counters"])
        acc.add_spans(r["spans"])
        acc.ops = len(r["ops"])
        trace.extend("probe.sparse", r["bench_spans"])
    return ledger, acc, {"setup_s": setups, "peak_kb": r["vmhwm_kb"], "kinds": ["solve", "det"]}


# ---------------------------------------------------------------- metrics

def end_to_end(name, ledger, info):
    kinds = info["kinds"]
    solve = ledger.times("solve")
    ops = sum(len(ledger.times(k)) for k in kinds)
    if name == "serve":
        ops_per_s = info["rps"]
    else:
        ops_per_s = ops / sum(sum(ledger.times(k)) for k in kinds)
    samples = {"solve_s": len(solve), "mix_s": ops, "ops_per_s": ops,
               "setup_s": len(info["setup_s"]), "peak_rss_mb": 1}
    values = {
        "solve_s": med(solve),
        "mix_s": sum(med(ledger.times(k)) for k in kinds),
        "ops_per_s": ops_per_s,
        "setup_s": med(info["setup_s"]),
        "peak_rss_mb": info["peak_kb"] / 1024.0,
    }
    return values, samples


def per_op_metrics(name, ledger, info):
    """The per-op figures, by the names the workload table uses; printed in
    the report and stored in the run record."""
    out = {}
    for kind in info["kinds"]:
        if name != "serve" and kind != "solve":
            xs = ledger.times(kind)
            out[kind + "_s"] = (med(xs), "s", len(xs))
    if name == "serve":
        lat = sorted(ledger.times("solve") + ledger.times("batch"))
        out["serve_p50_ms"] = (1e3 * med(lat), "ms", len(lat))
        p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) >= 2 else float("nan")
        out["serve_p90_ms"] = (1e3 * p90, "ms", len(lat))
        out["serve_rps"] = (info["rps"], "1/s", len(lat))
    out["fail_share"] = (len(ledger.failures) / max(1, ledger.attempted), "ratio", ledger.attempted)
    return out


def mini_serve(seed, trace):
    """Serve and session layers for workloads that run no daemon: one key,
    one connection, keyed solves for 2 seconds."""
    ledger = Ledger(seed)
    s = serve_session(seed, 2, ledger, trace, False, 1, 1, 0, 1)
    return ledger, s


def per_layer(name, seed, ledger, acc, info, trace):
    prime = CLI_OPS.get(name, {}).get("prime", P)
    n = CLI_OPS[name]["ops"][0][1] if name in CLI_OPS else {"sparse": SPARSE_N, "serve": SERVE_N}[name]
    det_n = CLI_OPS["oneshot"]["ops"][1][1]
    probe = probe_json(["layers", "--prime", str(prime), "--n", str(n), "--det-n", str(det_n),
                        "--seed", str(seed)], "layers")
    trace.extend("probe.layers", probe["bench_spans"])
    for _ in range(probe["wrong"]):
        ledger.record("session.probe", 0.0, "in-process keyed solve differs from planted")
    m = dict(probe["metrics"])

    if name == "serve":
        serve_ledger, serve_info = ledger, info
    else:
        serve_ledger, serve_info = mini_serve(seed, trace)
        ledger.failures += serve_ledger.failures
        ledger.attempted += serve_ledger.attempted
    sc = serve_info["counters"]
    m["session.build_s"] = med(serve_info["builds"])
    hits, misses = sc.get("session.cache.hit", 0), sc.get("session.cache.miss", 0)
    m["session.hit_ratio"] = hits / max(1, hits + misses)
    m["serve.shed_share"] = sc.get("serve.shed", 0) / max(1, sc.get("serve.requests", 0))
    m["serve.overhead_ms"] = 1e3 * med(serve_ledger.times("solve")) - m["session.keyed_solve_ms"]

    if name in ("serve", "sparse"):
        # no CLI op in the workload: one `kp solve` on the n = 64 key matrix
        # measures the CLI layer (--session: the daemon's scalar-session rung)
        a = serve_key(seed, 0, SERVE_N)
        (x,), (b,) = planted_rhs(rng_for("cli-probe", seed), a, 1)
        write_matrix(os.path.join(OUT_DIR, "matrix.txt"), a, b)
        cmd = [KP, "solve", "--matrix", os.path.join(OUT_DIR, "matrix.txt"), "--stats=json"]
        if name == "serve":
            cmd.append("--session")
        wall, rc, out, err, _, timed_out = run_proc(cmd)
        failure = "exit %d" % rc if rc or timed_out else check_cli("solve", out, x)
        ledger.record("cli.probe", wall, failure)
        st = stats_of(out)
        if failure is None and st is not None:
            if name == "serve":
                acc.add_spans(st["spans"])
            acc.add_cli_overhead(st, wall)

    c, ops = acc.counters, max(1, acc.ops)
    calls = c.get("kernel.cstub.calls", 0)
    m["cli.overhead_s"] = med(acc.cli_overhead)
    m["kernel.calls_per_op"] = calls / ops
    m["kernel.ops_per_call"] = c.get("kernel.cstub.bulk_ops", 0) / max(1, calls)
    bulk = c.get("kernel.bulk_ops", 0)
    m["kernel.cstub_share"] = c.get("kernel.cstub.bulk_ops", 0) / bulk if bulk else 0.0
    if prime == P and bulk and m["kernel.cstub_share"] != 1.0:
        ledger.record("kernel.guard", 0.0, "kernel.cstub_share = %.4f on GF(%d), expected 1.0"
                      % (m["kernel.cstub_share"], P))
    m["matrix.blackbox_applies_per_op"] = c.get("blackbox.applies", 0) / ops
    m["precond.demotions_per_op"] = (c.get("precond.demote", 0) + c.get("serve.precond.demote", 0)) / ops
    attempts = sum(v for k, v in c.items() if k.endswith(".attempts"))
    successes = sum(v for k, v in c.items() if k.endswith(".successes"))
    m["robust.attempts_per_op"] = attempts / ops
    m["robust.yield"] = successes / attempts if attempts else 1.0
    m["robust.escalations_per_op"] = c.get("robust.escalations", 0) / ops
    root_ns = sum(v for k, v in acc.spans.items() if "/" not in k) or 1
    for short, span in (("det_hd", "pipeline.det_hd"), ("generator", "pipeline.generator"),
                        ("krylov", "pipeline.krylov")):
        m["core.%s_share" % short] = sum(v for k, v in acc.spans.items()
                                         if k.split("/")[-1] == span) / root_ns

    # tracing overhead: traced against untraced ops of this same run
    kinds = info["kinds"]
    untraced = sum(med(ledger.times(k)) for k in kinds)
    traced = sum(med(ledger.times(k, True)) for k in kinds)
    m["obs.trace_overhead_share"] = (traced - untraced) / untraced
    return m


# ---------------------------------------------------------------- main

WORKLOADS = {
    "oneshot": lambda seed, secs, tr, trace: cli_workload("oneshot", seed, secs, tr, trace),
    "gf2": lambda seed, secs, tr, trace: cli_workload("gf2", seed, secs, tr, trace),
    "serve": serve_workload,
    "sparse": sparse_workload,
}


def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that the oracle flags corrupted answers, then exit")
    args = ap.parse_args()
    for var in ("KP_KERNEL_BACKEND", "KP_PRECOND"):
        if var in os.environ:
            die("%s is set; the benchmark measures the default configuration only" % var)
    if not args.selftest and args.workload is None:
        die("--workload is required")
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.selftest:
        sys.exit(selftest())

    record = run_record()
    trace = Trace(args.trace == 1)
    name, seed = args.workload, args.seed
    ledger, acc, info = WORKLOADS[name](seed, args.seconds, args.trace == 1, trace)
    e2e, samples = end_to_end(name, ledger, info)
    per_op = per_op_metrics(name, ledger, info)
    if args.trace:
        layer = per_layer(name, seed, ledger, acc, info, trace)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    for k, v in metrics.items():
        if not math.isfinite(v["value"]):
            ledger.record("metrics", 0.0, "%s was not measured" % k)
            v["value"] = 0.0

    print("perfbench %s seed=%d seconds=%d trace=%d" % (name, seed, args.seconds, args.trace))
    print("  commit %s, nproc %d, %s" % (record["commit"], record["nproc"], "; ".join(record["kernels"])))
    for k, u in END_TO_END.items():
        print("  %-28s %12s %-6s n=%d" % (k, fmt(e2e[k]), u, samples[k]))
    for k, (v, u, cnt) in per_op.items():
        print("  %-28s %12s %-6s n=%d" % (k, fmt(v), u, cnt))
    if args.trace:
        for k, u in PER_LAYER.items():
            print("  %-28s %12s %s" % (k, fmt(metrics[k]["value"]), u))
    for f in ledger.failures:
        print("  FAILED seed=%d %s: %s" % (f["seed"], f["op"], f["detail"]))

    tag = "%s-s%d-t%d" % (name, seed, args.trace)
    with open(os.path.join(OUT_DIR, "record-%s.json" % tag), "w") as f:
        json.dump({"record": record, "workload": name, "seed": seed, "seconds": args.seconds,
                   "trace": args.trace, "metrics": metrics,
                   "samples": samples, "per_op": per_op, "failures": ledger.failures}, f,
                  indent=1)
    if args.trace:
        with open(os.path.join(OUT_DIR, "trace-%s.json" % tag), "w") as f:
            json.dump({"spans": trace.spans, "metrics_polls": trace.polls}, f)
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))


# ---------------------------------------------------------------- self-test

def selftest():
    """The oracle must pass true answers and flag a corrupted one."""
    ok = True

    def expect(label, cond):
        nonlocal ok
        print("  %-52s %s" % (label, "ok" if cond else "FAILED"))
        ok = ok and cond

    print("perfbench self-test")
    for op, n, rank in (("solve", 16, None), ("det", 12, None), ("rank", 12, 8)):
        want = make_cli_input("selftest", 0, 0, op, n, rank, P)
        _, rc, out, _, _, _ = run_proc([KP, op, "--matrix", os.path.join(OUT_DIR, "matrix.txt")])
        expect("kp %s n=%d passes the oracle" % (op, n), rc == 0 and check_cli(op, out, want) is None)
        if op == "solve":
            m = SOL_RE.search(out)
            i, v = m.group(1), int(m.group(2))
            bad = out.replace(m.group(0), m.group(0).replace("= %d" % v, "= %d" % ((v + 1) % P)), 1)
            expect("flipped x_%s is flagged" % i, check_cli(op, bad, want) is not None)
        else:
            bad = re.sub(r"= (\d+)", lambda g: "= %d" % (int(g.group(1)) + 1), out, count=1)
            expect("corrupted %s is flagged" % op, check_cli(op, bad, want) is not None)
    expect("corrupted serve reply is flagged",
           check_reply({"status": "ok", "x": [1, 2, 4]}, [1, 2, 3]) is not None
           and check_reply({"status": "ok", "x": [1, 2, 3]}, [1, 2, 3]) is None)
    # known-wrong answers over GF(2): reported here, not run as a workload
    wrong = {"det": 0, "rank": 0}
    for s in range(10):
        rng = rng_for("selftest-gf2", s)
        masks = gf2_nonsingular(rng, 24)
        write_matrix(os.path.join(OUT_DIR, "matrix.txt"), [[(m >> j) & 1 for j in range(24)] for m in masks])
        for op, want in (("det", 1), ("rank", 24)):
            _, rc, out, _, _, _ = run_proc([KP, op, "--matrix", os.path.join(OUT_DIR, "matrix.txt"),
                                            "--prime", "2"])
            wrong[op] += rc != 0 or check_cli(op, out, want) is not None
    print("  GF(2), n=24, 10 nonsingular inputs: det wrong on %d, rank wrong on %d"
          % (wrong["det"], wrong["rank"]))
    return 0 if ok else 1


if __name__ == "__main__":
    main()
