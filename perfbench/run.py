#!/usr/bin/env python3
"""Repository benchmark: `isf table all` and `isf serve`, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables|serve-cold|serve-warm \
        [--seed N] [--seconds S] [--trace 0|1]

It builds `isf` and the layer tracer from source with dune, generates the
workload from the seed, measures for about S seconds, checks every output
against a reference that does not come from the engine under test, and
prints one `name value unit` line per metric followed, as the last line,
by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones (perfbench/layers replays the workload through each
layer's public entry point and records spans).  A wrong output makes the
exit code 1.  perfbench/README.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ISF = os.path.join("_build", "default", "bin", "isf.exe")
EXPECTED_TABLES = os.path.join("perfbench", "expected", "table_all.txt")
OUT = os.path.join("perfbench", "out")
# perfbench/layers is a dune project of its own, kept out of the
# repository's build; it is built in a workspace that links its files
# beside the repository's lib/ (see tracer_workspace)
TRACER_SRC = os.path.join("perfbench", "layers")
TRACER_WS = os.path.join(OUT, "tracer")
LAYERS = os.path.join(TRACER_WS, "_build", "default", "layers.exe")

# `isf table all` and the reference runs use up to two domains.  Every
# measured daemon runs one worker domain: on a 2-vCPU machine two busy
# worker domains (each minor collection stops both) nearly doubled a cold
# pass's wall as soon as one other busy process shared the machine, while
# one worker domain was not slowed by it.
NPROC = max(1, min(2, os.cpu_count() or 1))
WORKERS = 1
# closed-loop windows (jobs outstanding).  serve-cold keeps one job per
# worker, so a job's latency is its service time plus the wire.  Most
# serve-warm jobs take about a millisecond, so with one job per worker the
# pass would time process wake-ups on a shared machine; eight per worker
# keep the worker busy and leave queue wait in the latency.
COLD_WINDOW = WORKERS
WARM_WINDOW = 8 * WORKERS
DEFAULT_SEED = 1

# Job slots: one per (benchmark, specs) pair of the fleet generator's
# vocabulary, read from its job stream, with the scale and the trigger fixed
# by the slot, so every (benchmark, scale) pair appears twice and every
# trigger, `always` with its heavy profiles too, covers a fifth of the slots.
# The seed picks each slot's transformation variants (the first jobs of the
# seed's fleet stream that fit the slot); two variants per slot halve the
# seed's sway over the cost mix.  Jobs go out in slot order, which spreads
# the heavy `always` slots evenly: in a seed-picked order they bunched up
# and moved the warm latency percentiles by 30% between seeds.
FLEET_STREAM = 30000  # generator jobs scanned to fill the slots
JOBS_PER_SLOT = 2  # jobs with distinct variants per slot
WARM_REPEATS = 8  # submissions of each serve-warm job per pass
PREFILLS = 2  # serve-warm cache fills per run; set-up reports their median

E2E = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("frontend.builds", "count"),
    ("frontend.ms", "ms"),
    ("frontend.lir_instrs", "count"),
    ("transform.ms", "ms"),
    ("transform.code_words", "count"),
    ("digest.ms", "ms"),
    ("cache.mem_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.corrupt", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("schedule.cells_requested", "count"),
    ("schedule.cells_unique", "count"),
    ("schedule.dedup_ratio", "ratio"),
    ("schedule.prewarm_s", "s"),
    ("tables.render_s", "s"),
    ("link.ms", "ms"),
    ("link.code_words", "count"),
    ("slots.ms", "ms"),
    ("exec.ms", "ms"),
    ("exec.ns_per_instr", "ns"),
    ("exec.instructions", "count"),
    ("exec.cycles", "count"),
    ("exec.checks", "count"),
    ("exec.samples", "count"),
    ("exec.instrument_ops", "count"),
    ("trace.record", "count"),
    ("trace.compile", "count"),
    ("trace.abort", "count"),
    ("trace.enter", "count"),
    ("trace.exit", "count"),
    ("trace.exit_ratio", "ratio"),
    ("trace.ns_per_instr", "ns"),
    ("decode.ms", "ms"),
    ("slots.events", "count"),
    ("report.ms", "ms"),
    ("render.ms", "ms"),
    ("payload.bytes", "bytes"),
    ("merge.ms", "ms"),
    ("merge.profiles_per_s", "1/s"),
    ("journal.append_us", "us"),
    ("journal.bytes", "bytes"),
    ("daemon.queue_max", "count"),
    ("wire.submit_batches", "count"),
    ("wire.result_batches", "count"),
    ("wire.overhead_ms", "ms"),
    ("reconcile.e2e_ms", "ms"),
    ("reconcile.layers_ms", "ms"),
    ("reconcile.remainder_ms", "ms"),
    ("tracing.overhead_ratio", "ratio"),
]

# span name -> per-job layer metric (self time, ms per job)
SPAN_LAYER = {
    "frontend": "frontend.ms",
    "jasm": "frontend.ms",
    "bytecode": "frontend.ms",
    "opt": "frontend.ms",
    "transform": "transform.ms",
    "digest": "digest.ms",
    "link": "link.ms",
    "slots": "slots.ms",
    "exec": "exec.ms",
    "decode": "decode.ms",
    "report": "report.ms",
    "render": "render.ms",
}


class BenchError(Exception):
    pass


def child_env():
    # the program reads ISF_CACHE and ISF_JOBS; the benchmark sets both
    # explicitly through flags
    return {k: v for k, v in os.environ.items() if not k.startswith("ISF_")}


def tracer_workspace():
    """Link the tracer project's files and the repository's lib/ into
    TRACER_WS, so the tracer builds against the libraries' sources."""
    os.makedirs(TRACER_WS, exist_ok=True)
    links = {f: os.path.join("..", "..", "layers", f)
             for f in os.listdir(TRACER_SRC) if f[0] not in "._"}
    links["lib"] = os.path.join("..", "..", "..", "lib")
    for name in os.listdir(TRACER_WS):
        if name not in links and name != "_build":
            os.remove(os.path.join(TRACER_WS, name))
    for name, target in links.items():
        path = os.path.join(TRACER_WS, name)
        if os.path.islink(path) and os.readlink(path) == target:
            continue
        if os.path.lexists(path):
            os.remove(path)
        os.symlink(target, path)


def dune_build(root, target):
    # dune's shared cache lives outside the checkout; keep it off
    env = dict(child_env(), DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", root, target],
                           capture_output=True, text=True, env=env,
                           timeout=420)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed: %s" % e)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr[-3000:])


def build():
    dune_build(".", "./bin/isf.exe")
    tracer_workspace()
    dune_build(TRACER_WS, "./layers.exe")
    if not (os.path.exists(ISF) and os.path.exists(LAYERS)):
        raise BenchError("build left no isf.exe or layers.exe")


def run_checked(cmd, **kw):
    r = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                       timeout=170, **kw)
    if r.returncode != 0:
        raise BenchError("%s exited %d:\n%s" % (" ".join(cmd), r.returncode,
                                               r.stderr[-2000:]))
    return r.stdout


def reap(proc):
    """Wait for a child and return (exit status, cpu seconds, peak RSS MB)."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return s[k]


# ---------------------------------------------------------------------------
# Workload generation and references
# ---------------------------------------------------------------------------

def job_field(line, key):
    for tok in line.split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1:]
    raise BenchError("job line without %s: %s" % (key, line))


def fleet_stream(seed, work):
    path = os.path.join(work, "fleet.txt")
    run_checked([ISF, "fleet", "--emit", path, "-n", str(FLEET_STREAM),
                 "--seed", str(seed), "--clients", "1"])
    with open(path) as f:
        return [l.rstrip("\n").split(" ", 1)[1] for l in f if l.strip()]


def slot_jobs(seed, work):
    """JOBS_PER_SLOT jobs with distinct variants per slot, the first ones the
    seed's fleet stream reaches: every slot's first job in slot order, then
    every slot's second.  Two variants can transform to the same code, so a
    slot's second job is submitted a whole round after its first: it is
    then a run-cache memory hit on every run, not a race with its twin."""
    stream = fleet_stream(seed, work)
    keys = ("bench", "scale", "specs", "trigger")
    fields = [tuple(job_field(line, k) for k in keys) for line in stream]
    benches, scales, specs, triggers = (sorted({f[k] for f in fields})
                                        for k in range(len(keys)))
    slots = [(b, scales[(i + j) % len(scales)], sp,
              triggers[(i + 2 * j) % len(triggers)])
             for i, b in enumerate(benches) for j, sp in enumerate(specs)]
    picked = {slot: {} for slot in slots}
    for line, slot in zip(stream, fields):
        chosen = picked.get(slot)
        if chosen is not None and len(chosen) < JOBS_PER_SLOT:
            chosen.setdefault(job_field(line, "variant"), line)
    jobs = [list(picked[slot].values())[k]
            for k in range(JOBS_PER_SLOT) for slot in slots
            if len(picked[slot]) > k]
    if len(jobs) != len(slots) * JOBS_PER_SLOT:
        raise BenchError("fleet stream never filled %d job slot place(s)"
                         % (len(slots) * JOBS_PER_SLOT - len(jobs)))
    return jobs


def outcome(result_line):
    """The engine-independent part of a result line: status and fields."""
    parts = result_line.split(" ", 2)
    return parts[2] if len(parts) == 3 else result_line


def reference(jobs, work):
    """Each job's expected outcome, measured on the reference interpreter.

    The outcomes are kept under OUT/reference, keyed by the isf binary and
    the jobs, so runs of one build on one seed (both serve workloads take
    the same jobs) run the reference once."""
    key = hashlib.md5()
    with open(ISF, "rb") as f:
        key.update(f.read())
    key.update("".join(j + "\n" for j in jobs).encode())
    kept = os.path.join(OUT, "reference", key.hexdigest())
    if os.path.exists(kept):
        with open(kept) as f:
            return f.read().splitlines()
    ref = reference_run(jobs, work)
    os.makedirs(os.path.dirname(kept), exist_ok=True)
    with open(kept + ".tmp", "w") as f:
        f.write("".join(r + "\n" for r in ref))
    os.replace(kept + ".tmp", kept)
    return ref


def reference_run(jobs, work):
    path = os.path.join(work, "reference.jobs")
    out = os.path.join(work, "reference.results")
    with open(path, "w") as f:
        for line in jobs:
            if " engine=fast " not in line:
                raise BenchError("unexpected engine in job: " + line)
            f.write("ref " + line.replace(" engine=fast ", " engine=ref ") +
                    "\n")
    run_checked([ISF, "fleet", "--file", path, "-j", str(NPROC),
                 "--out", out])
    with open(out) as f:
        ref = [outcome(l.rstrip("\n")) for l in f if l.strip()]
    if len(ref) != len(jobs) or not all(r.startswith("OK ") for r in ref):
        raise BenchError("reference run did not complete every job")
    return ref


def check_result(line, job, expected):
    """A daemon result line is right when it names the job's digest and
    carries the reference outcome."""
    parts = line.split(" ", 2)
    return (len(parts) == 3
            and parts[1] == hashlib.md5(job.encode()).hexdigest()
            and parts[2] == expected)


# ---------------------------------------------------------------------------
# Daemon and closed-loop client
# ---------------------------------------------------------------------------

class Daemon:
    """One `isf serve --socket` child: started, pinged, stopped, reaped."""

    def __init__(self, work, tag, cache_dir):
        self.sock_path = os.path.join(work, tag + ".sock")
        journal = os.path.join(work, tag + ".journal")
        # a daemon replays its journal on start; every daemon here is fresh
        if os.path.exists(journal):
            os.remove(journal)
        log = open(os.path.join(work, tag + ".log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [ISF, "serve", "--socket", self.sock_path, "--journal", journal,
             "--cache", cache_dir, "-j", str(WORKERS)],
            stdout=subprocess.DEVNULL, stderr=log, env=child_env())
        log.close()
        self.conn = None
        try:
            self.conn = self._connect(t0 + 60)
            self.conn.send("PING\n")
            if self.conn.line(60) != "OK pong":
                raise BenchError("daemon did not answer PING")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _connect(self, deadline):
        while True:
            if self.proc.poll() is not None:
                raise BenchError("isf serve exited during start-up")
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                return Conn(s)
            except OSError:
                s.close()
                if time.perf_counter() > deadline:
                    raise BenchError("isf serve did not open its socket")
                time.sleep(0.002)

    def stats(self):
        self.conn.send("STATS\n")
        line = self.conn.line(60)
        if not line.startswith("OK stats "):
            raise BenchError("bad STATS reply: " + line)
        return parse_stats(line)

    def stop(self):
        """SIGTERM (the daemon's orderly shutdown) and reap: (cpu s, RSS MB)."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _, cpu, rss = reap(self.proc)
            return cpu, rss
        return 0.0, 0.0


def parse_stats(line):
    out = {}
    for tok in line.split()[2:]:
        k, _, v = tok.partition("=")
        out[k] = int(v) if v.isdigit() else v
    return out


class Conn:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""
        self.ready = []

    def send(self, text):
        self.sock.sendall(text.encode())

    def close(self):
        self.sock.close()

    def lines(self, timeout):
        """Every complete line available, waiting up to timeout for one."""
        if not self.ready:
            deadline = time.perf_counter() + timeout
            while b"\n" not in self.buf:
                left = deadline - time.perf_counter()
                if left <= 0 or not select.select([self.sock], [], [], left)[0]:
                    raise BenchError("daemon went silent")
                data = self.sock.recv(1 << 16)
                if not data:
                    raise BenchError("daemon closed the connection")
                self.buf += data
            *done, self.buf = self.buf.split(b"\n")
            self.ready = [l.decode() for l in done]
        out, self.ready = self.ready, []
        return out

    def line(self, timeout):
        ls = self.lines(timeout)
        self.ready = ls[1:]
        return ls[0]


def closed_loop(daemon, jobs, expected, window, poll_stats=0):
    """Submit jobs keeping window outstanding; time each SUBMIT -> RESULT.

    Returns (latencies s, wall s, failures, max queue depth seen)."""
    conn = daemon.conn
    n = len(jobs)
    t_sub = [0.0] * n
    lat = [None] * n
    acks = []  # job indexes of each SUBMIT* batch awaiting its ack
    id_to_job, early = {}, {}
    state = {"next": 0, "outstanding": 0, "done": 0, "failed": 0,
             "batch_left": 0, "queue_max": 0, "since_poll": 0}

    def submit(k):
        idxs = list(range(state["next"], state["next"] + k))
        payload = "SUBMIT* %d\n" % k + "".join(
            "bench %s\n" % jobs[i] for i in idxs)
        t = time.perf_counter()
        for i in idxs:
            t_sub[i] = t
        conn.send(payload)
        acks.append(idxs)
        state["next"] += k
        state["outstanding"] += k

    def finish(i, t, line):
        lat[i] = t - t_sub[i]
        state["outstanding"] -= 1
        state["done"] += 1
        state["since_poll"] += 1
        if not check_result(line, jobs[i], expected[i]):
            state["failed"] += 1
            sys.stderr.write("wrong result for %s:\n  got  %s\n  want %s\n"
                             % (jobs[i], line, expected[i]))

    def on_result(line, t):
        jid = int(line.split(" ", 1)[0])
        if jid in id_to_job:
            finish(id_to_job.pop(jid), t, line)
        else:
            early[jid] = (t, line)

    t0 = time.perf_counter()
    submit(min(window, n))
    while state["done"] < n:
        for line in conn.lines(120):
            t = time.perf_counter()
            if state["batch_left"]:
                state["batch_left"] -= 1
                on_result(line, t)
            elif line.startswith("RESULT* "):
                state["batch_left"] = int(line.split()[1])
            elif line.startswith("RESULT "):
                on_result(line[len("RESULT "):], t)
            elif line.startswith("OK batch "):
                idxs = acks.pop(0)
                for tok, i in zip(line.split()[3:], idxs):
                    if not tok.isdigit():
                        raise BenchError("submission refused: " + tok)
                    jid = int(tok)
                    if jid in early:
                        finish(i, *early.pop(jid))
                    else:
                        id_to_job[jid] = i
            elif line.startswith("OK stats "):
                q = parse_stats(line).get("queue", 0)
                state["queue_max"] = max(state["queue_max"], q)
            else:
                raise BenchError("unexpected daemon reply: " + line)
        free = min(window - state["outstanding"], n - state["next"])
        if free > 0:
            submit(free)
        if poll_stats and state["since_poll"] >= poll_stats:
            state["since_poll"] = 0
            conn.send("STATS\n")
    wall = time.perf_counter() - t0
    if poll_stats:
        # drain the last STATS reply before the caller asks for its own
        daemon.stats()
    return lat, wall, state["failed"], state["queue_max"]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Run:
    """Samples of one benchmark run."""

    def __init__(self):
        self.setup, self.wall, self.cpu, self.rss = [], [], [], []
        self.latency = []
        self.attempted = self.failed = 0

    def e2e(self, ops_per_wall):
        return {
            "setup_s": statistics.median(self.setup),
            "wall_s": statistics.median(self.wall),
            "cpu_s": statistics.median(self.cpu),
            "jobs_per_s": ops_per_wall / statistics.median(self.wall),
            "latency_p50_ms": 1000 * statistics.median(self.latency),
            "latency_p90_ms": 1000 * percentile(self.latency, 90),
            "peak_rss_mb": statistics.median(self.rss),
        }


def serve_pass(work, tag, cache_dir, jobs, expected, window, run,
               poll_stats=0):
    """One fresh daemon, one closed-loop pass over jobs, then STATS.

    Returns (latencies s, start-up + pass s, daemon stats)."""
    d = Daemon(work, tag, cache_dir)
    try:
        lat, wall, failed, qmax = closed_loop(d, jobs, expected, window,
                                              poll_stats)
        stats = d.stats()
    finally:
        cpu, rss = d.stop()
    if run is not None:
        run.setup.append(d.setup_s)
        run.wall.append(wall)
        run.cpu.append(cpu)
        run.rss.append(rss)
        run.latency.extend(lat)
        run.attempted += len(jobs)
        run.failed += failed
    elif failed:
        raise BenchError("%d wrong result(s) outside the measurement" % failed)
    stats["queue_max"] = qmax
    return lat, d.setup_s + wall, stats


def prefill(work, jobs, expected):
    """Fill fresh disk caches with each distinct job, PREFILLS times.

    Returns the last cache and the median start-to-last-result time."""
    times = []
    for i in range(PREFILLS):
        cache = fresh_dir(os.path.join(work, "warm-cache%d" % i))
        times.append(serve_pass(work, "prefill", cache, jobs, expected,
                                COLD_WINDOW, None)[1])
    return cache, statistics.median(times)


def serve_inputs(warm, seed, work):
    """(jobs of one pass, their reference outcomes, filled cache or None,
    prefill seconds)."""
    if not warm:
        jobs = slot_jobs(seed, work)
        return jobs, reference(jobs, work), None, 0.0
    distinct = slot_jobs(seed, work)
    ref = reference(distinct, work)
    cache, prefill_s = prefill(work, distinct, ref)
    jobs = [distinct[i % len(distinct)]
            for i in range(len(distinct) * WARM_REPEATS)]
    return jobs, [ref[i % len(distinct)] for i in range(len(jobs))], cache, \
        prefill_s


def serve(warm, seed, seconds, work, run):
    jobs, expected, cache, prefill_s = serve_inputs(warm, seed, work)
    t_end = time.perf_counter() + seconds
    while not run.wall or time.perf_counter() < t_end:
        if warm:
            serve_pass(work, "warm", cache, jobs, expected, WARM_WINDOW, run)
        else:
            serve_pass(work, "cold", fresh_dir(os.path.join(work, "cache")),
                       jobs, expected, COLD_WINDOW, run)
    # set-up of a warm daemon includes filling its disk cache
    run.setup = [s + prefill_s for s in run.setup]
    return len(jobs)


def tables_once(expected, run):
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [ISF, "table", "all", "--traces", "on", "-j", str(NPROC)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env())
    out = p.stdout.read()
    p.stdout.close()
    code, cpu, rss = reap(p)
    wall = time.perf_counter() - t0
    run.attempted += 1
    if code != 0 or out != expected:
        run.failed += 1
        sys.stderr.write("isf table all: exit %d, output %s the expected "
                         "file\n" % (code, "matches" if out == expected
                                     else "differs from"))
    run.wall.append(wall)
    run.cpu.append(cpu)
    run.rss.append(rss)
    run.latency.append(wall)


def process_start(run):
    """Set-up of the tables workload: launch-to-exit of a trivial `isf`."""
    for _ in range(20):
        t0 = time.perf_counter()
        p = subprocess.Popen([ISF, "list"], stdout=subprocess.DEVNULL,
                             env=child_env())
        code, _, _ = reap(p)
        if code != 0:
            raise BenchError("isf list failed")
        run.setup.append(time.perf_counter() - t0)


def tables(seconds, run):
    with open(EXPECTED_TABLES, "rb") as f:
        expected = f.read()
    process_start(run)
    t_end = time.perf_counter() + seconds
    while run.attempted == 0 or time.perf_counter() < t_end:
        tables_once(expected, run)
    return 7  # experiments per `isf table all`: tables 1-5, figures 7 and 8


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def layers(args):
    out = run_checked([LAYERS] + args)
    return json.loads(out.strip().splitlines()[-1])


def span_times(work):
    """Self time per span name (ms, over all jobs), and per-job layer sums."""
    spans = []
    with open(os.path.join(work, "spans.tsv")) as f:
        for l in f:
            sid, parent, job, name, shadow, t0, t1 = l.split("\t")
            spans.append((int(sid), int(parent), int(job), name,
                          shadow == "1", int(t0), int(t1)))
    child = {}
    for sid, parent, _, _, _, t0, t1 in spans:
        child[parent] = child.get(parent, 0) + (t1 - t0)
    self_ms, job_ms, shadow_ms = {}, {}, {}
    for sid, _, job, name, shadow, t0, t1 in spans:
        dur = t1 - t0
        self_ms[name] = self_ms.get(name, 0.0) + (dur - child.get(sid, 0)) / 1e6
        if name == "job":
            job_ms[job] = job_ms.get(job, 0.0) + dur / 1e6
        elif shadow:
            shadow_ms[job] = shadow_ms.get(job, 0.0) + dur / 1e6
    per_job = [job_ms[j] - shadow_ms.get(j, 0.0) for j in sorted(job_ms)]
    return self_ms, per_job


def layer_metrics(res, self_ms, per_job, warm):
    n = res["jobs"]
    c = res["counts"]
    m = {name: 0.0 for name, _ in PER_LAYER}
    for span, metric in SPAN_LAYER.items():
        m[metric] += self_ms.get(span, 0.0) / n
    if warm:
        # run_transformed's span minus the transform and digest it repeats
        m["cache.hit_ms"] = (self_ms.get("cache", 0.0) / n
                             - m["transform.ms"] - m["digest.ms"])
    else:
        m["cache.store_ms"] = self_ms.get("cache", 0.0) / n
    for k in ("frontend.builds", "frontend.lir_instrs", "transform.code_words",
              "link.code_words", "exec.instructions", "exec.cycles",
              "exec.checks", "exec.samples", "exec.instrument_ops",
              "slots.events", "payload.bytes", "journal.bytes"):
        m[k] = c.get(k, 0)
    if c.get("exec.instructions"):
        m["exec.ns_per_instr"] = (self_ms.get("exec", 0.0) * 1e6
                                  / c["exec.instructions"])
    if c.get("journal.appends"):
        m["journal.append_us"] = (self_ms.get("journal", 0.0) * 1000
                                  / c["journal.appends"])
    if self_ms.get("merge"):
        m["merge.ms"] = self_ms["merge"]
        m["merge.profiles_per_s"] = c.get("merge.inputs", 0) / (
            self_ms["merge"] / 1000)
    m["reconcile.layers_ms"] = statistics.mean(per_job)
    m["tracing.overhead_ratio"] = res["traced_s"] / res["untraced_s"]
    return m


def cache_metrics(m, hits_mem, hits_disk, misses, stores, corrupt):
    m["cache.mem_hits"] = hits_mem
    m["cache.disk_hits"] = hits_disk
    m["cache.misses"] = misses
    m["cache.stores"] = stores
    m["cache.corrupt"] = corrupt
    lookups = hits_mem + hits_disk + misses
    m["cache.hit_ratio"] = (hits_mem + hits_disk) / lookups if lookups else 0.0


def serve_traced(warm, seed, work, run):
    """One untraced daemon pass for the end-to-end side, then the replay."""
    jobs, expected, cache, _ = serve_inputs(warm, seed, work)
    if cache is None:
        cache = fresh_dir(os.path.join(work, "cache"))
    # one job per worker, so the latency holds no queue wait
    lat, _, st = serve_pass(work, "traced", cache, jobs, expected, WORKERS,
                            run, poll_stats=8)
    jobs_file = os.path.join(work, "replay.jobs")
    with open(jobs_file, "w") as f:
        f.write("".join(j + "\n" for j in jobs))
    args = ["serve", "warm" if warm else "cold", jobs_file, work]
    res = layers(args + ([cache] if warm else []))
    with open(os.path.join(work, "replay.results")) as f:
        replayed = [l.rstrip("\n") for l in f if l.strip()]
    for line, job, exp in zip(replayed, jobs, expected):
        if not check_result(line, job, exp):
            run.failed += 1
            sys.stderr.write("replay disagrees with the reference: %s\n" % line)
    if len(replayed) != len(jobs):
        run.failed += 1
    self_ms, per_job = span_times(work)
    m = layer_metrics(res, self_ms, per_job, warm)
    cache_metrics(m, st["cache_mem_hits"], st["cache_disk_hits"],
                  st["cache_misses"], st["cache_stores"], st["cache_corrupt"])
    m["daemon.queue_max"] = st["queue_max"]
    m["wire.submit_batches"] = st["submit_batches"]
    m["wire.result_batches"] = st["result_batches"]
    m["reconcile.e2e_ms"] = 1000 * statistics.mean(lat)
    m["reconcile.remainder_ms"] = (m["reconcile.e2e_ms"]
                                   - m["reconcile.layers_ms"])
    m["wire.overhead_ms"] = (1000 * statistics.median(lat)
                             - statistics.median(per_job))
    return m


def tables_traced(work, run):
    with open(EXPECTED_TABLES, "rb") as f:
        expected = f.read()
    process_start(run)
    tables_once(expected, run)
    res = layers(["tables", str(NPROC), work])
    if res["replay_mismatches"]:
        run.failed += 1
        sys.stderr.write("tables replay disagrees with the real run\n")
    self_ms, per_job = span_times(work)
    m = layer_metrics(res, self_ms, per_job, False)
    c = res["cache"]
    cache_metrics(m, c["mem_hits"], c["disk_hits"], c["misses"], c["stores"],
                  c["corrupt"])
    counts = res["counts"]
    for ev, name in (("ev_record", "record"), ("ev_compile", "compile"),
                     ("ev_abort_trace", "abort"), ("ev_trace", "enter"),
                     ("ev_exit", "exit")):
        m["trace." + name] = counts.get("trace." + ev, 0)
    if m["trace.enter"]:
        m["trace.exit_ratio"] = m["trace.exit"] / m["trace.enter"]
    m["trace.ns_per_instr"] = m["exec.ns_per_instr"]
    m["schedule.cells_requested"] = res["cells_requested"]
    m["schedule.cells_unique"] = res["cells_unique"]
    m["schedule.dedup_ratio"] = res["cells_requested"] / res["cells_unique"]
    m["schedule.prewarm_s"] = res["prewarm_s"]
    m["tables.render_s"] = res["render_s"]
    # one operation is a whole `isf table all`: process start-up, the
    # scheduler's prewarm, then the drivers rendering from the warm cache
    m["reconcile.e2e_ms"] = 1000 * run.wall[0]
    m["reconcile.layers_ms"] = 1000 * (statistics.median(run.setup)
                                       + res["prewarm_s"] + res["render_s"])
    m["reconcile.remainder_ms"] = (m["reconcile.e2e_ms"]
                                   - m["reconcile.layers_ms"])
    return m


# ---------------------------------------------------------------------------

def report(metrics, units, run, extra=()):
    for name, unit in units:
        print("%-26s %14.4f %s" % (name, metrics[name], unit))
    for name, value, unit in extra:
        print("%-26s %14.4f %s" % (name, value, unit))
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["tables", "serve-cold", "serve-warm"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default 1; seed 7919 is held out "
                    "for confirming claims, never for tuning)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    os.chdir(ROOT)
    try:
        build()
        work = fresh_dir(os.path.join(OUT, a.workload))
        run = Run()
        if a.trace:
            if a.workload == "tables":
                m = tables_traced(work, run)
            else:
                m = serve_traced(a.workload == "serve-warm", a.seed, work, run)
            return report(m, PER_LAYER, run)
        if a.workload == "tables":
            ops = tables(a.seconds, run)
            extra = []
        else:
            warm = a.workload == "serve-warm"
            ops = serve(warm, a.seed, a.seconds, work, run)
            extra = [("latency_samples", len(run.latency), "count")]
            if warm:
                extra.append(("latency_p99_ms",
                              1000 * percentile(run.latency, 99), "ms"))
        extra.append(("fail_rate", run.failed / max(1, run.attempted),
                      "ratio"))
        return report(run.e2e(ops), E2E, run, extra)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
