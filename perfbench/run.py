#!/usr/bin/env python3
"""End-to-end benchmark of the qramsim CLIs, with a traced per-layer run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a qramsim source tree. Each run builds the library,
the four CLIs and perfbench_trace into .bench_build/ (a no-op when
nothing changed), then drives one workload:

  bb8-depol         bucket brigade m=8, weighted gate depolarizing noise,
                    4096 shots over 4 shards, qramsim_drive --in-process
                    --threads 2, one client running jobs back to back.
  vqram-z-adaptive  virtual QRAM m=7 k=2, gate phase-flip noise, an
                    Adaptive 5-point eps_r sweep to a CI half-width
                    target, 2 fork/exec qramsim_shard workers over 4
                    shards.
  svc-broker        one qramsim_broker (journal, fsync on) and two
                    qramsim_server --broker workers; two clients run
                    qramsim_drive --broker jobs back to back (fresh
                    seeds, exact re-submissions, Adaptive twins).

With --trace 0 the last stdout line is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of
the traced replica (perfbench/trace.cc). Every job's result.json is
checked byte for byte against an untimed in-process reference. See
perfbench/README.md for the metrics and why each workload was chosen.
"""

import argparse
import concurrent.futures
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
TOOLS = {name: os.path.join(CMAKE_DIR, "qramsim", name)
         for name in ("qramsim_drive", "qramsim_shard", "qramsim_server",
                      "qramsim_broker")}
TRACE_BIN = os.path.join(CMAKE_DIR, "perfbench_trace")
DRIVE, SHARD = TOOLS["qramsim_drive"], TOOLS["qramsim_shard"]

SHARDS = 4
SEED_POOL = 12             # distinct job seeds per run (bb8, vqram)
BRINGUPS = (12, 12)        # broker + worker bring-ups before, after
JOB_TIMEOUT_S = 120
FAILED = math.inf          # latency of a failed job

# glibc moves its mmap threshold up after a large block is freed, so the
# broker's peak RSS, set by the large transient strings of journal
# compaction, depended on allocation timing: 67 to 127 MB over five runs
# of the same workload. A fixed threshold makes it measure live memory.
# Only the broker runs with it; every other process keeps glibc's
# default.
BROKER_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="1048576")

WORKLOADS = {
    "bb8-depol": {
        "flags": ["--arch", "bb", "--m", "8", "--noise", "gate-depol",
                  "--eps", "1e-3", "--stream", "counter", "--threads", "2"],
        "shots": 4096,
        "drive": ["--in-process", "--shards", str(SHARDS)],
        "ref_parallel": 2,
    },
    "vqram-z-adaptive": {
        "flags": ["--arch", "virtual", "--m", "7", "--k", "2",
                  "--noise", "gate-z", "--eps", "1e-3",
                  "--factors", "0.25,0.5,1,2,4", "--adaptive",
                  "--target-ci", "0.01", "--threads", "1"],
        "shots": 32768,
        "drive": ["--workers", "2", "--worker-bin", SHARD,
                  "--shards", str(SHARDS)],
        "ref_parallel": 4,
    },
    "svc-broker": {
        "flags": ["--arch", "bb", "--m", "6", "--noise", "gate-depol",
                  "--eps", "1e-3", "--factors", "0.5,1,2",
                  "--threads", "1"],
        "shots": 512,
        "drive": None,  # --broker SOCKET, filled per service bring-up
        "ref_parallel": 4,
    },
}

END_TO_END = [("result_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "frac"), ("jobs_per_s", "1/s")]

PER_LAYER = [
    ("qram.build_s", "s"), ("fidelity.setup_s", "s"),
    ("noise.sample_s", "s"), ("fidelity.run_s", "s"),
    ("fidelity.gather_s", "s"), ("fidelity.replay_s", "s"),
    ("fidelity.accumulate_s", "s"), ("fidelity.occupancy", "frac"),
    ("fidelity.general_batches", "count"),
    ("fidelity.adaptive_draws", "count"),
    ("fidelity.adaptive_kept_shots", "count"),
    ("simd.xor_fire_block_rows_per_s", "rows/s"),
    ("simd.swap_fire_block_rows_per_s", "rows/s"),
    ("simd.xor_row_block_rows_per_s", "rows/s"),
    ("simd.diff_or_block_rows_per_s", "rows/s"),
    ("sharding.to_json_s", "s"), ("sharding.from_json_s", "s"),
    ("sharding.merge_s", "s"), ("sharding.partial_bytes", "bytes"),
    ("orchestrator.overhead_s", "s"), ("orchestrator.retries", "count"),
    ("atomicfile.commit_s", "s"),
    ("server.handle_cold_s", "s"), ("server.handle_warm_s", "s"),
    ("server.compiled_builds", "count"),
    ("broker.submit_s", "s"), ("broker.pull_s", "s"),
    ("broker.commit_s", "s"), ("broker.poll_s", "s"),
    ("broker.fetch_s", "s"), ("broker.roundtrip_s", "s"),
    ("broker.redispatches", "count"),
    ("broker.duplicate_mismatches", "count"),
    ("trace.unattributed_s", "s"), ("trace.overhead_frac", "frac"),
]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- processes

class Procs:
    """Every child this run starts, so that none outlives it."""

    def __init__(self, log_path):
        self.live = []
        self.lock = threading.Lock()
        self.log = open(log_path, "ab")

    def spawn(self, argv, cwd, stdout=None, env=None):
        p = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                             stdout=stdout or self.log, stderr=self.log,
                             env=env)
        with self.lock:
            self.live.append(p)
        return p

    def reap(self, p, timeout):
        """Wait for @p p; returns (exit code, peak RSS in MB from wait4)."""
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        with self.lock:
            self.live.remove(p)
        return p.returncode, ru.ru_maxrss / 1024.0

    def kill_all(self):
        with self.lock:
            live = list(self.live)
        for p in live:
            try:
                p.kill()
            except OSError:
                pass
        for p in live:
            try:
                self.reap(p, 10)
            except (OSError, ValueError):
                pass
        self.log.close()


def run_timed(procs, argv, cwd):
    """Run one CLI to exit: (exit code, wall seconds, peak RSS MB)."""
    t0 = time.perf_counter()
    p = procs.spawn(argv, cwd)
    rc, rss = procs.reap(p, JOB_TIMEOUT_S)
    return rc, time.perf_counter() - t0, rss


# --------------------------------------------------------------- jobs

class Job:
    """One qramsim_drive job: its flags, timing and result bytes."""

    def __init__(self, flags, kind="fresh", twin_of=None):
        self.flags = flags          # workload flags incl. --seed
        self.kind = kind            # fresh | resubmit | twin | setup
        self.twin_of = twin_of      # the Replay job a twin copies
        self.rc = None
        self.wall = None
        self.rss = 0.0
        self.result = None
        self.report = None          # parsed report.json
        self.ok = False

    @property
    def key(self):
        return " ".join(self.flags)


def workload_flags(name, shots, seed):
    w = WORKLOADS[name]
    return w["flags"] + ["--shots", str(shots), "--seed", str(seed)]


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


_job_counter = [0]
_job_lock = threading.Lock()


def run_drive(procs, rundir, mode_args, job):
    """Time one drive job from launch to exit, keep its result.json
    and report.json."""
    with _job_lock:
        _job_counter[0] += 1
        jobdir = os.path.join("jobs", "j%06d" % _job_counter[0])
    argv = [DRIVE, "--job", jobdir] + mode_args + job.flags
    job.rc, job.wall, job.rss = run_timed(procs, argv, rundir)
    job.result = read_bytes(os.path.join(rundir, jobdir, "result.json"))
    report = read_bytes(os.path.join(rundir, jobdir, "report.json"))
    try:
        job.report = json.loads(report) if report else None
    except ValueError:
        job.report = None
    shutil.rmtree(os.path.join(rundir, jobdir), ignore_errors=True)
    return job


def served_by_broker(job):
    """qramsim_drive --broker falls back to fork/exec on any broker
    failure and still exits 0 with the same bytes; only its report
    shows it. A brokered job counts only if the broker served every
    shard without a transport failure."""
    r = job.report or {}
    return (r.get("broker_shards") == SHARDS
            and r.get("broker_transport_failures") == 0)


def references(procs, rundir, flag_lists, parallel):
    """Untimed in-process references, same flags and shard count."""
    def one(flags):
        ref = Job(flags, kind="reference")
        run_drive(procs, rundir, ["--in-process", "--shards", str(SHARDS)],
                  ref)
        if ref.rc != 0 or ref.result is None:
            raise BenchError("reference run failed (exit %s): %s"
                             % (ref.rc, ref.key))
        return ref.key, ref.result
    keys = {" ".join(f): f for f in flag_lists}
    with concurrent.futures.ThreadPoolExecutor(parallel) as pool:
        return dict(pool.map(one, keys.values()))


def gate(jobs, refs, brokered=False):
    """A job passes iff it exited 0, its result.json equals its
    reference byte for byte and, when @p brokered, the broker served
    it. Returns the number of failed jobs."""
    failed = 0
    for j in jobs:
        j.ok = (j.rc == 0 and j.result is not None
                and j.result == refs.get(j.key)
                and (not brokered or served_by_broker(j)))
        failed += not j.ok
    return failed


def gate_self_check(jobs, refs, brokered=False):
    """Feed the gate one deliberately altered result and, for brokered
    jobs, one right result whose report shows a fork/exec fallback: it
    must count each of them as failed."""
    good = next((j for j in jobs if j.ok), None)
    if good is None:
        return False
    altered = Job(good.flags, good.kind)
    altered.rc = 0
    altered.report = good.report
    body = bytearray(good.result)
    i = body.rfind(b"0.")
    body[i + 2] = ord("1") if body[i + 2] != ord("1") else ord("2")
    altered.result = bytes(body)
    probes = [altered]
    if brokered:
        fallback = Job(good.flags, good.kind)
        fallback.rc = 0
        fallback.result = good.result
        fallback.report = dict(good.report, broker_shards=0,
                               broker_transport_failures=1)
        probes.append(fallback)
    return gate(probes, refs, brokered) == len(probes)


# --------------------------------------------------------------- services

class Services:
    """One qramsim_broker (journal + fsync) and two broker workers."""

    def __init__(self, procs, rundir, tag):
        self.procs = procs
        self.rundir = rundir
        self.sock = "svc%d.sock" % tag
        self.stats = "svc%d/stats.json" % tag
        state = "svc%d" % tag
        for d in ("journal", "spill0", "spill1"):
            os.makedirs(os.path.join(rundir, state, d), exist_ok=True)
        self.broker = procs.spawn(
            [TOOLS["qramsim_broker"], "--socket", self.sock,
             "--state", state + "/journal", "--stats-out", self.stats],
            rundir, stdout=subprocess.PIPE, env=BROKER_ENV)
        line = self.broker.stdout.readline()
        if not line.startswith(b"brokering on"):
            raise BenchError("qramsim_broker did not start")
        self.workers = [procs.spawn(
            [TOOLS["qramsim_server"], "--broker", self.sock,
             "--threads", "1", "--name", "w%d" % i,
             "--spill", "%s/spill%d" % (state, i)], rundir)
            for i in range(2)]

    def drive_args(self):
        return ["--broker", self.sock, "--worker-bin", SHARD,
                "--shards", str(SHARDS)]

    def stop(self):
        """SIGTERM everything; returns (peak RSS MB, broker stats)."""
        rss = 0.0
        for p in self.workers + [self.broker]:
            p.send_signal(signal.SIGTERM)
            rc, r = self.procs.reap(p, 30)
            rss = max(rss, r)
            if rc != 0:
                raise BenchError("%s exited %d" % (p.args[0], rc))
        self.broker.stdout.close()
        stats = read_bytes(os.path.join(self.rundir, self.stats))
        if stats is None:
            raise BenchError("broker wrote no stats")
        return rss, json.loads(stats)


class BrokerMix:
    """The svc-broker job stream, fixed by the seed: in every 20 jobs,
    15 fresh seeds, 4 exact re-submissions and 1 Adaptive twin (an
    earlier Replay job's flags plus --adaptive). Re-submissions and
    twins pick among fresh jobs issued at least two jobs earlier."""

    RESUBMIT = (4, 9, 14, 17)
    TWIN = 19

    def __init__(self, seed):
        self.rng = random.Random("svc-broker:%d" % seed)
        self.fresh = []
        self.n = 0
        self.lock = threading.Lock()

    def next(self):
        with self.lock:
            k = self.n % 20
            self.n += 1
            old = self.fresh[:-2]
            if k == self.TWIN and old:
                base = self.rng.choice(old)
                return Job(base.flags + ["--adaptive"], "twin", base)
            if k in self.RESUBMIT and old:
                return Job(list(self.rng.choice(old).flags), "resubmit")
            job = Job(workload_flags("svc-broker",
                                     WORKLOADS["svc-broker"]["shots"],
                                     self.rng.randrange(1, 2**31)))
            self.fresh.append(job)
            return job


# --------------------------------------------------------------- metrics

def percentile(values, q):
    """Linearly interpolated percentile; inf (a failed job) sorts last."""
    s = sorted(values)
    x = q * (len(s) - 1)
    lo, hi = s[math.floor(x)], s[math.ceil(x)]
    return hi if math.isinf(hi) else lo + (hi - lo) * (x - math.floor(x))


def finite(x):
    return x if math.isfinite(x) else 1e9


def latency_metrics(jobs, window, info):
    """result_s, ok_frac and jobs_per_s; the p90 goes to the record."""
    lat = [j.wall if j.ok else FAILED for j in jobs]
    verified = sum(j.ok for j in jobs)
    info["job_p90_s"] = finite(percentile(lat, 0.9))
    info["jobs_beyond_p90"] = len(lat) - math.ceil(0.9 * len(lat))
    return {
        "result_s": finite(statistics.median(lat)),
        "ok_frac": verified / len(jobs),
        "jobs_per_s": verified / window,
    }


def host_stamp():
    out = subprocess.run([TRACE_BIN, "--host"], capture_output=True,
                         check=True, text=True).stdout
    host = json.loads(out)
    host["nproc"] = len(os.sched_getaffinity(0))
    try:
        host["git_rev"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(
                ROOT))).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        host["git_rev"] = "unknown"
    return host


# --------------------------------------------------------------- workloads

def derived_seeds(workload, seed, stream, n):
    rng = random.Random("%s:%s:%d" % (workload, stream, seed))
    return [rng.randrange(1, 2**31) for _ in range(n)]


def run_cli_workload(procs, rundir, name, seed, seconds):
    """bb8-depol / vqram-z-adaptive: one client, jobs back to back."""
    w = WORKLOADS[name]
    setup_seed = derived_seeds(name, seed, "setup", 1)[0]
    # Jobs cycle through a pool of seeds: neither path caches results,
    # so a repeat costs the same, and the gate needs one reference per
    # pool seed instead of one per job.
    job_seeds = derived_seeds(name, seed, "jobs", SEED_POOL)
    # A zero-shot setup job runs before every job, so the setup jobs
    # are spread over the window rather than run in a burst, and their
    # median does not hinge on one moment's host state (fsync and
    # process start times move with it).
    setup, jobs = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        setup.append(run_drive(procs, rundir, w["drive"], Job(
            workload_flags(name, 0, setup_seed), "setup")))
        jobs.append(run_drive(procs, rundir, w["drive"], Job(
            workload_flags(name, w["shots"],
                           job_seeds[len(jobs) % SEED_POOL]))))
    window = time.perf_counter() - t0 - sum(j.wall for j in setup)

    refs = references(procs, rundir, [j.flags for j in setup + jobs],
                      w["ref_parallel"])
    setup_failed = gate(setup, refs)
    failed = gate(jobs, refs)
    info = {"jobs": len(jobs), "setup_jobs": len(setup)}
    m = latency_metrics(jobs, window, info)
    m["setup_s"] = statistics.median(j.wall for j in setup)
    m["peak_rss_mb"] = max(j.rss for j in setup + jobs)
    checks = {"setup_jobs_verified": setup_failed == 0,
              "gate_self_check": gate_self_check(jobs, refs)}
    return jobs, failed, m, checks, info


def run_broker_workload(procs, rundir, seed, seconds):
    """svc-broker: two clients against one broker and two workers."""
    name = "svc-broker"
    shots = WORKLOADS[name]["shots"]
    before, after = BRINGUPS
    warm_seeds = derived_seeds(name, seed, "setup", before + after)
    setup_times, setup_jobs, stats = [], [], []
    rss = 0.0

    def bring_up(i):
        """Start a broker and its workers, run a first job through them."""
        t0 = time.perf_counter()
        s = Services(procs, rundir, i)
        setup_jobs.append(run_drive(procs, rundir, s.drive_args(), Job(
            workload_flags(name, shots, warm_seeds[i]), "setup")))
        setup_times.append(time.perf_counter() - t0)
        return s

    def stop(s):
        nonlocal rss
        r, st = s.stop()
        rss = max(rss, r)
        stats.append(st)

    # Bring-ups run on both sides of the window, so their median does
    # not hinge on one moment's host state; the last one before the
    # window serves the clients.
    for i in range(before - 1):
        stop(bring_up(i))
    svc = bring_up(before - 1)

    mix = BrokerMix(seed)
    jobs, jobs_lock = [], threading.Lock()
    t0 = time.perf_counter()
    errors = []

    def client():
        try:
            while time.perf_counter() - t0 < seconds:
                job = run_drive(procs, rundir, svc.drive_args(), mix.next())
                with jobs_lock:
                    jobs.append(job)
        except Exception as e:  # surfaced after the join
            errors.append(e)

    clients = [threading.Thread(target=client) for _ in range(2)]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    window = time.perf_counter() - t0
    stop(svc)
    if errors:
        raise errors[0]
    for i in range(before, before + after):
        stop(bring_up(i))
    rss = max([rss] + [j.rss for j in setup_jobs + jobs])

    refs = references(procs, rundir, [j.flags for j in setup_jobs + jobs],
                      WORKLOADS[name]["ref_parallel"])
    setup_failed = gate(setup_jobs, refs, brokered=True)
    gate(jobs, refs, brokered=True)
    # The known defect: a brokered --adaptive job is answered with its
    # Replay twin's result. Such twins count against ok_frac and the
    # latency metrics; any other failure is unexpected.
    twins = [j for j in jobs if j.kind == "twin"]
    known = [j for j in twins if not j.ok and j.rc == 0
             and served_by_broker(j) and j.result == refs[j.twin_of.key]]
    failed = sum(not j.ok for j in jobs) - len(known)
    mismatches = sum(s.get("duplicate_mismatches", 0) for s in stats)
    info = {"jobs": len(jobs),
            "fresh": sum(j.kind == "fresh" for j in jobs),
            "resubmits": sum(j.kind == "resubmit" for j in jobs),
            "twins": len(twins), "twins_with_replay_answer": len(known),
            "fail_frac": sum(not j.ok for j in jobs) / len(jobs),
            "not_served_by_broker": sum(
                not served_by_broker(j) for j in setup_jobs + jobs),
            "bringups": len(setup_times),
            "broker_duplicate_mismatches": mismatches}
    m = latency_metrics(jobs, window, info)
    m["setup_s"] = statistics.median(setup_times)
    m["peak_rss_mb"] = rss
    checks = {"setup_jobs_verified": setup_failed == 0,
              "gate_self_check": gate_self_check(jobs, refs, True),
              "broker_duplicate_mismatches_zero": mismatches == 0}
    return jobs, failed, m, checks, info


def run_traced(procs, rundir, name, seed, seconds):
    """Untraced CLI jobs, then the traced replica of the same seeds."""
    w = WORKLOADS[name]
    svc = Services(procs, rundir, 0) if name == "svc-broker" else None
    mode = svc.drive_args() if svc else w["drive"]
    seeds = derived_seeds(name, seed, "trace", 1000)
    jobs = []
    t0 = time.perf_counter()
    while len(jobs) < 3 or time.perf_counter() - t0 < seconds / 3:
        jobs.append(run_drive(procs, rundir, mode, Job(
            workload_flags(name, w["shots"], seeds[len(jobs)]))))
    if svc:
        svc.stop()
    used = seeds[:len(jobs)]
    spans = os.path.join(BUILD_DIR, "trace-%s-spans.json" % name)
    out = subprocess.run(
        [TRACE_BIN, "--workload", name, "--seeds",
         ",".join(map(str, used)), "--spans", spans, "--"]
        + w["flags"] + ["--shots", str(w["shots"])],
        cwd=rundir, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError("perfbench_trace failed: " + out.stderr.strip())
    trace = json.loads(out.stdout.strip().splitlines()[-1])
    failed = 0
    for j, s in zip(jobs, used):
        replica = read_bytes(os.path.join(rundir, "result-%d.json" % s))
        j.ok = (j.rc == 0 and j.result is not None and j.result == replica
                and (svc is None or served_by_broker(j)))
        failed += not j.ok
    m = dict(trace["metrics"])
    m["trace.unattributed_s"] = (statistics.median(j.wall for j in jobs)
                                 - trace["replica_wall_s"])
    info = {"jobs": len(jobs), "spans": spans,
            "replica_wall_s": trace["replica_wall_s"]}
    return jobs, failed, m, {}, info


# --------------------------------------------------------------- main

def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("no qramsim source tree at %s (missing %s)"
                             % (ROOT, needed))
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.log"), "ab") as blog:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=blog, stderr=blog, check=True)
        subprocess.run(["cmake", "--build", CMAKE_DIR, "-j4", "--target"]
                       + list(TOOLS) + ["perfbench_trace"],
                       stdout=blog, stderr=blog, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds like an error, so no child outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        build()
    except BenchError as e:
        log("perfbench: %s" % e)
        return 3
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s (see .bench_build/build.log)" % e)
        return 3

    rundir = os.path.join(BUILD_DIR, "run-%s-%d" % (args.workload,
                                                     os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(os.path.join(rundir, "jobs"))
    procs = Procs(os.path.join(BUILD_DIR, "run.log"))
    try:
        host = host_stamp()
        if args.trace:
            jobs, failed, m, checks, info = run_traced(
                procs, rundir, args.workload, args.seed, args.seconds)
            names = PER_LAYER
        elif args.workload == "svc-broker":
            jobs, failed, m, checks, info = run_broker_workload(
                procs, rundir, args.seed, args.seconds)
            names = END_TO_END
        else:
            jobs, failed, m, checks, info = run_cli_workload(
                procs, rundir, args.workload, args.seed, args.seconds)
            names = END_TO_END
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        procs.kill_all()
        shutil.rmtree(rundir, ignore_errors=True)

    missing = [n for n, _ in names if n not in m]
    correct = failed == 0 and all(checks.values()) and not missing
    record = {"workload": args.workload, "seed": args.seed,
              "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "host": host, "checks": checks, "info": info}
    print("host: " + json.dumps(host))
    print("record: " + json.dumps(record))
    for n, unit in names:
        print("  %-34s %14.6g %s" % (n, m.get(n, float("nan")), unit))
    if "job_p90_s" in info:
        print("  %-34s %14.6g s (%d jobs, %d beyond it; not gated)"
              % ("job_p90_s", info["job_p90_s"], info["jobs"],
                 info["jobs_beyond_p90"]))
    if missing:
        log("perfbench: metrics missing: %s" % ", ".join(missing))
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": failed,
        "metrics": {n: {"value": m.get(n, 0.0), "unit": unit}
                    for n, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
