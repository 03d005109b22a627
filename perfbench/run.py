#!/usr/bin/env python3
"""End-to-end benchmark of the disassociation system, with a traced
per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds the `disassoc` binary and the
benchmark's own `perfbench-tracer` (into `$CARGO_TARGET_DIR`, default
`.bench_build`), generates the workload's inputs from `--seed`, and drives
the real binary: CLI subprocesses for `batch-quest`, a loopback
`disassoc serve` for `append-querylog` and `serve-querylog`.  (The two
query-log workloads start from the `datagen` scenario's own 50k-record
base; the seed draws every record and request they send after it.)

With `--trace 0` it measures the end-to-end metrics named in
`BENCHMARK.json`.  With `--trace 1` it runs the workload briefly end to end,
then replays the same inputs in process through the layers' public
functions (`perfbench-tracer replay-*`) and reports the per-layer metrics.

Every run checks its outputs: the committed publication passes
`verify_structure` and covers every record, the acknowledged ingests add up
to the dataset's final total, and (traced runs) the replay's publication is
byte-identical to the end-to-end one.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A full result file
with a run header (nproc, revision, build profile, seed, input sizes) goes
to `.perfbench/results/`; traced runs also write their spans to
`.perfbench/traces/`.  Each run works in a fresh directory under
`.perfbench/tmp/` and removes it before exiting.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench"

QUEST_RECORDS = 200_000  # Quest, domain 5000, average length 10
QL_BASE = 50_000  # query-log records ingested and anonymized in set-up
QL_POOL = 150_000  # further query-log records the measured phase sends
APPEND_RECORDS = 500  # records per POST /datasets/q/append
READS_PER_APPEND = 2  # term reads that follow each append
INGEST_MAX_RECORDS = 40  # serve-querylog bodies hold 1..40 records
SERVE_RATE = 40.0  # serve-querylog requests per second (open loop)
READ_EVERY = 10  # serve-querylog: every 10th request is GET /chunks?term=t
SETUP_REPS = 3  # set-ups per run; setup_s is their median
TRACE_APPENDS = 6  # append/read pairs in a traced append-querylog run
HEALTH_PROBES = 40  # GET /healthz probes for the HTTP floor
OVERRUN_S = 30.0  # serve-querylog drops requests sent this late


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    """A wrong or failed output of the program."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def pct(values, q):
    """Linear-interpolated q-quantile (0..1) of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return pct(values, 0.5)


# ---------------------------------------------------------------------------
# Build and run header
# ---------------------------------------------------------------------------


def build():
    """Builds `disassoc` and `perfbench-tracer`; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise SystemExit("perfbench: no disassociation workspace next to perfbench/")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "disassoc-cli", "--bin", "disassoc"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(BENCH_DIR / "tracer" / "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return target / "release" / "disassoc", target / "release" / "perfbench-tracer"


def source_digest():
    """SHA-256 over the sources a run builds from, so a result can be
    matched to a tree even where no git metadata exists."""
    h = hashlib.sha256()
    paths = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        paths += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.relative_to(ROOT).parts)
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def run_header(args, inputs):
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "build_profile": "release (workspace [profile.release])",
        "rustc": rustc,
        "inputs": inputs,
    }


# ---------------------------------------------------------------------------
# Talking to the program
# ---------------------------------------------------------------------------


class Ops:
    """Counts the operations sent to the program and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, note):
        self.failed += 1
        self.notes.append(note)
        log(f"FAILED: {note}")


def run_program(cmd, cwd):
    """Runs one program process; returns (wall_s, exit_code, stdout, maxrss_mb)."""
    out_path = Path(cwd) / ".stdout"
    with open(out_path, "wb") as out, open(Path(cwd) / ".stderr", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, out_path.read_text(), usage.ru_maxrss / 1024.0


def tracer_json(tracer, *argv):
    r = subprocess.run([str(tracer), *map(str, argv)], capture_output=True, text=True)
    if r.returncode != 0:
        raise Failure(f"perfbench-tracer {argv[0]}: {r.stderr.strip()}")
    return json.loads(r.stdout.strip().splitlines()[-1])


class Daemon:
    """A loopback `disassoc serve` on an ephemeral port."""

    def __init__(self, binary, data_dir):
        self.proc = subprocess.Popen(
            [str(binary), "serve", "--listen", "127.0.0.1:0", "--data-dir", str(data_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.kill()
            raise Failure(f"daemon did not start: {line!r}")
        host, port = line.split()[2].rsplit(":", 1)
        self.addr = (host, int(port))

    def request(self, method, target, body=None):
        """Returns (status, body bytes, send time, done time); status 0 when
        the connection failed."""
        conn = http.client.HTTPConnection(*self.addr, timeout=60)
        sent = time.perf_counter()
        try:
            conn.request(method, target, body=body)
            resp = conn.getresponse()
            data = resp.read()
            return resp.status, data, sent, time.perf_counter()
        except (OSError, http.client.HTTPException) as e:
            return 0, str(e).encode(), sent, time.perf_counter()
        finally:
            conn.close()

    def vmhwm_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise Failure("no VmHWM for the daemon")

    def stop(self):
        """SIGTERM, then require a clean drain and exit code 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise Failure("daemon did not drain within 60 s")
        if self.proc.returncode != 0 or "drained and shut down cleanly" not in rest:
            raise Failure(f"daemon exit {self.proc.returncode}: {rest.strip()!r}")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def expect_json(ops, what, status, body, **fields):
    """Checks a 200 JSON response whose named fields hold the given values."""
    try:
        doc = json.loads(body) if status == 200 else None
    except ValueError:
        doc = None
    if doc is None or any(doc.get(k) != v for k, v in fields.items()):
        ops.fail(f"{what}: status {status}, body {body[:200]!r}")
        return None
    return doc


def mentions(node, term):
    """Whether a published cluster node names `term` in any chunk."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("domain", "terms") and isinstance(value, list) and term in value:
                return True
            if mentions(value, term):
                return True
    elif isinstance(node, list):
        return any(mentions(v, term) for v in node)
    return False


def check_read(ops, status, body, term, full):
    if status != 200 or not body.startswith(b"{") or b'"clusters"' not in body[:200]:
        ops.fail(f"read term={term}: status {status}")
        return
    if full:
        doc = json.loads(body)
        if not all(mentions(c, term) for c in doc["clusters"]):
            ops.fail(f"read term={term}: a returned cluster does not mention the term")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def gen_querylog(tracer, work, seed):
    """The base is the `datagen` query-log scenario's own dataset, so every
    run starts from the same publication; the pool of records the measured
    phase sends comes from the same distribution under `seed`.  Also
    returns the term occurrences of the base, hottest term first."""
    tracer_json(tracer, "gen", "--kind", "querylog", "--records", QL_BASE,
                "--out", work / "base.dat")
    tracer_json(tracer, "gen", "--kind", "querylog", "--records", QL_POOL,
                "--seed", seed, "--out", work / "pool.dat")
    base = (work / "base.dat").read_bytes()
    occurrences = [int(t) for t in base.split()]
    freq = {}
    for t in occurrences:
        freq[t] = freq.get(t, 0) + 1
    occurrences.sort(key=lambda t: (-freq[t], t))
    return base, (work / "pool.dat").read_text().splitlines(keepends=True), occurrences


def read_terms(occurrences, rng):
    """Endless read terms drawn from the base's own term distribution, so
    hot terms (whose responses approach the whole publication) keep their
    real share.  Quantiles follow a golden-ratio sequence from a seeded
    start: every prefix covers the popularity range evenly, which keeps the
    read mix of short and long runs alike."""
    q = rng.random()
    while True:
        yield occurrences[int(q * len(occurrences))]
        q = (q + 0.6180339887498949) % 1.0


class Pool:
    """Hands out consecutive records of the pool as request bodies."""

    def __init__(self, lines):
        self.lines = lines
        self.next = 0

    def take(self, n):
        """Returns (index of the first record, body), or None when empty."""
        first = self.next
        if first + n > len(self.lines):
            return None
        self.next += n
        return first, "".join(self.lines[first:first + n]).encode()


# ---------------------------------------------------------------------------
# batch-quest
# ---------------------------------------------------------------------------


def batch_quest(args, disassoc, tracer, work, ops):
    gen = tracer_json(tracer, "gen", "--kind", "quest", "--records", QUEST_RECORDS,
                      "--seed", args.seed, "--out", work / "quest.dat")
    inputs = {"quest.dat": {"records": int(gen["records"]), "bytes": int(gen["bytes"])}}
    ingest = [str(disassoc), "ingest", "--input", "quest.dat", "--store", "store"]
    anonymize = [str(disassoc), "anonymize", "--store", "store", "--k", "5", "--m", "2",
                 "--threads", "2", "--out-prefix", "pub"]

    def run_checked(cmd, expect):
        ops.attempted += 1
        wall, rc, out, rss = run_program(cmd, work)
        if rc != 0 or expect not in out:
            ops.fail(f"{cmd[1]}: exit {rc}, output {out.strip()!r}")
        return wall, rss

    setups = []
    for _ in range(1 if args.trace else SETUP_REPS):
        shutil.rmtree(work / "store", ignore_errors=True)
        setups.append(run_checked(ingest, f"ingested {QUEST_RECORDS} records")[0])
    anon_expect = f"anonymized {QUEST_RECORDS} records"

    if args.trace:
        anon_s, rss = run_checked(anonymize, anon_expect)
        layers = tracer_json(tracer, "replay-batch", "--input", work / "quest.dat",
                             "--dir", work / "replay", "--threads", 2,
                             "--expect", work / "pub.chunks.json",
                             "--spans", trace_path(args))
        e2e = setups[0] + anon_s
        layers["trace.unattributed_frac"] = (e2e - layers.pop("attributed_s")) / e2e
        layers["proc.rss.peak_mb"] = rss
        verify_publication(tracer, ops, work / "pub.chunks.json", QUEST_RECORDS)
        return inputs, layers, {}

    writes, reads = [], []
    start = time.perf_counter()
    while True:
        wall, _ = run_checked(anonymize, anon_expect)
        writes.append(wall)
        r_wall, _ = run_checked(
            [str(disassoc), "reconstruct", "--chunks", "pub.chunks.json", "--out", "recon.dat",
             "--seed", str(len(reads))], "reconstruction 0")
        reads.append(r_wall)
        with open(work / "recon.dat", "rb") as f:
            if sum(1 for _ in f) != QUEST_RECORDS:
                ops.fail("reconstruction does not hold every record")
        elapsed = time.perf_counter() - start
        if len(writes) >= 3 and elapsed + wall + r_wall > args.seconds:
            break
    out_bytes = (work / "pub.chunks.json").stat().st_size
    verify_publication(tracer, ops, work / "pub.chunks.json", QUEST_RECORDS)
    metrics = {
        "setup_s": median(setups),
        "records_per_s": median([QUEST_RECORDS / w for w in writes]),
        "write_p50_ms": 1e3 * median(writes),
        "write_tail_ms": 1e3 * pct(writes, 0.75),
        "read_p50_ms": 1e3 * median(reads),
        "read_tail_ms": 1e3 * pct(reads, 0.75),
        "output_bytes_per_input_byte": out_bytes / gen["bytes"],
    }
    return inputs, metrics, {"anonymize_s": writes, "reconstruct_s": reads, "ingest_s": setups}


def verify_publication(tracer, ops, path, records):
    ops.attempted += 1
    v = tracer_json(tracer, "verify", "--chunks", path, "--records", records)
    if v["ok"] != 1:
        ops.fail(f"committed publication {path.name}: {v}")


def trace_path(args):
    d = OUT_DIR / "traces"
    d.mkdir(parents=True, exist_ok=True)
    return d / f"{args.workload}-seed{args.seed}.spans.jsonl"


# ---------------------------------------------------------------------------
# The daemon workloads
# ---------------------------------------------------------------------------


def daemon_setup(disassoc, data_dir, base, ops):
    """Starts a daemon on a fresh data dir, ingests the base and anonymizes
    it; returns (daemon, set-up seconds, base ingest seconds)."""
    t0 = time.perf_counter()
    daemon = Daemon(disassoc, data_dir)
    try:
        ops.attempted += 2
        status, body, sent, done = daemon.request("POST", "/datasets/q/records", base)
        expect_json(ops, "base ingest", status, body, appended=QL_BASE, total=QL_BASE)
        ingest_s = done - sent
        status, body, _, _ = daemon.request("POST", "/datasets/q/anonymize?k=5&m=2")
        expect_json(ops, "anonymize", status, body, records=QL_BASE)
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - t0, ingest_s


def health_floor_ms(daemon, ops):
    lat = []
    for _ in range(HEALTH_PROBES):
        ops.attempted += 1
        status, _, sent, done = daemon.request("GET", "/healthz")
        if status != 200:
            ops.fail(f"healthz status {status}")
        lat.append(1e3 * (done - sent))
        time.sleep(0.01)
    return median(lat)


def final_checks(daemon, tracer, ops, data_dir, expected_total, published_records):
    """The acknowledged total equals the dataset's total, and the committed
    publication verifies and covers what it should."""
    ops.attempted += 1
    status, body, _, _ = daemon.request("GET", "/datasets/q")
    expect_json(ops, "dataset summary", status, body, records=expected_total)
    verify_publication(tracer, ops, data_dir / "q" / "publication.chunks.json", published_records)


def daemon_workload(args, disassoc, tracer, work, ops):
    base, pool_lines, occurrences = gen_querylog(tracer, work, args.seed)
    inputs = {"base.dat": {"records": QL_BASE, "bytes": len(base)},
              "pool.dat": {"records": QL_POOL, "bytes": (work / "pool.dat").stat().st_size}}
    rng = random.Random(args.seed)
    terms = read_terms(occurrences, rng)
    pool = Pool(pool_lines)
    appending = args.workload == "append-querylog"

    setups = []
    reps = 1 if args.trace else SETUP_REPS
    daemon = None
    try:
        for rep in range(reps):
            data_dir = work / f"data{rep}"
            daemon, setup_s, base_ingest_s = daemon_setup(disassoc, data_dir, base, ops)
            setups.append(setup_s)
            if rep + 1 < reps:
                daemon.stop()
                daemon = None
                shutil.rmtree(data_dir)
        shutil.copyfile(data_dir / "q" / "publication.chunks.json", work / "base.pub.json")
        floor_ms = health_floor_ms(daemon, ops) if args.trace else None

        # Replayed by the tracer: "I first n" and "A first n" send pool
        # records first..first+n, "R t" reads term t, "P" re-anonymizes.
        script = []
        total = QL_BASE
        if appending:
            writes, reads, appended_bytes = [], [], 0
            start = time.perf_counter()
            while (len(writes) < TRACE_APPENDS if args.trace
                   else time.perf_counter() - start < args.seconds):
                taken = pool.take(APPEND_RECORDS)
                if taken is None:
                    break
                first, body = taken
                ops.attempted += 1
                status, resp, sent, done = daemon.request(
                    "POST", "/datasets/q/append?k=5&m=2", body)
                if expect_json(ops, "append", status, resp, appended=APPEND_RECORDS):
                    total += APPEND_RECORDS
                writes.append(done - sent)
                appended_bytes += len(body)
                script.append(f"A {first} {APPEND_RECORDS}")
                for _ in range(READS_PER_APPEND):
                    term = next(terms)
                    ops.attempted += 1
                    status, resp, sent, done = daemon.request(
                        "GET", f"/datasets/q/chunks?term={term}")
                    check_read(ops, status, resp, term, full=len(reads) < 2)
                    reads.append(done - sent)
                    script.append(f"R {term}")
            write_tail, read_tail = 0.75, 0.75
            published = total
            input_bytes = len(base) + appended_bytes
            late = []
            write_records = [APPEND_RECORDS] * len(writes)
        else:
            results, late = open_loop(daemon, pool, terms, rng, ops,
                                      args.seconds / 2 if args.trace else args.seconds)
            writes = [r["service"] if args.trace else r["latency"]
                      for r in results if r["kind"] == "I"]
            reads = [r["service"] if args.trace else r["latency"]
                     for r in results if r["kind"] == "R"]
            write_records = [r["n"] for r in results if r["kind"] == "I"]
            acked = [r for r in results if r["kind"] == "I" and r["ok"]]
            total += sum(r["n"] for r in acked)
            # Two connections may reorder ingests; the acknowledged totals
            # give the order the store applied them in.
            script = [f"I {r['first']} {r['n']}" for r in sorted(acked, key=lambda r: r["total"])]
            script += [f"R {r['term']}" for r in results if r["kind"] == "R"]
            write_tail, read_tail = 0.99, 0.90
            # Hot and cold terms alike: validate a few responses in full.
            for term in (occurrences[0], next(terms), occurrences[-1]):
                ops.attempted += 1
                status, resp, _, _ = daemon.request("GET", f"/datasets/q/chunks?term={term}")
                check_read(ops, status, resp, term, full=True)
            # Re-publish, so the committed publication must cover every
            # acknowledged record.
            ops.attempted += 1
            status, resp, _, _ = daemon.request("POST", "/datasets/q/anonymize?k=5&m=2")
            expect_json(ops, "re-anonymize", status, resp, records=total)
            script.append("P")
            published = total
            input_bytes = len(base) + sum(r["bytes"] for r in acked)

        final_checks(daemon, tracer, ops, data_dir, total, published)
        out_bytes = (data_dir / "q" / "publication.chunks.json").stat().st_size
        rss = daemon.vmhwm_mb()
        daemon.stop()
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()

    raw = {"setup_s": setups, "write_s": writes, "read_s": reads, "late_s": late}
    if args.trace:
        (work / "script.txt").write_text("".join(line + "\n" for line in script))
        cmd = ["replay-daemon", "--base", work / "base.dat", "--pool", work / "pool.dat",
               "--script", work / "script.txt", "--dir", work / "replay",
               "--expect-base", work / "base.pub.json",
               "--expect-final", data_dir / "q" / "publication.chunks.json",
               "--spans", trace_path(args)]
        layers = tracer_json(tracer, *cmd)
        if int(layers.pop("records_total")) != total:
            ops.fail("replayed store total differs from the daemon's")
        replay_writes = layers.pop("attributed_A" if appending else "attributed_I")
        replay_reads = layers.pop("attributed_R")
        layers.pop("attributed_I" if appending else "attributed_A")
        e2e = sum(writes) + sum(reads)
        layers["trace.unattributed_frac"] = (e2e - sum(replay_writes) - sum(replay_reads)) / e2e
        layers["serve.http.floor_ms_p50"] = floor_ms
        layers["proc.rss.peak_mb"] = rss
        layers["serve.residual.read_ms_p50"] = 1e3 * (median(reads) - median(replay_reads))
        if appending:
            base_replay = layers.pop("attributed_base_ingest")
            layers["serve.residual.ingest_ms_p50"] = 1e3 * (base_ingest_s - base_replay)
        else:
            layers.pop("attributed_base_ingest")
            layers["serve.residual.ingest_ms_p50"] = 1e3 * (median(writes) - median(replay_writes))
            layers["loadgen.late.ms_p99"] = 1e3 * pct(late, 0.99)
        return inputs, layers, raw

    metrics = {
        "setup_s": median(setups),
        "records_per_s": median([n / w for n, w in zip(write_records, writes)]),
        "write_p50_ms": 1e3 * median(writes),
        "write_tail_ms": 1e3 * pct(writes, write_tail),
        "read_p50_ms": 1e3 * median(reads),
        "read_tail_ms": 1e3 * pct(reads, read_tail),
        "output_bytes_per_input_byte": out_bytes / input_bytes,
    }
    return inputs, metrics, raw


def open_loop(daemon, pool, terms, rng, ops, seconds):
    """Fixed-rate open loop from at most `nproc` connections (2 at most):
    each request is timed from its due time, so a stall also charges the
    requests queued behind it.  Request i is due at a seeded random point
    of its 1/rate slot; exact spacing would lock onto the daemon's 25 ms
    accept poll and make the latency of a whole run depend on one phase.
    Returns per-request results and how late the generator sent each one."""
    n = max(1, int(seconds * SERVE_RATE))
    plan = []
    for i in range(n):
        if i % READ_EVERY == READ_EVERY - 1:
            plan.append({"kind": "R", "term": next(terms), "n": 0})
        else:
            size = rng.randint(1, INGEST_MAX_RECORDS)
            taken = pool.take(size)
            if taken is None:
                raise Failure("record pool exhausted")
            first, body = taken
            plan.append({"kind": "I", "n": size, "first": first, "body": body,
                         "bytes": len(body)})
        plan[-1]["due"] = (i + rng.random()) / SERVE_RATE
    lock = threading.Lock()
    state = {"next": 0}
    t0 = time.perf_counter() + 0.2

    def worker():
        while True:
            with lock:
                i = state["next"]
                state["next"] += 1
            if i >= n:
                return
            req = plan[i]
            due = t0 + req["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            elif -delay > OVERRUN_S:
                # The daemon fell this far behind: give up on the request
                # (it counts as failed) rather than outlive the run budget.
                req.update(resp=(0, b"not sent"), latency=-delay, service=0.0, late=-delay)
                continue
            if req["kind"] == "I":
                status, body, sent, done = daemon.request(
                    "POST", "/datasets/q/records", req.pop("body"))
                req["resp"] = (status, body)
            else:
                status, body, sent, done = daemon.request(
                    "GET", f"/datasets/q/chunks?term={req['term']}")
                req["resp"] = (status, body[:200])
            req.update(latency=done - due, service=done - sent, late=sent - due)

    threads = [threading.Thread(target=worker) for _ in range(min(2, len(os.sched_getaffinity(0))))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for req in plan:
        status, body = req.pop("resp")
        ops.attempted += 1
        if req["kind"] == "I":
            doc = expect_json(ops, "ingest", status, body, appended=req["n"])
            req["ok"] = doc is not None
            req["total"] = doc["total"] if doc else 0
        else:
            check_read(ops, status, body, req["term"], full=False)
    return plan, [r["late"] for r in plan]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

WORKLOADS = {
    "batch-quest": batch_quest,
    "append-querylog": daemon_workload,
    "serve-querylog": daemon_workload,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    disassoc, tracer = build()

    tmp_root = OUT_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    ops = Ops()
    try:
        inputs, computed, raw = WORKLOADS[args.workload](args, disassoc, tracer, work, ops)
    except Failure as e:
        ops.fail(str(e))
        inputs, computed, raw = {}, {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = ops.failed == 0
    metrics = {}
    if correct:
        for m in wanted:
            # A layer the workload never runs reports zero work.
            metrics[m["name"]] = {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
    result = {"correct": correct, "attempted": max(ops.attempted, 1),
              "failed": ops.failed, "metrics": metrics}
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"header": run_header(args, inputs), "result": result,
              "failures": ops.notes, "raw": raw}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
