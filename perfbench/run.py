#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer figures for four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload report-medium-serial --seed 42 --seconds 20 --trace 0

It builds `perfbench/acbench` (and the libraries under `src/`) into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`), runs
repetitions of the workload for `--seconds` seconds (at least three), each
repetition in its own process, checks every repetition's outputs, and prints
the provenance line and then one JSON result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (medians over the
repetitions); with `--trace 1` traced and untraced repetitions alternate and
the metrics are the per-layer ones (medians over the traced repetitions).
`--workload all` runs every workload in turn. `--corrupt` is the self-check:
it flips one byte of the first repetition's output, which must make the
result report incorrect outputs. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 42
MIN_REPS = 3
REP_TIMEOUT_S = 60
FAILOVER_ROUNDS = 4
# serve-medium: keep-alive connections of the one single-threaded client
# process. The client and, once it listens, the server are pinned to one
# core, and the client polls without sleeping and yields the core while a
# reply is pending. A request and its reply then never wait for an idle
# core to wake, which on a shared virtual machine takes a varying while.
CLIENT_CONNS = 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def fnv1a(data):
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# Build and provenance.

def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/; run from a full checkout of the repository")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "acbench", "-j", str(nproc())],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "acbench")


def source_digest():
    """sha256 over every file of src/ and perfbench/ (path and bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return rev.stdout.strip() or None


def provenance(binary):
    out = subprocess.run([binary, "provenance"], check=True, capture_output=True, text=True)
    prov = json.loads(out.stdout)
    flags = prov["flags"]
    if (prov["build_type"].lower() == "debug" or not prov["optimized"] or prov["sanitized"]
            or "-O0" in flags.split() or "-fsanitize" in flags):
        fail("refusing to record results from a %s build (flags '%s')"
             % (prov["build_type"], flags))
    prov.update(host=socket.gethostname(), nproc=nproc(), cpu=cpu_model(),
                source_digest=source_digest(), git_rev=git_rev())
    return prov


# --------------------------------------------------------------------------
# Output checks. Each returns a list of (ok, description) pairs; every pair
# counts toward attempted, every false one toward failed.

FIGURE_HEADERS = {
    "fig02a_root_geographic_inflation.csv": "series,inflation_ms,cdf",
    "fig02b_root_latency_inflation.csv": "series,inflation_ms,cdf",
    "fig03_queries_per_user.csv": "series,queries_per_user_day,cdf",
    "fig05a_cdn_geographic_inflation.csv": "series,inflation_ms,cdf",
    "fig05b_cdn_latency_inflation.csv": "series,inflation_ms,cdf",
    "fig06a_as_path_lengths.csv": "destination,bucket,share",
    "fig07a_size_latency_efficiency.csv": "deployment,sites,median_ms,efficiency",
    "fig07b_coverage.csv": "deployment,radius_km,covered_fraction",
}
CDF_POINTS = 200


def grouped_rows(text):
    """Data rows grouped by their first field, in first-seen order."""
    groups = {}
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        groups.setdefault(fields[0], []).append(fields[1:])
    return groups


def check_cdf_file(name, text, inflation):
    results = []
    for series, rows in grouped_rows(text).items():
        what = "%s series %s" % (name, series)
        try:
            xs = [float(r[0]) for r in rows]
            ys = [float(r[1]) for r in rows]
            ok = (all(len(r) == 2 for r in rows) and len(rows) == CDF_POINTS and ys[0] == 0.0
                  and all(b > a for a, b in zip(ys, ys[1:])) and ys[-1] <= 1.0
                  and all(b >= a for a, b in zip(xs, xs[1:]))
                  and (not inflation or xs[0] >= 0.0))
        except (ValueError, IndexError):
            ok = False
        results.append((ok, what + ": not a 200-point CDF rising from 0 to <=1"))
    return results


def check_report(directory):
    results = []
    files = sorted(os.listdir(directory))
    results.append((files == sorted(FIGURE_HEADERS), "figure files %s" % files))
    texts = {}
    for name, header in FIGURE_HEADERS.items():
        path = os.path.join(directory, name)
        text = open(path, encoding="utf-8", errors="replace").read() if os.path.exists(path) else ""
        texts[name] = text
        results.append((text.split("\n", 1)[0] == header, name + ": header"))
    for name in FIGURE_HEADERS:
        if name.startswith(("fig02", "fig03", "fig05")):
            results += check_cdf_file(name, texts[name], inflation=name.startswith(("fig02", "fig05")))
    for dest, rows in grouped_rows(texts["fig06a_as_path_lengths.csv"]).items():
        try:
            ok = ([r[0] for r in rows] == ["2", "3", "4", "5+"]
                  and abs(sum(float(r[1]) for r in rows) - 1.0) < 1e-6)
        except (ValueError, IndexError):
            ok = False
        results.append((ok, "fig06a %s: shares do not sum to 1" % dest))
    for dep, rows in grouped_rows(texts["fig07a_size_latency_efficiency.csv"]).items():
        try:
            ok = len(rows) == 1 and 0.0 < float(rows[0][2]) <= 1.0
        except (ValueError, IndexError):
            ok = False
        results.append((ok, "fig07a %s: efficiency outside (0,1]" % dep))
    for dep, rows in grouped_rows(texts["fig07b_coverage.csv"]).items():
        try:
            radii = [float(r[0]) for r in rows]
            covered = [float(r[1]) for r in rows]
            ok = (all(b > a for a, b in zip(radii, radii[1:]))
                  and all(0.0 <= c <= 1.0 for c in covered)
                  and all(b >= a for a, b in zip(covered, covered[1:])))
        except (ValueError, IndexError):
            ok = False
        results.append((ok, "fig07b %s: coverage not in [0,1] or falls with radius" % dep))
    return results


STEP_HEADER = ("step,target,events,active_sites,reach_fraction,median_rtt_ms,p90_rtt_ms,"
               "median_inflation_ms,shifted_share,stranded_share,max_site_share,"
               "ases_touched,cache_invalidated")
# Columns a round end must reproduce from step 0: active_sites, reach_fraction,
# median_rtt_ms, p90_rtt_ms, median_inflation_ms, max_site_share.
BASELINE_COLUMNS = (3, 4, 5, 6, 7, 10)


def check_failover(text):
    """The step CSV: round-end rows (every 4th step) repeat step 0's rows."""
    lines = text.split("\n")
    results = [(lines[0] == STEP_HEADER, "step CSV header")]
    by_step = {}
    for line in lines[1:]:
        if not line:
            continue
        # The quoted events field holds no commas (events are ';'-joined).
        fields = line.split(",")
        try:
            by_step.setdefault(int(fields[0]), []).append(fields)
        except ValueError:
            results.append((False, "step CSV row %r" % line[:60]))
    last = FAILOVER_ROUNDS * 4
    results.append((sorted(by_step) == list(range(last + 1)), "step CSV steps"))
    baseline = [[f[1]] + [f[i] for i in BASELINE_COLUMNS] for f in by_step.get(0, [])
                if len(f) == 13]
    for step in range(4, last + 1, 4):
        rows = [[f[1]] + [f[i] for i in BASELINE_COLUMNS] for f in by_step.get(step, [])
                if len(f) == 13]
        results.append((bool(rows) and rows == baseline, "step %d differs from step 0" % step))
    return results


def flip_middle_byte(path):
    with open(path, "r+b") as f:
        data = bytearray(f.read())
        data[len(data) // 2] ^= 0x01
        f.seek(0)
        f.write(data)


# --------------------------------------------------------------------------
# Repetitions. Each returns a dict: e2e, layers, checks [(ok, what)], outputs.

def run_json(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (cmd[1], out.returncode, out.stderr.strip()))
    return json.loads(out.stdout.strip().splitlines()[-1])


def from_acbench(res):
    checks = [(True, "")] * (res["attempted"] - res["failed"])
    checks += [(False, f) for f in res["failures"]]
    checks += [(False, "unlisted failure")] * (res["failed"] - len(res["failures"]))
    return {"e2e": res["e2e"], "layers": res["layers"], "checks": checks,
            "outputs": dict(res["outputs"])}


class ReportWorkload:
    def __init__(self, tier, threads):
        self.tier = tier
        self.threads = threads

    def start(self, ctx):
        pass

    def repetition(self, ctx, index, traced, corrupt):
        out = os.path.join(ctx.work, "report-%d" % index)
        cmd = [ctx.binary, "report", "--tier", self.tier, "--threads", str(self.threads),
               "--seed", str(ctx.seed), "--out", out] + (["--trace"] if traced else [])
        rep = from_acbench(run_json(cmd))
        if corrupt:
            flip_middle_byte(os.path.join(out, "fig02a_root_geographic_inflation.csv"))
        rep["checks"] += check_report(out)
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                rep["outputs"][name] = fnv1a(f.read())
        shutil.rmtree(out)
        return rep

    def stop(self):
        pass


class FailoverWorkload:
    def start(self, ctx):
        pass

    def repetition(self, ctx, index, traced, corrupt):
        out = os.path.join(ctx.work, "steps-%d.csv" % index)
        cmd = [ctx.binary, "failover", "--threads", str(nproc()), "--seed", str(ctx.seed),
               "--rounds", str(FAILOVER_ROUNDS), "--out", out] + (["--trace"] if traced else [])
        rep = from_acbench(run_json(cmd))
        if corrupt:
            flip_middle_byte(out)
        with open(out, "rb") as f:
            data = f.read()
        os.remove(out)
        rep["checks"] += check_failover(data.decode("utf-8", errors="replace"))
        rep["outputs"]["steps.csv"] = fnv1a(data)
        return rep

    def stop(self):
        pass


def serve_core():
    """The core the serve client and server share: the highest one allowed."""
    return max(os.sched_getaffinity(0))


def pin_process(pid, core):
    """Pins every thread of a process to one core; threads it starts later
    inherit the core from the thread that starts them."""
    for tid in os.listdir("/proc/%d/task" % pid):
        os.sched_setaffinity(int(tid), {core})


class LineProcess:
    """A child process spoken to by lines, with a deadline on every read."""

    def __init__(self, cmd):
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.buffer = b""

    def send(self, line):
        self.proc.stdin.write((line + "\n").encode())
        self.proc.stdin.flush()

    def read_line(self, timeout=REP_TIMEOUT_S):
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError("timed out waiting for %s" % self.proc.args[1])
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    raise RuntimeError("%s exited early" % self.proc.args[1])
                self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class ServeWorkload:
    """One server process per repetition; one client process for the run,
    restarted after any repetition that fails."""

    def __init__(self):
        self.client = None
        self.snapshot = None

    def start(self, ctx):
        # Rebuilt per invocation inside the run's own work directory, which is
        # deleted at exit: never stale across source changes, never piled up.
        self.snapshot = os.path.join(ctx.work, "serve-%d.acx" % ctx.seed)
        run_json([ctx.binary, "snapshot", "--seed", str(ctx.seed), "--threads", str(nproc()),
                  "--out", self.snapshot])
        self.start_client(ctx)

    def start_client(self, ctx):
        self.client = LineProcess([ctx.binary, "client", "--snapshot", self.snapshot,
                                   "--seed", str(ctx.seed), "--conns", str(CLIENT_CONNS)])
        os.sched_setaffinity(self.client.proc.pid, {serve_core()})
        if self.client.read_line() != "ready":
            raise RuntimeError("client did not become ready")

    def repetition(self, ctx, index, traced, corrupt):
        server = LineProcess([ctx.binary, "server", "--snapshot", self.snapshot,
                              "--threads", str(nproc())] + (["--trace"] if traced else []))
        ok = False
        try:
            words = server.read_line().split()
            if len(words) != 2 or words[0] != "listening":
                raise RuntimeError("server did not start: %r" % words)
            pin_process(server.proc.pid, serve_core())
            self.client.send("run %s%s" % (words[1], " corrupt" if corrupt else ""))
            client_rep = from_acbench(json.loads(self.client.read_line()))
            server.send("stop")
            server_rep = from_acbench(json.loads(server.read_line()))
            if server.proc.wait(timeout=REP_TIMEOUT_S) != 0:
                raise RuntimeError("server exited %d" % server.proc.returncode)
            rep = server_rep
            rep["e2e"]["work_s"] = client_rep["e2e"]["work_s"]
            rep["layers"].update(client_rep["layers"])
            rep["checks"] += client_rep["checks"]
            rep["outputs"].update(client_rep["outputs"])
            ok = all(c[0] for c in rep["checks"])
            return rep
        finally:
            server.close()
            if not ok:
                self.client.close()
                self.start_client(ctx)

    def stop(self):
        if self.client is not None:
            self.client.close()


WORKLOADS = {
    "report-medium-serial": lambda: ReportWorkload("medium", 1),
    "report-large-parallel": lambda: ReportWorkload("large", nproc()),
    "failover-medium": FailoverWorkload,
    "serve-medium": ServeWorkload,
}


# --------------------------------------------------------------------------
# One run: repetitions, cross-repetition checks, medians.

class Context:
    def __init__(self, binary, seed, work):
        self.binary = binary
        self.seed = seed
        self.work = work


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_golden(workload, seed):
    with open(os.path.join(HERE, "golden.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def run_workload(name, binary, seed, seconds, trace, corrupt, spec):
    work = os.path.join(os.path.dirname(build_dir()), "perfbench-work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    workload = WORKLOADS[name]()
    ctx = Context(binary, seed, work)
    reps = []
    errors = []
    try:
        workload.start(ctx)
        began = time.monotonic()
        durations = []
        index = 0
        # At least MIN_REPS; past that, start another repetition only if a
        # typical one still ends within --seconds.
        while (len(reps) < MIN_REPS
               or time.monotonic() - began + statistics.median(durations) <= seconds):
            traced = trace and index % 2 == 1
            started = time.monotonic()
            try:
                rep = workload.repetition(ctx, index, traced, corrupt and index == 0)
            except (OSError, RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as e:
                errors.append(str(e))
                rep = None
            durations.append(time.monotonic() - started)
            if rep is not None:
                rep["traced"] = traced
                reps.append(rep)
            index += 1
            if len(errors) >= MIN_REPS:
                break
    finally:
        workload.stop()
        shutil.rmtree(work, ignore_errors=True)

    checks = [(False, "repetition failed: " + e) for e in errors]
    for rep in reps:
        checks += rep["checks"]
    # Every repetition of one (workload, seed) produces the same bytes.
    for i, rep in enumerate(reps[1:], start=1):
        checks.append((rep["outputs"] == reps[0]["outputs"],
                       "repetition %d outputs differ from repetition 0" % i))
    golden = load_golden(name, seed)
    if golden is not None and reps:
        checks.append((reps[0]["outputs"] == golden, "outputs differ from the committed hashes"))
    attempted = len(checks)
    failures = [what for ok, what in checks if not ok]

    if trace:
        traced = [r for r in reps if r["traced"]]
        plain = [r for r in reps if not r["traced"]]
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # All layers come from one traced repetition, the one with the median
        # wall time, so the breakdown adds up exactly.
        middle = sorted(traced, key=lambda r: r["e2e"]["wall_s"])[(len(traced) - 1) // 2:]
        layers = middle[0]["layers"] if middle else {}
        metrics = {metric: layers.get(metric, 0.0) for metric in names}
        if traced and plain:
            metrics["trace.overhead_s"] = (statistics.median(r["e2e"]["wall_s"] for r in traced)
                                           - statistics.median(r["e2e"]["wall_s"] for r in plain))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {m: statistics.median(r["e2e"][m] for r in reps) if reps else 0.0
                   for m in names}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in names},
    }
    log("%s seed %d: %d repetitions (%d traced), %d checks, %d failed"
        % (name, seed, len(reps), sum(r["traced"] for r in reps), attempted, len(failures)))
    for what in failures[:10]:
        log("  FAILED: " + what)
    for m in names:
        log("  %-36s %14.6g %s" % (m, metrics[m], units[m]))
    if reps:
        log("  outputs: " + json.dumps(reps[0]["outputs"], sort_keys=True))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-check: flip one byte of the first repetition's output")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    prov = provenance(binary)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, binary, args.seed, args.seconds, bool(args.trace), args.corrupt,
                            spec) for n in names]
    print("provenance " + json.dumps(prov, sort_keys=True))
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
