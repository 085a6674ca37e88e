#!/usr/bin/env python3
"""End-to-end benchmark of `cubelsi-search`.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload build|serve_small|serve_scan \\
        --seed N --seconds S --trace 0|1

The benchmark builds the release binary and the `perfbench` helper from
source, generates its inputs from `--seed`, and drives the real binary
from outside: `build` for the offline path and `serve` on loopback with
an open-loop, Zipf-skewed query stream for the online path. Every reply
is checked against the exhaustive oracle. The last line of stdout is one
JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`). See NOTES.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Latency limit for a ladder step to pass, on its p99 (ms).
LIMIT_MS = 1.0
# A run whose generator is later than this at the reference rate (median
# over windows of the p99 lateness, ms) is marked invalid in its stamp: a
# starved generator must never pass for a slow server.
LATE_LIMIT_MS = 1.0
# Generator seed of the corpora and their query pools. Both are fixed per
# workload so that run-to-run spread measures the program rather than
# input luck; `--seed` draws the query stream.
CORPUS_SEED = 2011
# The end-to-end metrics (`--trace 0`). The tail metrics of the serve
# path (query_p99_ms, max_qps, reload_query_p99_ms) are measured and
# stamped on every run, and reported per layer in traced runs, but carry
# no bound: host stalls swing them by more than any bound allows.
E2E = ["setup_s", "build_s", "build_peak_rss_mb", "artifact_mb", "query_p50_ms",
       "serve_rss_mb", "reload_ms"]
# Serve setups measured per run (the last one is the measured server).
SETUPS = 5
# CLI builds per run at least (each workload reports the build metrics).
MIN_BUILDS = 3
# Serving is measured in rounds of about ROUND_S seconds: three reference
# windows (REF_S each), one ladder pass (steps of at least STEP_S and
# 1000 requests), a reload window (RELOAD_S) and settle windows.
ROUND_S = 6.0
REF_S = 0.4
STEP_S = 0.3
RELOAD_S = 1.0
SETTLE_S = 0.2

# Per workload:
#   corpus      — generator family (see `perfbench gen`);
#   build       — extra `cubelsi-search build` flags;
#   top         — `serve --top`;
#   build_share — share of the run spent on repeated builds;
#   ref         — the reference rate (a quarter to a third of the rate
#                 where the server saturates; see NOTES.md), queries/s;
#   ladder      — offered rates of one ladder pass, past saturation, queries/s;
#   reload_ms   — RELOAD cadence in the reload windows.
SERVE_SMALL = {
    "corpus": "delicious",
    "build": [],
    "top": 10,
    "build_share": 0.0,
    "ref": 12000,
    "ladder": [8000, 14000, 20000, 26000, 32000, 38000, 44000, 48000, 52000],
    "reload_ms": 100,
}
WORKLOADS = {
    "build": dict(SERVE_SMALL, build_share=0.6),
    "serve_small": SERVE_SMALL,
    "serve_scan": {
        "corpus": "scan",
        "build": ["--ratio", "1000", "--shards", "4"],
        "top": 100,
        "build_share": 0.0,
        "ref": 2500,
        "ladder": [2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000],
        "reload_ms": 400,
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Spans:
    """Spans recorded by the benchmark around its own steps (trace runs)."""

    def __init__(self, on):
        self.on = on
        self.epoch = time.perf_counter_ns()
        self.spans = []
        self.stack = []

    def begin(self, name):
        if not self.on:
            return None
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, time.perf_counter_ns() - self.epoch, None])
        self.stack.append(sid)
        return sid

    def end(self, sid):
        if sid is None:
            return
        self.stack.pop()
        self.spans[sid][3] = time.perf_counter_ns() - self.epoch

    def write(self, path):
        with open(path, "w") as f:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                    "start_ns": start, "end_ns": end}) + "\n")


class Tally:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


def median(xs):
    return statistics.median(xs)


def build_binaries():
    """Builds `cubelsi-search` and the helper from source (release)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "cubelsi-search"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", str(BENCH / "Cargo.toml")]):
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    return target / "release" / "cubelsi-search", target / "release" / "perfbench"


def tool_json(cmd, timeout=150):
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=timeout).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_build(cli, tsv, out, flags):
    """One `cubelsi-search build`: (setup_s, build_s, peak RSS MB, fit, K)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([str(cli), "build", *flags, str(tsv), str(out)],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    t_clean = fit = k = None
    for line in p.stderr:
        if line.startswith("cleaned ") and t_clean is None:
            t_clean = time.perf_counter()
        elif line.startswith("built "):
            # "built   fit 0.063, 10 concepts"
            words = line.replace(",", " ").split()
            fit, k = words[2], int(words[3])
    _, status, usage = os.wait4(p.pid, 0)
    t_end = time.perf_counter()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0 or t_clean is None:
        raise RuntimeError(f"build of {tsv} failed with {p.returncode}")
    return t_clean - t0, t_end - t_clean, usage.ru_maxrss / 1024.0, fit, k


def source_bytes(path):
    """Bytes on disk of an artifact, or of a manifest plus its shards."""
    total = path.stat().st_size
    for shard in path.parent.glob(path.name + ".shard*"):
        total += shard.stat().st_size
    return total


class Server:
    """A running `cubelsi-search serve` on an ephemeral loopback port."""

    def __init__(self, cli, source, top, log_path):
        self.t0 = time.perf_counter()
        self.err = open(log_path, "a")
        self.proc = subprocess.Popen(
            [str(cli), "serve", "--listen", "127.0.0.1:0", "--top", str(top), str(source)],
            stdout=subprocess.PIPE, stderr=self.err, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening "):
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}")
        host, port = line.split()[1].rsplit(":", 1)
        self.addr = (host, int(port))

    def request(self, text, until=None):
        """Sends one request on a fresh connection; returns the reply
        line, or every line up to and including `until`."""
        with socket.create_connection(self.addr, timeout=30) as s:
            s.sendall(text.encode() + b"\n")
            f = s.makefile("r")
            if until is None:
                return f.readline().rstrip("\n")
            lines = []
            for line in f:
                lines.append(line.rstrip("\n"))
                if line.rstrip("\n") == until:
                    break
            return lines

    def first_ok(self, probe):
        """Seconds from spawn to the first OK reply to `probe`."""
        reply = self.request(probe)
        return time.perf_counter() - self.t0, reply.startswith("OK\t")

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def metrics(self):
        values = {}
        for line in self.request("METRICS", until="# EOF"):
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def stop(self):
        try:
            if self.proc.poll() is None:
                self.request("SHUTDOWN")
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def phase_plan(cfg, seconds, trace):
    """The serving phases of one run, as `perfbench load --phases`.

    Rounds interleave reference windows, one pass over the whole ladder
    and a reload window, so a burst of host noise lands in a few windows
    of each kind and the medians across windows step over it. A short
    settle window (not reported) follows the ladder's overload steps and
    every reload, whose first queries run on a cold generation."""
    serve_s = seconds * (1.0 - cfg["build_share"])
    rounds = max(3, round(serve_s / ROUND_S))
    ref = cfg["ref"]
    phases = [f"warm:warm:{ref}:1"]
    for r in range(rounds):
        phases.append(f"ref{r}a:ref:{ref}:{REF_S}")
        phases += [f"p{r}s{i}:step:{rate}:{max(STEP_S, 1000 / rate):.3f}"
                   for i, rate in enumerate(cfg["ladder"])]
        phases.append(f"settle{r}a:warm:{ref}:{SETTLE_S}")
        phases.append(f"ref{r}b:ref:{ref}:{REF_S}")
        phases.append(f"reload{r}:reload:{ref}:{RELOAD_S}:{cfg['reload_ms']}")
        phases.append(f"settle{r}b:warm:{ref}:{SETTLE_S}")
        phases.append(f"ref{r}c:ref:{ref}:{REF_S}")
    if trace:
        phases.append("low:low:200:2")
    return ",".join(phases)


def max_qps(phases):
    """The offered rate at which p99 reaches LIMIT_MS. Per ladder rate,
    the p99 is the median over its passes (a rate with failed
    requests or a growing backlog in most passes counts as over the
    limit); the curve is made non-decreasing in the rate and the
    crossing interpolated linearly between ladder rates. A ladder that
    stays within the limit reports its top rate."""
    by_rate = {}
    for p in phases:
        if p["name"].startswith("p") and "s" in p["name"][1:]:
            by_rate.setdefault(p["rate"], []).append(p)
    curve = []
    for rate, steps in sorted(by_rate.items()):
        healthy = sum(1 for p in steps if p["failed"] == 0 and not p["backlog_growing"])
        p99 = median([p["p99_ms"] for p in steps])
        curve.append([rate, p99 if 2 * healthy > len(steps) else float("inf")])
    # Pool adjacent violators: the least-squares non-decreasing fit.
    blocks = []
    for rate, p99 in curve:
        blocks.append([p99, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v, n = blocks.pop()
            pv, pn = blocks.pop()
            blocks.append([pv if v == float("inf") else (pv * pn + v * n) / (pn + n), pn + n])
    fitted = [v for v, n in blocks for _ in range(n)]
    rates = [rate for rate, _ in curve]
    if fitted[0] > LIMIT_MS:
        return rates[0] * LIMIT_MS / fitted[0]
    for i in range(1, len(rates)):
        if fitted[i] > LIMIT_MS:
            lo, hi = fitted[i - 1], fitted[i]
            if hi == float("inf"):
                return rates[i - 1]
            return rates[i - 1] + (rates[i] - rates[i - 1]) * (LIMIT_MS - lo) / (hi - lo)
    return rates[-1]


def serve_part(cfg, cli, tool, work, seed, seconds, tally, spans, trace_dir):
    """Setups, then the open-loop run against one server. Returns the
    end-to-end serve metrics and the raw load report."""
    source = work / "c0" / ("m.shards" if "--shards" in cfg["build"] else "m.cubelsi")
    queries = work / "c0" / "queries.txt"
    probe = open(queries).readline().strip()
    setups = []
    for i in range(SETUPS):
        sid = spans.begin("serve.setup")
        server = Server(cli, source, cfg["top"], work / "serve.err")
        try:
            dt, ok = server.first_ok(probe)
        except OSError:
            server.stop()
            raise
        spans.end(sid)
        tally.op(ok, "setup probe reply")
        setups.append(dt)
        if i < SETUPS - 1:
            server.stop()
    try:
        sid = spans.begin("serve.load")
        cmd = [str(tool), "load", "--addr", "%s:%d" % server.addr,
               "--queries", str(queries), "--source", str(source),
               "--top", str(cfg["top"]), "--seed", str(seed),
               "--phases", phase_plan(cfg, seconds, spans.on)]
        if spans.on:
            cmd += ["--spans", str(trace_dir / "requests.jsonl")]
        # The load runs at least three rounds, and otherwise about the
        # serving share of `seconds`: allow twice both, plus the drains.
        report = tool_json(cmd, timeout=2 * (seconds + 3 * ROUND_S) + 60)
        spans.end(sid)
        sid = spans.begin("serve.scrape")
        rss = server.vm_hwm_mb()
        scraped = server.metrics()
        spans.end(sid)
    finally:
        server.stop()

    phases = report["phases"]
    by_kind = lambda prefix: [p for p in phases if p["name"].startswith(prefix)]
    refs, reloads = by_kind("ref"), by_kind("reload")
    tally.attempted += report["warmups"]
    for p in phases:
        tally.attempted += p["sent"] + p["sent_reloads"]
    tally.failed += report["failed"]
    if report["failed"]:
        tally.problems.append(f"{report['failed']} failed serve requests: {report}")
    late = median([p["late_p99_ms"] for p in refs])
    # Queries the client sent this server: the setup probe, then the
    # load generator's (its two connection warm-ups included).
    sent = report["sent_queries"] + 1
    requests = scraped.get("cubelsi_queries_total", -1)
    tally.op(requests == sent, f"METRICS queries_total {requests} != client queries {sent}")
    # Each metric keeps the samples its value is the median of.
    metrics = {
        "setup_s": (setups, "s"),
        "query_p50_ms": ([p["p50_ms"] for p in refs], "ms"),
        "query_p99_ms": ([p["p99_ms"] for p in refs], "ms"),
        "max_qps": ([max_qps(phases)], "req/s"),
        "serve_rss_mb": ([rss], "MB"),
        "reload_ms": ([x for p in reloads for x in p["reload_ms"]], "ms"),
        "reload_query_p99_ms": ([p["p99_ms"] for p in reloads], "ms"),
    }
    info = {
        "ref_samples": sum(p["samples"] for p in refs),
        "late_p99_ms": late,
        "report": report,
        "scraped": scraped,
        "requests": requests,
        "sent": sent,
    }
    return metrics, info


def e2e(cfg, cli, tool, work, seed, seconds, tally, spans, trace_dir):
    """Every end-to-end metric of one run."""
    d = work / "c0"
    if not d.exists():
        d.mkdir(parents=True)
        sid = spans.begin("gen")
        tool_json([str(tool), "gen", "--corpus", cfg["corpus"], "--seed", str(CORPUS_SEED),
                   "--out", str(d)])
        spans.end(sid)
    out = d / ("m.shards" if "--shards" in cfg["build"] else "m.cubelsi")
    builds = []
    budget = seconds * cfg["build_share"]
    t_start = time.perf_counter()
    while len(builds) < MIN_BUILDS or time.perf_counter() - t_start < budget:
        sid = spans.begin("cli.build")
        setup, build, rss, fit, k = run_build(cli, d / "corpus.tsv", out, cfg["build"])
        spans.end(sid)
        sid = spans.begin("check")
        chk = tool_json([str(tool), "check", "--source", str(out),
                         "--queries", str(d / "queries.txt"), "--top", str(cfg["top"])])
        spans.end(sid)
        tally.attempted += chk["attempted"] + 1
        tally.failed += chk["failed"]
        if chk["failed"]:
            tally.problems.append(f"artifact check of {out}: {chk}")
        builds.append({"setup": setup, "build": build, "rss": rss, "fit": fit, "k": k,
                       "bytes": source_bytes(out)})
    metrics, info = serve_part(cfg, cli, tool, work, seed, seconds, tally, spans, trace_dir)
    if cfg["build_share"] > 0:
        metrics["setup_s"] = ([b["setup"] for b in builds], "s")
    metrics["build_s"] = ([b["build"] for b in builds], "s")
    metrics["build_peak_rss_mb"] = ([b["rss"] for b in builds], "MB")
    metrics["artifact_mb"] = ([b["bytes"] / 2**20 for b in builds], "MB")
    info["builds"] = builds
    return metrics, info


def source_rev():
    """The git revision of the checkout, or a digest of the sources the
    benchmark builds when the checkout is not a git repository."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "tree:" + digest.hexdigest()[:12]


def stamped(metrics, runs):
    """The result stamp: machine, revision, run count, and per metric the
    median, quartiles, min and max of the samples behind its value."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    summary = {}
    for name, (samples, unit) in metrics.items():
        q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        summary[name] = {"unit": unit, "n": len(samples), "median": median(samples),
                         "q1": q1, "q3": q3, "min": min(samples), "max": max(samples)}
    return {"cores": os.cpu_count(), "cpu": cpu, "rev": source_rev(), "runs": runs,
            "metrics": summary}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src/bin/cubelsi-search").is_dir():
        log(f"error: {ROOT} holds no cubelsi-search sources to build")
        return 2
    cfg = WORKLOADS[args.workload]
    cli, tool = build_binaries()

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = OUT / "work" / run_id
    trace_dir = OUT / "traces" / run_id
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace == 0:
            metrics, info = e2e(cfg, cli, tool, work, args.seed, args.seconds, tally,
                                Spans(False), trace_dir)
        else:
            trace_dir.mkdir(parents=True, exist_ok=True)
            metrics, info = traced(cfg, cli, tool, work, args, tally, trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["stamp"] = stamped(metrics, 1)
    # Validity is about the measurement, `correct` about the outputs.
    info["stamp"]["valid"] = info["late_p99_ms"] <= LATE_LIMIT_MS
    info["stamp"]["generator_late_p99_ms"] = info["late_p99_ms"]
    info["stamp"]["zipf"] = info["report"]["zipf"]
    info["workload"] = {"name": args.workload, "seed": args.seed, "seconds": args.seconds}
    info["problems"] = tally.problems
    log(json.dumps(info, default=str))
    for p in tally.problems:
        log(f"problem: {p}")
    reported = metrics if args.trace else {name: metrics[name] for name in E2E}
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": round(median(samples), 6), "unit": unit}
                    for name, (samples, unit) in reported.items()},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{run_id}.json", "w") as f:
        json.dump({**result, "stamp": info["stamp"], "workload": info["workload"]}, f)
    print(json.dumps({"stamp": info["stamp"], "workload": info["workload"]}))
    print(json.dumps(result))
    return 0


def traced(cfg, cli, tool, work, args, tally, trace_dir):
    """The traced run: the end-to-end run untraced and traced (their
    difference is the tracing overhead), then the in-process layer calls."""
    plain, _ = e2e(cfg, cli, tool, work, args.seed, args.seconds, tally, Spans(False), trace_dir)
    spans = Spans(True)
    root = spans.begin("run")
    on, info = e2e(cfg, cli, tool, work, args.seed, args.seconds, tally, spans, trace_dir)
    sid = spans.begin("layers")
    d = work / "c0"
    source = d / ("m.shards" if "--shards" in cfg["build"] else "m.cubelsi")
    # The traced build repeats the CLI's `--ratio` (default 50).
    flags = cfg["build"]
    ratio = flags[flags.index("--ratio") + 1] if "--ratio" in flags else "50"
    layers = tool_json([str(tool), "trace", "--corpus", str(d / "corpus.tsv"),
                        "--ratio", ratio, "--source", str(source),
                        "--queries", str(d / "queries.txt"), "--top", str(cfg["top"]),
                        "--seed", str(args.seed), "--tmp", str(d),
                        "--spans", str(trace_dir / "layers.jsonl")])
    spans.end(sid)
    spans.end(root)
    spans.write(trace_dir / "run.jsonl")

    cli_build = info["builds"][0]
    tally.check(f"{layers['build.fit']:.3f}" == cli_build["fit"],
                f"traced fit {layers['build.fit']:.3f} != CLI fit {cli_build['fit']}")
    tally.check(layers["tensor.fit"] == layers["build.fit"],
                "stage-by-stage fit differs from the whole build")
    tally.check(int(layers["concepts.k"]) == cli_build["k"],
                f"traced K {layers['concepts.k']} != CLI K {cli_build['k']}")
    tally.check(layers["build.stage_coverage"] >= 0.5,
                f"stage spans cover {layers['build.stage_coverage']:.2f} of the build")

    report, scraped = info["report"], info["scraped"]
    low = next(p for p in report["phases"] if p["name"] == "low")
    refs = [p for p in report["phases"] if p["name"].startswith("ref")]
    per_layer = {name: ([value], unit_of(name)) for name, value in layers.items()}
    per_layer.update({
        "serve.self_us_p50": ([low["p50_ms"] * 1e3 - layers["query.search_us_p50"]], "us"),
        "serve.requests": ([info["requests"]], "count"),
        "serve.busy_rejected": ([scraped.get("cubelsi_busy_rejected_total", 0)], "count"),
        "serve.deadline_timeouts": ([scraped.get("cubelsi_deadline_timeouts_total", 0)], "count"),
        "serve.slow_client_drops": ([scraped.get("cubelsi_slow_client_drops_total", 0)], "count"),
        "serve.search_p99_us": (
            [scraped.get('cubelsi_query_latency_seconds{quantile="0.99"}', 0) * 1e6], "us"),
        "client.sent": ([info["sent"]], "count"),
        "client.failed": ([report["failed"]], "count"),
        "client.late_p99_ms": ([p["late_p99_ms"] for p in refs], "ms"),
        "query.share_of_p50": (
            [layers["query.search_us_p50"] / (median(on["query_p50_ms"][0]) * 1e3)], "ratio"),
    })
    for name in ("query_p99_ms", "max_qps", "reload_query_p99_ms"):
        per_layer[f"serve.{name}"] = on[name]
    for name in ("setup_s", "build_s", "query_p50_ms", "query_p99_ms", "reload_ms"):
        per_layer[f"trace.overhead.{name}"] = (
            [median(on[name][0]) - median(plain[name][0])], on[name][1])
    return per_layer, info


UNITS = {"_ms": "ms", "_us": "us", "_mb": "MB", "_bytes": "bytes"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if suffix in name:
            return unit
    if name.endswith(("fit", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
