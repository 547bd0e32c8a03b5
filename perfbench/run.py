#!/usr/bin/env python3
"""The repository's benchmark: one command for both pipelines.

    python3 perfbench/run.py --workload serve-miss --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds the shipped dns_server and the
benchmark's own program (perfbench/src) from source into .bench_build (or
$CARGO_TARGET_DIR), runs one workload, checks every answer and verdict, and
prints one JSON line: correct, attempted, failed and the metrics named in
BENCHMARK.json (end-to-end with --trace 0, per-layer with --trace 1). A fuller
record with host and build metadata goes to .bench_out/<run>/record.json.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-miss", "serve-hot", "serve-reload", "verify")
SETUP_STARTS = 9        # server starts per run; setup_s is their median
COMPANION_SECONDS = 4   # the verify workload's traced serve-hot pass
PROBE_QNAME = "www.example.com"
NEEDED = ("src/CMakeLists.txt", "examples/dns_server.cpp", "zones/kitchen-sink.zone",
          "zones/bug-hunt.zone", "BENCHMARK.json")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def child_env():
    # The program's own DNSV_* overrides (solver layering, store) would
    # change what is measured; the benchmark runs the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("DNSV_")}


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "dns_server", "pbtool",
                  "pbtool_traced"])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT, env=child_env()).returncode:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                fail("build failed (log: %s)" % build_log)
    return build_dir


def build_facts(build_dir):
    """Build metadata; refuses a sanitized or unoptimized build."""
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    # perfbench/CMakeLists.txt defaults an empty build type to RelWithDebInfo.
    build_type = cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo"
    flags = " ".join(cache.get(k, "") for k in ("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS"))
    info = json.loads(subprocess.run([os.path.join(build_dir, "pbtool"), "info"],
                                     capture_output=True, text=True, check=True).stdout)
    sanitizers = " ".join(re.findall(r"-fsanitize=\S+", flags))
    if build_type not in ("Release", "RelWithDebInfo") or "-O0" in flags:
        fail("refusing to measure a %s build" % build_type, 3)
    if sanitizers or info["sanitized"] or not info["optimized"]:
        fail("refusing to measure a sanitized or unoptimized build", 3)
    return {"compiler": cache.get("CMAKE_CXX_COMPILER", "") + " " + info["compiler"],
            "build_type": build_type, "sanitizers": sanitizers or "none"}


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        describe = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
        git = describe.stdout.strip() if describe.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        git = "unknown (no git)"
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": model, "kernel": platform.release(), "git_describe": git}


def cpu_times():
    """The host's aggregate CPU time counters (user ... steal), in ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_frac(before, after):
    """Share of the busy CPU time the hypervisor stole between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    busy = sum(delta) - delta[3] - delta[4]  # without idle and iowait
    return delta[7] / busy if busy > 0 else 0.0


def split_cpus():
    """Generator and server cores, disjoint when the host has two or more."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 4:
        return cpus[:2], cpus[2:4]
    if len(cpus) >= 2:
        half = len(cpus) // 2
        return cpus[:half], cpus[half:]
    return cpus, cpus


def edited_zone(text, seed):
    """kitchen-sink with one record changed: the *.dyn A address, seeded."""
    edited, n = re.subn(r"(?m)^(\*\.dyn\s+A\s+)192\.0\.2\.99\s*$",
                        lambda m: m.group(1) + "192.0.2.%d" % (100 + seed % 100), text)
    if n != 1:
        fail("zones/kitchen-sink.zone lacks the *.dyn A record the edit changes")
    return edited


def free_port():
    for _ in range(100):
        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            udp.bind(("127.0.0.1", 0))
            port = udp.getsockname()[1]
            tcp.bind(("127.0.0.1", port))
            return port
        except OSError:
            continue
        finally:
            udp.close()
            tcp.close()
    fail("no free port")


def probe_packet(qid):
    labels = b"".join(bytes([len(p)]) + p.encode() for p in PROBE_QNAME.split(".")) + b"\0"
    return struct.pack(">HHHHHH", qid, 0, 1, 0, 0, 0) + labels + struct.pack(">HH", 1, 1)


class Server:
    """The shipped dns_server on its own cores, with its defaults."""

    def __init__(self, exe, zone_path, log_path, cpus):
        self.port = free_port()
        self.log_path = log_path
        self.log = open(log_path, "w")
        self.probes = 0
        start = time.perf_counter()
        self.proc = subprocess.Popen([exe, zone_path, str(self.port)], stdin=subprocess.DEVNULL,
                                     stdout=self.log, stderr=self.log, env=child_env(),
                                     preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        try:
            self.setup_s = self._first_answer(start)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise

    def _first_answer(self, start):
        """Seconds from process start to the first answered probe."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.connect(("127.0.0.1", self.port))
        sock.settimeout(0.0002)
        deadline = start + 60
        qid = 1
        try:
            while time.perf_counter() < deadline:
                if self.proc.poll() is not None:
                    fail("dns_server exited during start-up (log: %s)" % self.log_path)
                try:
                    sock.send(probe_packet(qid))
                    qid += 1
                    answer = sock.recv(4096)
                except (socket.timeout, ConnectionRefusedError):
                    continue
                elapsed = time.perf_counter() - start
                self._check_probe(answer)
                # Earlier probes the server also took are answered late: count
                # them so the books can balance against the server's stats.
                sock.settimeout(0.05)
                while True:
                    try:
                        self._check_probe(sock.recv(4096))
                    except (socket.timeout, ConnectionRefusedError):
                        break
                return elapsed
            fail("dns_server did not answer within 60 s")
        finally:
            sock.close()

    def _check_probe(self, answer):
        self.probes += 1
        if len(answer) < 12 or not answer[2] & 0x80 or answer[3] & 0xF or answer[7] == 0:
            fail("dns_server's start-up probe answer is not a NOERROR answer")

    def config(self):
        with open(self.log_path) as f:
            m = re.search(r"serving (\S+) on \S+ \((.*?)\)", f.read())
        return m.group(2) if m else "unknown"

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """Stops the server and returns its final Stats() as a dict."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        with open(self.log_path) as f:
            m = re.search(r"final stats: (\{.*\})", f.read())
        return json.loads(m.group(1)) if m else None


def run_tool(argv, timeout):
    done = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, env=child_env())
    if done.stderr:
        log(done.stderr.rstrip()[-3000:])
    if done.returncode != 0 or not done.stdout.strip():
        fail("%s exited with %d" % (os.path.basename(argv[0]), done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_serve(workload, seed, seconds, trace, build_dir, out, zones, cpus, record):
    gen_cpus, server_cpus = cpus
    live = os.path.join(out, "live.zone")
    shutil.copyfile(zones["kitchen"], live)
    exe = os.path.join(build_dir, "dns_server")
    setups = []
    server = None
    # The start-up prober and pbtool stay off the server's cores.
    own_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, gen_cpus)
    try:
        for i in range(SETUP_STARTS):
            server = Server(exe, live, os.path.join(out, "server-%d.log" % i), server_cpus)
            setups.append(server.setup_s)
            if i + 1 < SETUP_STARTS:
                server.stop()
        last_probes = server.probes
        server_affinity = sorted(os.sched_getaffinity(server.proc.pid))
        record["server_config"] = server.config() + "; engine golden"
        record["cores"] = {"generator": gen_cpus, "server": server_affinity,
                           "disjoint": not set(gen_cpus) & set(server_affinity)}
        tool = os.path.join(build_dir, "pbtool_traced" if trace else "pbtool")
        result = run_tool([tool, "serve", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--port", str(server.port),
                           "--server-pid", str(server.proc.pid), "--server-log", server.log_path,
                           "--zone", zones["kitchen"], "--edited", zones["edited"],
                           "--live-zone", live, "--cpus", ",".join(map(str, gen_cpus)),
                           "--trace", "1" if trace else "0",
                           "--spans", os.path.join(out, "spans.csv")], timeout=150)
        result["metrics"]["peak_rss_mb"] = server.peak_rss_mb()
        result["metrics"]["setup_s"] = sorted(setups)[len(setups) // 2]
        stats = server.stop()
        server = None
    finally:
        os.sched_setaffinity(0, own_cpus)
        if server is not None:
            server.stop()
    # The books: every query the generator sent and every start-up probe
    # reached the server, and every query got exactly one rcode.
    sent = int(result["info"]["queries_sent"])
    if stats is None:
        result["failed"] += 1
        result["correct"] = False
        record["books"] = "no final stats"
    else:
        queries = stats["udp_queries"] + stats["tcp_queries"]
        rcodes = sum(stats["rcodes"].values()) + stats["badvers_responses"]
        balanced = stats["udp_queries"] == sent + last_probes and rcodes == queries
        record["books"] = {"udp_queries": stats["udp_queries"], "generator_sent": sent,
                           "probes": last_probes, "rcode_total": rcodes,
                           "balanced": balanced}
        if not balanced:
            result["failed"] += 1
            result["correct"] = False
    if not record["cores"]["disjoint"]:
        valid = result["info"].get("valid", "true")
        result["info"]["valid"] = ("false: " if valid == "true" else valid + "; ") + \
            "generator and server share cores"
    return result


def run_verify(seed, seconds, trace, build_dir, out, zones, min_rounds=3):
    tool = os.path.join(build_dir, "pbtool_traced" if trace else "pbtool")
    store = os.path.join(out, "store")
    os.makedirs(store, exist_ok=True)
    return run_tool([tool, "verify", "--seconds", str(seconds), "--min-rounds", str(min_rounds),
                     "--zone", zones["kitchen"], "--edited", zones["edited"],
                     "--bughunt", zones["bughunt"], "--store-root", store,
                     "--trace", "1" if trace else "0",
                     "--spans", os.path.join(out, "verify-spans.csv")], timeout=170)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("run from the root of a dnsv checkout; missing: " + ", ".join(missing), 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = build()
    ticks = cpu_times()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "build": build_facts(build_dir), "host": host_facts()}
    out = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                                  args.trace))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    zones = {"kitchen": os.path.join(ROOT, "zones/kitchen-sink.zone"),
             "bughunt": os.path.join(ROOT, "zones/bug-hunt.zone"),
             "edited": os.path.join(out, "edited.zone")}
    with open(zones["kitchen"]) as f:
        text = f.read()
    with open(zones["edited"], "w") as f:
        f.write(edited_zone(text, args.seed))
    cpus = split_cpus()

    results = []
    if args.workload == "verify":
        results.append(run_verify(args.seed, args.seconds, args.trace, build_dir, out, zones))
        record["solver_layering"] = {k: v for k, v in results[0]["info"].items()
                                     if k.startswith("layering.")}
        if args.trace:
            # Every traced record carries every layer: the serve layers come
            # from a short serve-hot pass.
            results.append(run_serve("serve-hot", args.seed, COMPANION_SECONDS, True, build_dir,
                                     out, zones, cpus, record))
    else:
        results.append(run_serve(args.workload, args.seed, args.seconds, args.trace, build_dir,
                                 out, zones, cpus, record))
        if args.trace:
            # ... and the verify layers from one round of the verify cases.
            results.append(run_verify(args.seed, 0, True, build_dir, out, zones, min_rounds=1))

    metrics = {}
    for result in results:
        for name, value in result["metrics"].items():
            metrics.setdefault(name, value)
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": {}}
    for metric in wanted:
        value = metrics.get(metric["name"])
        if value is None:
            fail("the run produced no value for %s" % metric["name"])
        line["metrics"][metric["name"]] = {"value": value, "unit": metric["unit"]}
    # Stolen time slows every figure at once; the record says how much.
    record["host"]["steal_frac"] = steal_frac(ticks, cpu_times())
    record.update({"result": line, "info": [r["info"] for r in results],
                   "all_metrics": metrics})
    with open(os.path.join(out, "record.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for r in results:
        if r["info"].get("valid", "true") != "true":
            log("perfbench: run marked invalid: " + r["info"]["valid"])
    print(json.dumps(line))


if __name__ == "__main__":
    main()
