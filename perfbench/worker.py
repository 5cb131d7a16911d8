"""The process that runs one workload, started by run.py in a fresh
interpreter with symtorus on its path.

    worker.py setup INPUT_DIR
        import symtorus.cli, load the documents of one cycle, and print
        time.monotonic() (the spawning process times set-up from its side)
    worker.py run INPUT_DIR SECONDS TRACE RESULT_JSON
        run the closed loop and write the result; untraced, it also
        spawns ``worker.py setup`` at even times through the run

The loop is closed with one client: one process, no threads, and each
request starts when the previous one has returned. A request is
``symtorus.cli.main(argv + ["--format", "json"])`` with stdout captured,
or one call of ``symtorus.monodromy.orbit``. Each answer is checked
against the expected answer written by workloads.py.
"""

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

# A run needs at least this many requests, so that at least ten latency
# samples lie beyond the 90th percentile.
MIN_REQUESTS = 100
# No request may run longer than this.
GUARD_SECONDS = 20.0
# The loop stops after this long even if it has fewer requests.
LOOP_LIMIT_SECONDS = 120.0
DESCRIPTION_VERBS = ("validate", "classify", "compare", "model", "splits")
# Set-up is timed this many times in an untraced run, spread evenly over
# it so that the median samples the machine at many times.
SETUP_RUNS = 20


class GuardTimeout(Exception):
    pass


@contextlib.contextmanager
def guard(seconds):
    def expire(signum, frame):
        raise GuardTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def load_manifest(input_dir):
    with open(os.path.join(input_dir, "manifest.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def doc_path(input_dir, arg):
    return os.path.join(input_dir, arg) if arg.startswith("docs/") else arg


def setup(input_dir):
    """What every CLI invocation pays before it computes: the import and
    the parse of its documents (here those of one whole cycle)."""
    import symtorus.cli  # noqa: F401
    from symtorus import serialize
    from symtorus.errors import SymtorusError

    manifest = load_manifest(input_dir)
    for req in manifest["cycles"][0]:
        verb = req["argv"][0] if req["kind"] == "cli" else "orbit"
        parse = (serialize.parse_description if verb in DESCRIPTION_VERBS
                 else serialize.parse_datum_document)
        for arg in req["argv"]:
            if not arg.startswith("docs/"):
                continue
            path = doc_path(input_dir, arg)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            try:
                parse(text, path)
            except SymtorusError:
                pass
    print(repr(time.monotonic()))


def time_setup(input_dir):
    """Seconds from spawning an interpreter until it has imported
    symtorus.cli and loaded one cycle's documents."""
    begin = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", input_dir],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - begin


class Loop:
    """Runs whole cycles of requests and checks every answer."""

    def __init__(self, manifest, input_dir):
        from symtorus import cli, monodromy, serialize
        from symtorus.torus import TorusElement

        self.cli = cli
        self.monodromy = monodromy
        self.input_dir = input_dir
        self.setup = []
        self.cycles = manifest["cycles"]
        # The orbit() requests take a parsed datum; parse them up front so
        # that the request is the one library call.
        self.datums = {}
        self.expected_points = {}
        for cycle in self.cycles:
            for req in cycle:
                if req["kind"] != "orbit":
                    continue
                path = doc_path(input_dir, req["argv"][0])
                with open(path, encoding="utf-8") as fh:
                    self.datums[path] = serialize.parse_datum_document(
                        fh.read(), path)
                self.expected_points[path] = [
                    tuple(TorusElement(serialize.parse_rational(q) for q in p)
                          for p in tup)
                    for tup in req["expect"]["contains"]]

    def execute(self, req):
        """Run one request. Returns (latency_s, problem or None)."""
        if req["kind"] == "orbit":
            path = doc_path(self.input_dir, req["argv"][0])
            datum = self.datums[path]
            start = time.perf_counter()
            try:
                with guard(GUARD_SECONDS):
                    states = self.monodromy.orbit(datum)
            except GuardTimeout:
                return time.perf_counter() - start, "guard timeout"
            except Exception as exc:  # counted as a failed request
                return (time.perf_counter() - start,
                        "escaped %s" % type(exc).__name__)
            latency = time.perf_counter() - start
            if len(states) != req["expect"]["size"]:
                return latency, "orbit has %d states, expected %d" % (
                    len(states), req["expect"]["size"])
            for point in self.expected_points[path]:
                if point not in states:
                    return latency, "orbit misses %r" % (point,)
            return latency, None

        argv = [doc_path(self.input_dir, a) for a in req["argv"]]
        argv += ["--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), guard(GUARD_SECONDS):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except GuardTimeout:
            return time.perf_counter() - start, "guard timeout"
        except Exception as exc:  # counted as a failed request
            return (time.perf_counter() - start,
                    "escaped %s" % type(exc).__name__)
        latency = time.perf_counter() - start
        expect = req["expect"]
        if code != expect["exit"]:
            return latency, "exit %r, expected %r (%s)" % (
                code, expect["exit"], err.getvalue().strip()[:200])
        if not expect["json"]:
            return latency, None
        try:
            payload = json.loads(out.getvalue())
        except ValueError:
            return latency, "output is not JSON"
        for key, value in expect["json"].items():
            if payload.get(key) != value:
                return latency, "%s = %r, expected %r" % (
                    key, payload.get(key), value)
        return latency, None

    def run(self, seconds, tracer=None):
        """Whole cycles until at least MIN_REQUESTS have run and another
        cycle would overrun ``seconds``.

        With a tracer, cycles alternate between untraced and traced on the
        same documents, so that a slow spell of the machine falls on both
        sides; one Side is returned for each. Without one, set-up is timed
        SETUP_RUNS times between cycles, at even times through the run.
        """
        sides = [Side()] if tracer is None else [Side(), Side()]
        setup_every = seconds / SETUP_RUNS
        start = time.perf_counter()
        cycles = 0
        while True:
            side = sides[cycles % len(sides)]
            traced = side is not sides[0]
            if traced:
                tracer.install()
            try:
                self.run_cycle(
                    self.cycles[cycles // len(sides) % len(self.cycles)],
                    side, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            cycles += 1
            if tracer is None and (time.perf_counter() - start
                                   >= setup_every * len(self.setup)):
                self.setup.append(time_setup(self.input_dir))
            elapsed = time.perf_counter() - start
            if elapsed > LOOP_LIMIT_SECONDS:
                break
            if cycles % len(sides):
                continue
            if sides[0].attempted >= MIN_REQUESTS and elapsed / cycles * (
                    cycles + len(sides)) > seconds:
                break
        return sides

    def run_cycle(self, cycle, side, tracer):
        start = time.perf_counter()
        for req in cycle:
            if tracer is not None:
                tracer.request = side.attempted
            latency, problem = self.execute(req)
            side.record(req, latency, problem)
        side.elapsed += time.perf_counter() - start
        side.cycles += 1


class Side:
    """Counts and latencies of the requests run on one side of a loop."""

    def __init__(self):
        self.attempted = self.failed = self.repeats = self.cycles = 0
        self.elapsed = 0.0
        self.latencies, self.problems, self.seen = [], [], set()

    def record(self, req, latency, problem):
        self.attempted += 1
        self.latencies.append(latency)
        if req["subject"] in self.seen:
            self.repeats += 1
        self.seen.add(req["subject"])
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append("%s: %s" % (" ".join(req["argv"]),
                                                 problem))

    @property
    def answers_per_s(self):
        return (self.attempted - self.failed) / self.elapsed


def nested_json_probe(loop, manifest):
    """Send the deeply nested document once, outside the measured loop.

    The exit-code contract asks for 2 ("could not compute"). The outcome
    is reported with the result rather than counted as a failed request,
    because the workloads are chosen so that no measured request fails.
    """
    req = {"kind": "cli", "argv": ["validate", manifest["nested_probe"]],
           "expect": {"exit": 2, "json": {}}}
    _, problem = loop.execute(req)
    return "exit 2" if problem is None else problem


def run(input_dir, seconds, trace, result_path):
    manifest = load_manifest(input_dir)
    loop = Loop(manifest, input_dir)
    if not trace:
        # The first spawn may write byte-code caches; it is not counted.
        time_setup(input_dir)
        (side,) = loop.run(seconds)
        lat = side.latencies
        metrics = {
            "answers_per_s": (side.answers_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
            "latency_p90_ms": (
                statistics.quantiles(lat, n=10)[8] * 1000.0, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
            "setup_s": (statistics.median(loop.setup), "s"),
        }
        sides = [side]
    else:
        from tracer import Tracer

        tracer = Tracer()
        plain, side = sides = loop.run(seconds, tracer)
        metrics = tracer.summary(side.attempted)
        metrics["trace.overhead_answers_per_s"] = (
            plain.answers_per_s - side.answers_per_s, "1/s")
        tracer.dump(os.path.join(input_dir, "spans.jsonl"))
    result = {
        "metrics": metrics,
        "attempted": sum(s.attempted for s in sides),
        "failed": sum(s.failed for s in sides),
        "problems": [p for s in sides for p in s.problems],
        "samples": len(side.latencies),
        "cycles": side.cycles,
        "repeat_share": side.repeats / side.attempted,
        "kernels": kernels(manifest),
    }
    if trace:
        result["untraced_answers_per_s"] = plain.answers_per_s
        result["traced_answers_per_s"] = side.answers_per_s
        result["spans"] = len(tracer.spans)
    else:
        result["setup_samples"] = len(loop.setup)
    if "nested_probe" in manifest:
        result["nested_json_probe"] = nested_json_probe(loop, manifest)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def kernels(manifest):
    """The orbit kernel that symtorus picks for each modulus in use."""
    try:
        from symtorus import orbitkernel
    except ImportError:
        return {str(m): "python" for m in manifest["moduli"]}
    return {str(m): orbitkernel.kernel_for(m) for m in manifest["moduli"]}


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        setup(argv[1])
    elif len(argv) == 5 and argv[0] == "run":
        run(argv[1], float(argv[2]), argv[3] == "1", argv[4])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
