"""The benchmark's three workloads.

Every workload is a closed loop: a client issues its next operation
only when the previous one has answered.  Each run builds one seeded,
fixed sequence of operations: the ``(K, C)`` shapes, update nodes and
journey endpoints are fixed sets, the seed orders them, and the city is
always the city's default build, so the program sees only the
generated requests.

``sweep-chicago``
    In-process library path, one caller.  Set-up loads Chicago,
    calibrates ``alpha``, builds the instance and runs Algorithm 2 once;
    each op is ``plan_route`` over that resident preprocessing with one
    of 40 ``(K, C)`` shapes, enough to overflow the engine's 64-row LRU.
``serve-nyc-rw``
    ``repro serve`` as a subprocess over loopback HTTP, two persistent
    connections.  The planner sends ``/v1/plan`` with a few fixed
    ``K``/``C`` overrides (a working set that fits the cache); the
    operator sends a small ``/v1/update``, four ``/v1/journey`` requests,
    the inverse update and four more journeys.
``replan-orlando``
    In-process, one caller.  Each op is ``plan_route`` with no
    precomputed preprocessing on one of the paper's demand partitions
    (effect-of-Q), with ``alpha`` rescaled per partition as
    ``effect_of_q`` does, so Algorithm 2 runs inside every op.

Ops run in segments.  The first segment is a warm-up and is not
measured.  In a traced run, measured segments alternate untraced and
traced, so the run measures its own tracing overhead.  In-process op
times and every set-up time are scaled to the nominal host speed of
``reference.py``.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import checks
import tracer
from reference import BOOT_LINE, Reference, slowdown

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launcher.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; the run reports their median as ``setup_s``.
SETUPS = 3

SWEEP_CITY, SWEEP_SCALE, SWEEP_SHAPES = "chicago", 0.2, 40
REPLAN_CITY, REPLAN_SCALE, REPLAN_BANDS, REPLAN_SHAPES_PER_BAND = "orlando", 0.2, 8, 2
SERVE_CITY, SERVE_SCALE = "nyc", 0.15
#: The planner's working set: fixed, so stored digests cover every seed.
#: Five shapes graded by K: the plan p50 falls inside the middle
#: shape's costs, not in a gap between two shapes.
SERVE_SHAPES: Tuple[Tuple[int, float], ...] = (
    (12, 1.5), (15, 2.25), (18, 3.0), (21, 1.75), (24, 2.5),
)
#: Plans the planner sends while the operator sends one update and its
#: journeys; the two meet at a barrier after each such segment.
PLANS_PER_SEGMENT = 2 * len(SERVE_SHAPES)
#: Nodes each operator update adds (and its inverse retires).
UPDATE_NODES = 2
JOURNEYS_PER_UPDATE = 4
#: Seed of the fixed pools of update nodes and journey endpoints.
POOL_SEED = 2023

#: The minimal sizes the smoke test runs at.
SMOKE_SCALE = {"sweep-chicago": 0.06, "serve-nyc-rw": 0.06, "replan-orlando": 0.08}
#: The serve scales ``serve_digests.json`` holds plans for.
DIGEST_SCALES = (SERVE_SCALE, SMOKE_SCALE["serve-nyc-rw"])


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    start: float
    end: float
    traced: bool = False
    measured: bool = True
    request_id: Optional[str] = None
    #: What the op asked for (a shape, or a band and shape).
    key: Any = None
    #: The host's slowdown against the reference's nominal speed while
    #: the op ran (see ``reference.py``).
    slowdown: float = 1.0

    @property
    def raw_ms(self) -> float:
        return 1000.0 * (self.end - self.start)

    @property
    def ms(self) -> float:
        """Latency at the reference's nominal host speed."""
        return self.raw_ms / self.slowdown


@dataclass
class Run:
    """What one workload run measured."""

    workload: str
    setups: List[float] = field(default_factory=list)
    raw_setups: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    ops: List[Op] = field(default_factory=list)
    #: Wall time of the measured phase, raw and at nominal host speed.
    measured_s: float = 0.0
    scaled_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    trace: Dict[str, List[tracer.Span]] = field(default_factory=dict)

    def record(self, op: Op, problems: Sequence[str]) -> None:
        self.attempted += 1
        self.ops.append(op)
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.kind}: {p}" for p in problems)

    def measured(self, *kinds: str, traced: bool = False, raw: bool = False) -> List[float]:
        """Latencies (ms) of the measured ops of these kinds."""
        return [
            op.raw_ms if raw else op.ms
            for op in self.ops
            if op.measured and op.kind in kinds and op.traced == traced
        ]

    def overhead_pct(self, kind: str) -> float:
        return tracer.overhead_pct(
            (op.key, op.traced, op.ms) for op in self.ops if op.measured and op.kind == kind
        )

    def segment(self, ops: Sequence[Op], wall: float, slowdowns: Sequence[float]) -> None:
        """Close a load segment: give each op its slowdown and add the
        segment's wall time, scaled by the median slowdown."""
        for op, factor in zip(ops, slowdowns):
            op.slowdown = factor
        if ops and ops[0].measured:
            self.measured_s += wall
            self.scaled_s += wall / statistics.median(slowdowns)


def grid_shapes(n: int, k_range: Tuple[int, int]) -> List[Tuple[int, float]]:
    """``n`` fixed ``(K, C)`` shapes: ``K`` evenly over ``k_range`` and
    ``C`` evenly over 1.5-3.0 km, paired by a stride coprime to ``n`` so
    the two vary independently.  Fixed, so every seed runs the same
    shapes and the seed only orders them."""
    k_lo, k_hi = k_range
    stride = next(s for s in range(n // 3, n) if math.gcd(s, n) == 1)
    return [
        (round(k_lo + (k_hi - k_lo) * i / (n - 1)), round(1.5 + 1.5 * (i * stride % n) / (n - 1), 2))
        for i in range(n)
    ]


def cycle(rng: random.Random, items: Sequence[Any]):
    """Endless seeded permutations of ``items``."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


class InProcess:
    """What the two library-path workloads share.

    A subclass provides ``op_kind``, :meth:`setup` (the state ops need),
    :meth:`ops` (an endless generator of op inputs, each also the key its
    route identity is checked under), :meth:`run_op` (an
    :class:`EBRRResult`) and :meth:`instance_for` (the instance an op's
    route is checked against).

    The reference runs before every op and once after the segment's
    last; an op is scaled by the mean of the two references around it.
    """

    name = ""
    segment_ops = 8

    def __init__(self, seed: int, scale: Optional[float], recorder: Optional[tracer.Recorder]):
        self.rng = random.Random(seed)
        self.scale = scale
        self.recorder = recorder
        self.obs_trace = None
        self.reference = Reference()

    # -- tracing switches ----------------------------------------------

    def _tracing(self, on: bool) -> None:
        if self.recorder is None:
            return
        from repro import obs

        self.recorder.enabled = on
        if on:
            obs.enable(self.obs_trace)
        else:
            obs.disable()

    def _fresh_city(self, city: str, scale: float):
        from repro.datasets import load_city
        from repro.datasets.registry import clear_cache
        from repro.eval import experiments

        # Both caches would turn every set-up after the first into a
        # lookup; calibrated_alpha's is keyed by id(dataset), which a
        # new dataset can reuse once the old one is freed.
        clear_cache()
        experiments._ALPHA_CACHE.clear()
        dataset = load_city(city, scale=scale)
        return dataset, experiments.calibrated_alpha(dataset)

    def run(self, seconds: float) -> Run:
        from repro import obs
        from repro.network.engine import engine_for

        run = Run(self.name)
        if self.recorder is not None:
            self.obs_trace = obs.Trace()
        state = None
        for _ in range(SETUPS):
            state = None
            gc.collect()
            refs = [self.reference.run() for _ in range(3)]
            self._tracing(True)
            start = time.perf_counter()
            state = self.setup()
            elapsed = time.perf_counter() - start
            self._tracing(False)
            refs += [self.reference.run() for _ in range(3)]
            run.raw_setups.append(elapsed)
            run.setups.append(elapsed / slowdown(refs))
        engine = engine_for(state["network"])
        inputs = self.ops(state)
        identity = checks.IdentityCheck()

        def segment(measured: bool, traced: bool) -> None:
            refs: List[float] = []
            first = len(run.ops)
            began = time.perf_counter()
            self._tracing(traced)
            for _ in range(self.segment_ops):
                item = next(inputs)
                refs.append(self.reference.run())
                start = time.perf_counter()
                result = self.run_op(state, item)
                end = time.perf_counter()
                op = Op(self.op_kind, start, end, traced, measured, key=item)
                if self.recorder is not None:
                    self.recorder.op(self.op_kind, start, end)
                stops, path = self.received(result.route.stops, result.route.path)
                problems = checks.route_problems(
                    state["network"], self.instance_for(state, item), stops, path,
                    result.config.max_stops, result.config.max_adjacent_cost,
                )
                problems += identity.problems(item, stops, path)
                run.record(op, problems)
            self._tracing(False)
            refs.append(self.reference.run())
            wall = time.perf_counter() - began - sum(refs)
            run.segment(run.ops[first:], wall, [slowdown(refs[i : i + 2]) for i in range(len(refs) - 1)])

        segment(measured=False, traced=False)
        info0, stats0 = engine.cache_info(), engine.total_stats()
        index = 0
        while run.measured_s < seconds:
            segment(measured=True, traced=self.recorder is not None and index % 2 == 1)
            index += 1
        info1, stats1 = engine.cache_info(), engine.total_stats()
        run.peak_rss_mb = peak_rss_mb()
        measured_ops = sum(1 for op in run.ops if op.measured)
        run.counters = engine_counters(
            info1.hits - info0.hits, info1.misses - info0.misses,
            info1.evictions - info0.evictions,
            stats1.searches - stats0.searches, stats1.settled - stats0.settled,
            measured_ops,
        )
        if self.recorder is not None:
            self._layers(run)
        return run

    def received(self, stops: Sequence[int], path: Sequence[int]) -> Tuple[Sequence[int], Sequence[int]]:
        """The route as the checks see it; the smoke test overrides this
        to feed them a corrupted one."""
        return stops, path

    def _layers(self, run: Run) -> None:
        spans = self.recorder.spans
        program = tracer.obs_spans(self.obs_trace)
        ops = []
        for s in spans:
            if s.name != "op":
                continue
            inside = [x for x in spans if x is not s and x.start >= s.start and x.end <= s.end]
            inside += [x for x in program if x.start >= s.start and x.end <= s.end]
            ops.append(tracer.OpTrace(s.attrs["kind"], s.start, s.end, inside))
        run.layers = tracer.layer_metrics(spans, program, ops)
        run.layers["obs.overhead_pct"] = run.overhead_pct(self.op_kind)
        run.trace = {"benchmark": spans, "program": program}


def engine_counters(hits: int, misses: int, evictions: int, searches: int, settled: int, ops: int) -> Dict[str, float]:
    return {
        "engine.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "engine.cache_evictions": float(evictions),
        "search.searches": searches / max(1, ops),
        "search.settled": settled / max(1, ops),
    }


class Sweep(InProcess):
    name = "sweep-chicago"
    op_kind = "plan"

    def setup(self) -> Dict[str, Any]:
        from repro.core.preprocess import preprocess_queries

        dataset, alpha = self._fresh_city(SWEEP_CITY, self.scale or SWEEP_SCALE)
        instance = dataset.instance(alpha)
        pre = preprocess_queries(instance)
        return {"network": dataset.network, "instance": instance, "alpha": alpha, "pre": pre}

    def ops(self, state: Dict[str, Any]):
        return cycle(self.rng, grid_shapes(SWEEP_SHAPES, (10, 40)))

    def instance_for(self, state: Dict[str, Any], shape: Tuple[int, float]):
        return state["instance"]

    def run_op(self, state: Dict[str, Any], shape: Tuple[int, float]):
        from repro.core.config import EBRRConfig
        from repro.core.ebrr import plan_route

        k, c = shape
        config = EBRRConfig(max_stops=k, max_adjacent_cost=c, alpha=state["alpha"])
        return plan_route(state["instance"], config, preprocess=state["pre"])


class Replan(InProcess):
    name = "replan-orlando"
    op_kind = "replan"

    def setup(self) -> Dict[str, Any]:
        from repro.eval.experiments import demand_partitions

        dataset, alpha = self._fresh_city(REPLAN_CITY, self.scale or REPLAN_SCALE)
        instances, alphas = [], []
        for part in demand_partitions(dataset, num_bands=REPLAN_BANDS):
            # effect_of_q's rescaling: alpha follows the partition's
            # share of the demand.
            part_alpha = max(alpha * len(part) / len(dataset.queries), 1e-9)
            instances.append(dataset.instance(part_alpha, queries=part))
            alphas.append(part_alpha)
        return {"network": dataset.network, "instances": instances, "alphas": alphas}

    def ops(self, state: Dict[str, Any]):
        bands = len(state["instances"])
        drawn = grid_shapes(bands * REPLAN_SHAPES_PER_BAND, (10, 30))
        combos = [(i % bands, k, c) for i, (k, c) in enumerate(drawn)]
        return cycle(self.rng, combos)

    def instance_for(self, state: Dict[str, Any], combo: Tuple[int, int, float]):
        return state["instances"][combo[0]]

    def run_op(self, state: Dict[str, Any], combo: Tuple[int, int, float]):
        from repro.core.config import EBRRConfig
        from repro.core.ebrr import plan_route

        band, k, c = combo
        config = EBRRConfig(max_stops=k, max_adjacent_cost=c, alpha=state["alphas"][band])
        return plan_route(state["instances"][band], config)


# ----------------------------------------------------------------------
# serve-nyc-rw: the daemon over loopback HTTP
# ----------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess started through the launcher."""

    def __init__(self, scale: float, traced: bool, trace_dir: Optional[str]) -> None:
        argv = [sys.executable, LAUNCHER]
        if traced:
            argv.append("--traced")
        argv += ["serve", "--dataset", SERVE_CITY, "--scale", f"{scale:g}", "--port", "0"]
        if trace_dir is not None:
            argv += ["--trace-dir", trace_dir]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_STORE"}
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        self.port = 0
        boot = None
        for line in self.proc.stdout:
            if line.startswith(BOOT_LINE):
                boot = json.loads(line[len(BOOT_LINE):])
            elif line.startswith("serving "):
                self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                break
        if not self.port or boot is None:
            self.stop()
            raise RuntimeError("the serve daemon exited before it was serving")
        self.raw_setup_s = time.perf_counter() - start - boot["spent_s"]
        self.setup_s = self.raw_setup_s / slowdown(boot["samples"])

    def connect(self) -> "Client":
        return Client(self.port)

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One persistent keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, dict, float, float]:
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        end = time.perf_counter()
        return response.status, json.loads(data), start, end

    def close(self) -> None:
        self.conn.close()


def plan_problems(body: dict, k: int) -> List[str]:
    route = body.get("route", {})
    stops, path = route.get("stops", []), route.get("path", [])
    problems: List[str] = []
    if not body.get("feasible") or body.get("violations"):
        problems.append(f"infeasible plan: {body.get('violations')}")
    if not stops or len(stops) > k:
        problems.append(f"{len(stops)} stops for K={k}")
    if len(set(stops)) != len(stops):
        problems.append("a stop is visited twice")
    it = iter(path)
    if not all(any(s == p for p in it) for s in stops):
        problems.append("stops are not on the path in visiting order")
    return problems


def journey_problems(body: dict, origin: int, destination: int) -> List[str]:
    legs = body.get("legs", [])
    minutes = body.get("minutes")
    if not legs or not isinstance(minutes, (int, float)) or not (0 < minutes < math.inf):
        return [f"no journey {origin}->{destination}: {minutes} min, {len(legs)} legs"]
    if legs[0]["nodes"][0] != origin or legs[-1]["nodes"][-1] != destination:
        return [f"journey {origin}->{destination} does not join its endpoints"]
    return []


class Serve:
    """serve-nyc-rw: three daemon boots, then the load on the last one."""

    name = "serve-nyc-rw"

    def __init__(self, seed: int, scale: Optional[float], traced: bool) -> None:
        self.rng = random.Random(seed)
        self.scale = scale or SERVE_SCALE
        self.traced = traced
        self.digests = checks.load_digests()

    def run(self, seconds: float) -> Run:
        run = Run(self.name)
        trace_dir = os.path.join(OUT_DIR, f"{self.name}-req") if self.traced else None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            for name in os.listdir(trace_dir):
                os.remove(os.path.join(trace_dir, name))
        dumps: List[dict] = []
        daemon = None
        for i in range(SETUPS):
            daemon = Daemon(self.scale, self.traced, trace_dir)
            run.setups.append(daemon.setup_s)
            run.raw_setups.append(daemon.raw_setup_s)
            if i + 1 == SETUPS:
                break
            try:
                if self.traced:
                    dumps.append(self._dump(daemon))
            finally:
                daemon.stop()
        try:
            self._load(daemon, run, seconds, dumps)
        finally:
            daemon.stop()
        if self.traced:
            self._layers(run, dumps, trace_dir)
        return run

    def _dump(self, daemon: Daemon) -> dict:
        client = daemon.connect()
        try:
            return client.call("GET", "/perfbench/dump")[1]
        finally:
            client.close()

    def _load(self, daemon: Daemon, run: Run, seconds: float, dumps: List[dict]) -> None:
        planner, operator, control = daemon.connect(), daemon.connect(), daemon.connect()
        try:
            if self.traced:
                control.call("GET", "/perfbench/off")
            nodes = control.call("GET", "/v1/datasets")[1]["datasets"][0]["nodes"]
            base_queries = None
            plan_inputs = cycle(self.rng, SERVE_SHAPES)
            # Fixed pools, like the shapes: the seed only orders them.
            pool = random.Random(POOL_SEED)
            additions = cycle(self.rng, [pool.sample(range(nodes), UPDATE_NODES) for _ in range(16)])
            trips = cycle(self.rng, [tuple(pool.sample(range(nodes), 2)) for _ in range(64)])
            pending: List[int] = []
            errors: List[BaseException] = []

            def plan(shape, measured, traced, check_digest=False):
                k, c = shape
                status, body, start, end = planner.call(
                    "POST", "/v1/plan",
                    {"dataset": SERVE_CITY, "max_stops": k, "max_adjacent_cost": c},
                )
                body = self.received(body)
                problems = [f"HTTP {status}: {body.get('error')}"] if status != 200 else plan_problems(body, k)
                if check_digest and status == 200:
                    route = body["route"]
                    key = checks.digest_key(SERVE_CITY, self.scale, k, c)
                    if self.digests.get(key) != checks.route_digest(route["stops"], route["path"]):
                        problems.append(f"plan {key} differs from the direct in-process plan")
                op = Op("plan", start, end, traced, measured, body.get("request_id"), shape)
                run.record(op, problems)

            def operate(measured, traced):
                nonlocal base_queries
                if pending:
                    payload = {"dataset": SERVE_CITY, "remove": list(pending)}
                    pending.clear()
                else:
                    pending.extend(next(additions))
                    payload = {"dataset": SERVE_CITY, "add": list(pending)}
                status, body, start, end = operator.call("POST", "/v1/update", payload)
                problems = [] if status == 200 else [f"HTTP {status}: {body.get('error')}"]
                if status == 200:
                    if base_queries is None:
                        base_queries = body["queries"] - UPDATE_NODES
                    expected = base_queries + (UPDATE_NODES if pending else 0)
                    if body["queries"] != expected:
                        problems.append(f"demand has {body['queries']} queries, expected {expected}")
                run.record(Op("update", start, end, traced, measured, body.get("request_id")), problems)
                for _ in range(JOURNEYS_PER_UPDATE):
                    origin, destination = next(trips)
                    status, body, start, end = operator.call(
                        "POST", "/v1/journey",
                        {"dataset": SERVE_CITY, "origin": origin, "destination": destination},
                    )
                    problems = (
                        journey_problems(body, origin, destination) if status == 200
                        else [f"HTTP {status}: {body.get('error')}"]
                    )
                    run.record(Op("journey", start, end, traced, measured, body.get("request_id")), problems)

            def segment(measured, traced):
                if self.traced:
                    control.call("GET", "/perfbench/on" if traced else "/perfbench/off")
                first = len(run.ops)
                began = time.perf_counter()
                def operator_segment():
                    try:
                        operate(measured, traced)
                    except BaseException as exc:  # re-raised on the main thread
                        errors.append(exc)

                worker = threading.Thread(target=operator_segment)
                worker.start()
                for _ in range(PLANS_PER_SEGMENT):
                    plan(next(plan_inputs), measured, traced)
                worker.join()
                if errors:
                    raise errors[0]
                # Not scaled: a reference run on a daemon thread between
                # segments tracked the daemon's speed worse than the raw
                # figures, which already mix the noise of both vCPUs.
                ops = run.ops[first:]
                run.segment(ops, time.perf_counter() - began, [1.0] * len(ops))

            # Warm-up: every planner shape once, before any update, checked
            # against the direct in-process plans; then one mixed segment.
            for shape in SERVE_SHAPES:
                plan(shape, False, False, check_digest=True)
            segment(False, False)
            stats0 = control.call("GET", "/v1/stats")[1]
            index = 0
            while run.measured_s < seconds or pending:
                segment(True, self.traced and index % 2 == 1)
                index += 1
            stats1 = control.call("GET", "/v1/stats")[1]
            if self.traced:
                control.call("GET", "/perfbench/off")
                dumps.append(self._dump(daemon))
            run.peak_rss_mb = daemon.vm_hwm_mb()
        finally:
            for client in (planner, operator, control):
                client.close()
        d0, d1 = stats0["datasets"][SERVE_CITY], stats1["datasets"][SERVE_CITY]
        measured_ops = sum(1 for op in run.ops if op.measured)
        run.counters = engine_counters(
            d1["cache"]["hits"] - d0["cache"]["hits"],
            d1["cache"]["misses"] - d0["cache"]["misses"],
            d1["cache"]["evictions"] - d0["cache"]["evictions"],
            d1["search.total.searches"] - d0["search.total.searches"],
            d1["search.total.settled"] - d0["search.total.settled"],
            measured_ops,
        )
        a = stats1["admission"]
        run.counters["serve.rejected"] = float(a["rejected_queue_full"] + a["rejected_deadline"])

    def received(self, body: dict) -> dict:
        """A plan response as the checks see it; the smoke test
        overrides this to feed them a corrupted one."""
        return body

    def _layers(self, run: Run, dumps: List[dict], trace_dir: str) -> None:
        from repro.obs import load_jsonl

        spans = [tracer.Span.from_json(row) for d in dumps for row in d["spans"]]
        program = [tracer.Span.from_json(row) for d in dumps for row in d["program"]]
        per_request: Dict[str, List[tracer.Span]] = {}
        for name in sorted(os.listdir(trace_dir)):
            request_spans, _ = load_jsonl(os.path.join(trace_dir, name))
            per_request[name[: -len(".jsonl")]] = tracer.obs_spans(request_spans)
        # A daemon span belongs to the request whose serve.handle span
        # encloses it on the same thread.
        handles = [s for s in spans if s.name == "serve.handle" and s.attrs.get("request_id")]
        by_request: Dict[str, List[tracer.Span]] = {s.attrs["request_id"]: [] for s in handles}
        for s in spans:
            if s.name in ("serve.handle", "runtime.gc"):
                continue
            for h in handles:
                if s.tid == h.tid and h.start <= s.start and s.end <= h.end:
                    by_request[h.attrs["request_id"]].append(s)
                    break
        handle_of = {s.attrs["request_id"]: s for s in handles}
        gc_spans = [s for s in spans if s.name == "runtime.gc"]
        ops: List[tracer.OpTrace] = []
        transport, admission, handler, lock_wait = [], [], [], []
        for op in run.ops:
            if not (op.measured and op.traced) or op.request_id not in handle_of:
                continue
            handle = handle_of[op.request_id]
            inside = by_request[op.request_id] + per_request.get(op.request_id, [])
            inside += [g for g in gc_spans if g.start >= handle.start and g.end <= handle.end]
            ops.append(tracer.OpTrace(op.kind, op.start, op.end, inside + [handle]))
            spent = {name: sum(s.duration for s in inside if s.name == name)
                     for name in ("serve.admission", "serve.handler", "serve.export")}
            transport.append(op.end - op.start - handle.duration)
            admission.append(spent["serve.admission"])
            handler.append(spent["serve.handler"])
            lock_wait.append(handle.duration - sum(spent.values()))
        all_program = program + [s for v in per_request.values() for s in v]
        run.layers = tracer.layer_metrics(spans, all_program, ops)
        ms = lambda values: 1000.0 * tracer.mean(values)  # noqa: E731
        by_name: Dict[str, List[tracer.Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        updates = by_name.get("update", [])
        run.layers.update({
            "serve.transport_ms": ms(transport),
            "serve.admission_wait_ms": ms(admission),
            "serve.lock_wait_ms": ms(lock_wait),
            "serve.handler_ms": ms(handler),
            "update.s": tracer.mean([s.duration for s in updates]),
            "update.searches": tracer.mean([s.attrs["searches"] for s in updates]),
            "update.state_entries": tracer.mean([s.attrs["state_entries"] for s in updates]),
            "journey.build_s": tracer.mean([s.duration for s in by_name.get("journey.build", [])]),
            "journey.builds": float(len(by_name.get("journey.build", []))),
            "journey.query_s": tracer.mean([s.duration for s in by_name.get("journey.query", [])]),
            "obs.overhead_pct": run.overhead_pct("plan"),
        })
        run.trace = {"daemon": spans, "program": all_program}


def make(name: str, seed: int, scale: Optional[float], traced: bool):
    if name == "serve-nyc-rw":
        return Serve(seed, scale, traced)
    recorder = None
    if traced:
        recorder = tracer.Recorder()
        recorder.install()
    return {"sweep-chicago": Sweep, "replan-orlando": Replan}[name](seed, scale, recorder)


class Metric(NamedTuple):
    value: float
    unit: str
    samples: Optional[int] = None
    #: The same metric before scaling to the nominal host speed.
    raw: Optional[float] = None


def summarize(run: Run) -> Dict[str, Metric]:
    """Every end-to-end metric that applies to the run."""
    def p90(values: List[float]) -> float:
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=10, method="inclusive")[-1]

    def p50(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    def rate(seconds: float) -> float:
        return measured / seconds if seconds else 0.0

    def metric(value: float, unit: str, samples: Optional[int], raw: float) -> Metric:
        return Metric(value, unit, samples, raw if raw != value else None)

    measured = sum(1 for op in run.ops if op.measured)
    out = {
        "setup_s": metric(p50(run.setups), "s", len(run.setups), p50(run.raw_setups)),
        "peak_rss_mb": Metric(run.peak_rss_mb, "MB"),
        "ops_per_s": metric(rate(run.scaled_s), "1/s", measured, rate(run.measured_s)),
        "fail_ratio": Metric(run.failed / run.attempted if run.attempted else 1.0, "ratio", run.attempted),
    }
    kinds = ["replan" if run.workload == "replan-orlando" else "plan"]
    if run.workload == "serve-nyc-rw":
        kinds += ["update", "journey"]
    for kind in kinds:
        scaled, raw = run.measured(kind), run.measured(kind, raw=True)
        out[f"{kind}_p50_ms"] = metric(p50(scaled), "ms", len(scaled), p50(raw))
        if kind in ("plan", "replan"):
            out[f"{kind}_p90_ms"] = metric(p90(scaled), "ms", len(scaled), p90(raw))
    return out
