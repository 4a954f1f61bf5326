"""The traced run's per-layer cost account.

Wrappers around the public calls of each layer of ``repro`` record one
span per call: name, start, end, parent span and run id. Spans are held
in compact in-memory arrays and written out once, when the run ends.
The program itself carries no tracing: :meth:`Tracer.install` patches
class attributes and every ``repro`` module that imported a traced
function by name, and :meth:`Tracer.uninstall` restores the originals.

A span's self time is its duration minus the part its child spans
cover, so the layers' self times plus the ``other`` bucket (wall time
outside every root span) add up to the traced wall. Counters are read
at the same boundaries: from the values the traced calls return, and
from deltas of the process registry between :meth:`Tracer.open_region`
and :meth:`Tracer.close_region`.

The wrappers keep one stack of open spans, so they assume one thread,
which holds for every workload: serving is serial and campaign fans
out to processes, whose spans stay in the workers.

What each layer should move, written down before measuring (first the
workload where the layer does most of the work, then where it should
not move):

============  ===============================  ==========================
layer         moves                            no change on
============  ===============================  ==========================
world         campaign ops_per_s, peak_rss_mb  serving ops_per_s
dnswire       ops_per_s on all, most serving   --
resolvers     serving ops_per_s and setup_s    campaign, clients (misses)
netsim        clients ops_per_s                serving (warm connections)
tlssim        campaign, clients ops_per_s      serving
doe           clients ops_per_s                serving
retry         clients ops_per_s                campaign, serving
scan          campaign ops_per_s               serving, clients
client        clients ops_per_s                campaign, serving
parallel      campaign ops_per_s               serving, clients
campaign      campaign ops_per_s, peak_rss_mb  serving, clients
serving       serving ops_per_s                campaign, clients
analysis      none expected: regression watch  --
============  ===============================  ==========================
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
import weakref
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: Layer order for reports; ``other`` is wall time outside every span.
LAYERS = ("world", "dnswire", "resolvers", "netsim", "tlssim", "doe",
          "retry", "scan", "client", "parallel", "campaign", "serving",
          "analysis")

#: (layer, module, qualified names) of every traced public call.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("world", "repro.world.scenario", (
        "build_scenario", "Scenario.network_for_round",
        "Scenario.pristine_network_for_round", "Scenario.round_layout",
        "Scenario.client_network", "Scenario.proxyrack", "Scenario.zhima")),
    ("world", "repro.serving.world", ("ServingWorld.build",)),
    ("dnswire", "repro.dnswire.message", ("Message.encode", "Message.decode")),
    ("resolvers", "repro.resolvers.cache", ("DnsCache.get", "DnsCache.put")),
    ("resolvers", "repro.resolvers.backends", ("RecursiveBackend.resolve",)),
    ("resolvers", "repro.resolvers.universe", (
        "DnsUniverse.authoritative_lookup", "DnsUniverse.host_a")),
    # Frontends: every server-side resolver service answering queries.
    ("resolvers", "repro.resolvers.frontends", (
        "Do53UdpService.handle", "Do53TcpService.handle",
        "DotService.handle", "DohService.handle")),
    ("resolvers", "repro.doe.doq", ("DoqService.handle",)),
    ("resolvers", "repro.doe.dnscrypt", ("DnsCryptService.handle",)),
    ("netsim", "repro.netsim.transport", (
        "TcpConnection.open", "TcpConnection.request",
        "TlsChannel.handshake", "TlsChannel.request",
        "UdpExchange.exchange")),
    ("tlssim", "repro.tlssim.certs", ("validate_chain", "CaStore.memo_get")),
    ("doe", "repro.doe.do53", (
        "Do53Client.query_udp", "Do53Client.query_tcp")),
    ("doe", "repro.doe.dot", (
        "DotClient.query", "DotClient.fetch_certificate")),
    ("doe", "repro.doe.doh", ("DohClient.query", "DohClient.probe_template")),
    ("doe", "repro.doe.doq", ("DoqClient.query",)),
    ("doe", "repro.doe.dnscrypt", (
        "DnsCryptClient.query", "DnsCryptClient.fetch_certificate")),
    ("retry", "repro.core.retry", (
        "RetryPolicy.call", "RetryPolicy.run_query")),
    ("scan", "repro.core.scan.zmap", ("ZmapScanner.sweep", "merge_sweeps")),
    ("scan", "repro.core.scan.dot_scan", (
        "DotDiscovery.probe_all", "DotDiscovery.probe_one")),
    ("scan", "repro.core.scan.doh_scan", (
        "DohDiscovery.discover", "DohDiscovery.probe_url")),
    ("scan", "repro.core.scan.providers", ("group_into_providers",)),
    ("client", "repro.core.client.reachability", (
        "ReachabilityStudy.measure_endpoint",)),
    ("client", "repro.core.client.performance", (
        "PerformanceStudy.measure_endpoint", "PerformanceStudy.run_no_reuse")),
    ("client", "repro.core.client.fourproto", (
        "FourProtoStudy.measure_endpoint",)),
    ("client", "repro.core.client.diagnosis", (
        "FailureDiagnosis.diagnose_all",)),
    ("parallel", "repro.core.parallel", (
        "ParallelConfig.dispatch", "merge_outcomes", "get_worker_pool")),
    # ScanCampaign.run_round is the round job the engine executes; its
    # own time is the campaign's per-round orchestration.
    ("campaign", "repro.core.scan.campaign", ("ScanCampaign.run_round",)),
    ("campaign", "repro.campaign.fragment", (
        "RoundFragment.from_round", "FragmentAccumulator.fold")),
    ("campaign", "repro.campaign.checkpoint", ("CheckpointStore.append",)),
    ("serving", "repro.serving.engine", ("ServingEngine.run",)),
    ("serving", "repro.serving.pool", ("ConnectionReusePool.query",)),
    ("analysis", "repro.serving.scorer", ("ResolverScorecard.from_report",)),
    ("analysis", "repro.analysis.tables", (
        "table2_text", "table2_text_from", "table4_text", "table5_text",
        "table6_text", "table7_text", "fourproto_table_text",
        "handshake_table_text")),
    ("analysis", "repro.analysis.figures", (
        "figure3_series", "figure4_series")),
)

#: Registry counters whose deltas feed layer counters.
REGISTRY_COUNTERS = ("faults.injected", "fourproto.fallback",
                     "parallel.pool.created")


def import_targets() -> None:
    """Import every traced module, so that traced and untraced runs
    pay the program's imports before the measured region alike."""
    for _, module_name, _ in TARGETS:
        importlib.import_module(module_name)
    importlib.import_module("repro.campaign")
    importlib.import_module("repro.analysis.report")
    importlib.import_module("repro.analysis.validate")


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- hooks: counters read from the values traced calls return ----------------


def _count_hosts(tracer: "Tracer", network) -> None:
    """Materialised hosts of each network the world layer hands out.

    Reads the network's host table directly: ``Network.hosts()`` would
    materialise a lazy world, changing the run it measures.
    """
    if network in tracer.seen_networks:
        return
    tracer.seen_networks.add(network)
    tracer.counts["world.hosts"] += len(network._hosts)


def _adds(key: str, amount: Callable) -> Callable:
    """A hook adding ``amount(result)`` to counter ``key``."""
    def hook(tracer: "Tracer", result) -> None:
        tracer.counts[key] += amount(result)
    return hook


def _serving_report(tracer: "Tracer", report) -> None:
    tracer.counts["serving.reused"] += report.pool_reused
    tracer.counts["serving.served"] += report.served
    tracer.counts["serving.queue_peak"] = max(
        tracer.counts["serving.queue_peak"], report.queue_peak)


def _is_set(result) -> bool:
    return result is not None


HOOKS: Dict[str, Callable] = {
    "Scenario.network_for_round": _count_hosts,
    "Scenario.pristine_network_for_round": _count_hosts,
    "Scenario.client_network": _count_hosts,
    "ServingWorld.build":
        lambda tracer, world: _count_hosts(tracer, world.network),
    "Message.encode": _adds("dnswire.bytes_out", len),
    "DnsCache.get": _adds("resolvers.cache_hits", _is_set),
    "CaStore.memo_get": _adds("tlssim.memo_hits", _is_set),
    "RetryPolicy.call": _adds("retry.attempts", lambda r: r.attempts),
    "RetryPolicy.run_query": _adds("retry.attempts", lambda r: r.attempts),
    "DotDiscovery.probe_one": _adds("scan.dot_resolvers", lambda r: r.is_dot),
    "DohDiscovery.probe_url": _adds("scan.doh_confirmed", lambda r: r.is_doh),
    "ServingEngine.run": _serving_report,
}


def _resolve(module, qualname: str):
    """(owner, attribute name) for ``Class.attr`` or a module function."""
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans around the targets' calls; computes the account."""

    def __init__(self, run_id: str, layers: Sequence[str] = LAYERS):
        self.run_id = run_id
        self.layers = tuple(layers)
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self.span_names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.ok_calls: List[int] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.seen_networks = weakref.WeakSet()
        self._patches: List[Tuple[object, str, object]] = []
        self._registry_before: Dict[str, float] = {}
        self._registry_after: Dict[str, float] = {}
        self.wall_start_ns = 0
        self.wall_end_ns = 0

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target of the selected layers."""
        for layer, module_name, qualnames in TARGETS:
            if layer not in self.layers:
                continue
            module = importlib.import_module(module_name)
            for qualname in qualnames:
                self._patch(layer, module, qualname)

    def _patch(self, layer: str, module, qualname: str) -> None:
        owner, attr = _resolve(module, qualname)
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        if isinstance(raw, (classmethod, staticmethod)):
            function = raw.__func__
        else:
            function = raw
        if inspect.isgeneratorfunction(function):
            raise TypeError(f"{qualname} is a generator: a span around it "
                            f"would time only its creation")
        traced = self._wrap(function, layer, qualname)
        if isinstance(raw, classmethod):
            traced = classmethod(traced)
        elif isinstance(raw, staticmethod):
            traced = staticmethod(traced)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, traced)
        if isinstance(owner, type):
            return
        # A function imported by name is bound in the importer's
        # namespace too; patch every such reference.
        for name, other in list(sys.modules.items()):
            if (other is None or other is owner
                    or not name.startswith("repro")):
                continue
            for key, value in list(vars(other).items()):
                if value is raw:
                    self._patches.append((other, key, raw))
                    setattr(other, key, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, function: Callable, layer: str, qualname: str):
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(layer)
        self.ok_calls.append(0)
        hook = HOOKS.get(qualname)
        span_names, parents = self.span_names, self.parents
        starts, ends = self.starts, self.ends
        stack, ok_calls = self._stack, self.ok_calls
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(span_names)
            span_names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            ok_calls[name_id] += 1
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    # -- the traced region -------------------------------------------------

    def open_region(self) -> None:
        self._registry_before = _registry_totals()
        self.wall_start_ns = time.perf_counter_ns()

    def close_region(self) -> None:
        self.wall_end_ns = time.perf_counter_ns()
        self._registry_after = _registry_totals()

    def registry_delta(self, name: str) -> float:
        return (self._registry_after.get(name, 0.0)
                - self._registry_before.get(name, 0.0))

    # -- the account -------------------------------------------------------

    def durations_by_name(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = defaultdict(list)
        names = self.names
        for index in range(len(self.span_names)):
            out[names[self.span_names[index]]].append(
                self.ends[index] - self.starts[index])
        return out

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, int], int]:
        """(self ns per layer, calls per layer, ns outside every span).

        A child's interval is clipped to its parent's and ``other`` is
        the sum of the gaps between root spans inside the region, so
        the three add up to the region's wall only when the spans nest.
        """
        count = len(self.span_names)
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0] * count
        roots = []
        for index in range(count):
            parent = parents[index]
            if parent < 0:
                roots.append((starts[index], ends[index]))
                continue
            overlap = (min(ends[index], ends[parent])
                       - max(starts[index], starts[parent]))
            covered[parent] += max(0, overlap)
        self_ns: Dict[str, int] = {layer: 0 for layer in self.layers}
        calls: Dict[str, int] = {layer: 0 for layer in self.layers}
        for index in range(count):
            layer = self.name_layer[self.span_names[index]]
            self_ns[layer] += ends[index] - starts[index] - covered[index]
            calls[layer] += 1
        other_ns = 0
        cursor = self.wall_start_ns
        for start, end in sorted(roots):
            other_ns += max(0, start - cursor)
            cursor = max(cursor, end)
        other_ns += max(0, self.wall_end_ns - cursor)
        return self_ns, calls, other_ns

    def write_spans(self, path: str) -> None:
        """All spans as gzip'd TSV: run, span, name, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("run_id\tspan\tname\tparent\tstart_ns\tend_ns\n")
            names = self.names
            run_id = self.run_id
            for index in range(len(self.span_names)):
                out.write(f"{run_id}\t{index}\t"
                          f"{names[self.span_names[index]]}\t"
                          f"{self.parents[index]}\t{self.starts[index]}\t"
                          f"{self.ends[index]}\n")


def _registry_totals() -> Dict[str, float]:
    from repro import telemetry
    registry = telemetry.get_registry()
    totals = {name: registry.total(name) for name in REGISTRY_COUNTERS}
    for mode in ("pool", "in_process"):
        totals[f"parallel.dispatch.{mode}"] = registry.value(
            "parallel.dispatch", mode=mode)
    return totals


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced region: name -> (value, unit).

    Ratios carry their base: each ``*_ratio`` (or per-unit ratio) is
    reported next to its numerator and denominator.
    """
    self_ns, calls, other_ns = tracer.self_times()
    wall_ns = tracer.wall_end_ns - tracer.wall_start_ns
    ok = dict(zip(tracer.names, tracer.ok_calls))
    durations = tracer.durations_by_name()
    counts = tracer.counts

    def sorted_ns(*qualnames: str) -> List[int]:
        values: List[int] = []
        for qualname in qualnames:
            values.extend(durations.get(qualname, ()))
        values.sort()
        return values

    def total_s(*qualnames: str) -> float:
        return sum(sum(durations.get(name, ())) for name in qualnames) / 1e9

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_ns.get(layer, 0) / 1e9, "s")
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    metrics["other.self_s"] = (other_ns / 1e9, "s")
    accounted_ns = sum(self_ns.values()) + other_ns
    metrics["trace.wall_s"] = (wall_ns / 1e9, "s")
    metrics["trace.accounted_s"] = (accounted_ns / 1e9, "s")
    # The identity self times + other == wall holds whenever the spans
    # nest; run.py treats a miss as a tracing fault. The account itself
    # is how much of the wall the named layers leave to ``other``.
    metrics["trace.accounted_error_ratio"] = (
        abs(accounted_ns - wall_ns) / wall_ns if wall_ns else 0.0, "ratio")
    metrics["trace.unattributed_ratio"] = (
        other_ns / wall_ns if wall_ns else 0.0, "ratio")
    metrics["trace.spans"] = (len(tracer.span_names), "count")

    metrics["world.hosts_materialised"] = (counts["world.hosts"], "count")

    encode = sorted_ns("Message.encode")
    metrics["dnswire.encode_calls"] = (ok.get("Message.encode", 0), "count")
    metrics["dnswire.decode_calls"] = (ok.get("Message.decode", 0), "count")
    metrics["dnswire.bytes_out"] = (counts["dnswire.bytes_out"], "bytes")
    metrics["dnswire.encode_p50_us"] = (_percentile(encode, 50) / 1e3, "us")
    metrics["dnswire.encode_p99_us"] = (_percentile(encode, 99) / 1e3, "us")

    lookups = ok.get("DnsCache.get", 0)
    hits = counts["resolvers.cache_hits"]
    frontend = sorted_ns("Do53UdpService.handle", "Do53TcpService.handle",
                         "DotService.handle", "DohService.handle",
                         "DoqService.handle", "DnsCryptService.handle")
    metrics["resolvers.cache_hits"] = (hits, "count")
    metrics["resolvers.cache_lookups"] = (lookups, "count")
    metrics["resolvers.cache_hit_ratio"] = (_ratio(hits, lookups), "ratio")
    metrics["resolvers.zone_build_s"] = (total_s("DnsUniverse.host_a"), "s")
    metrics["resolvers.frontend_p50_us"] = (
        _percentile(frontend, 50) / 1e3, "us")
    metrics["resolvers.frontend_p99_us"] = (
        _percentile(frontend, 99) / 1e3, "us")

    opened = ok.get("TcpConnection.open", 0)
    requests = ok.get("TcpConnection.request", 0)
    metrics["netsim.connections_opened"] = (opened, "count")
    metrics["netsim.tcp_requests"] = (requests, "count")
    metrics["netsim.requests_per_connection"] = (
        _ratio(requests, opened), "ratio")
    metrics["netsim.tls_handshakes"] = (ok.get("TlsChannel.handshake", 0),
                                        "count")
    metrics["netsim.faults_injected"] = (
        tracer.registry_delta("faults.injected"), "count")

    memo_lookups = ok.get("CaStore.memo_get", 0)
    memo_hits = counts["tlssim.memo_hits"]
    metrics["tlssim.validations"] = (ok.get("validate_chain", 0), "count")
    metrics["tlssim.memo_hits"] = (memo_hits, "count")
    metrics["tlssim.memo_lookups"] = (memo_lookups, "count")
    metrics["tlssim.memo_hit_ratio"] = (_ratio(memo_hits, memo_lookups),
                                        "ratio")

    queries = sorted_ns("Do53Client.query_udp", "Do53Client.query_tcp",
                        "DotClient.query", "DohClient.query",
                        "DoqClient.query", "DnsCryptClient.query")
    metrics["doe.queries"] = (len(queries), "count")
    metrics["doe.query_p50_us"] = (_percentile(queries, 50) / 1e3, "us")
    metrics["doe.query_p99_us"] = (_percentile(queries, 99) / 1e3, "us")
    metrics["doe.fallbacks"] = (tracer.registry_delta("fourproto.fallback"),
                                "count")

    retry_ops = ok.get("RetryPolicy.call", 0) + ok.get(
        "RetryPolicy.run_query", 0)
    metrics["retry.attempts"] = (counts["retry.attempts"], "count")
    metrics["retry.ops"] = (retry_ops, "count")
    metrics["retry.attempts_per_op"] = (
        _ratio(counts["retry.attempts"], retry_ops), "ratio")

    dot_probes = ok.get("DotDiscovery.probe_one", 0)
    doh_probes = ok.get("DohDiscovery.probe_url", 0)
    metrics["scan.probes"] = (dot_probes + doh_probes, "count")
    metrics["scan.dot_probes"] = (dot_probes, "count")
    metrics["scan.dot_resolvers"] = (counts["scan.dot_resolvers"], "count")
    metrics["scan.useful_probe_ratio"] = (
        _ratio(counts["scan.dot_resolvers"], dot_probes), "ratio")
    metrics["scan.doh_probes"] = (doh_probes, "count")
    metrics["scan.doh_confirmed"] = (counts["scan.doh_confirmed"], "count")
    metrics["scan.doh_probes_per_confirmed"] = (
        _ratio(doh_probes, counts["scan.doh_confirmed"]), "ratio")

    endpoints = sorted_ns("ReachabilityStudy.measure_endpoint",
                          "PerformanceStudy.measure_endpoint",
                          "FourProtoStudy.measure_endpoint")
    metrics["client.endpoints"] = (len(endpoints), "count")
    metrics["client.endpoint_p50_ms"] = (_percentile(endpoints, 50) / 1e6,
                                         "ms")
    metrics["client.endpoint_p99_ms"] = (_percentile(endpoints, 99) / 1e6,
                                         "ms")

    dispatch_s = total_s("ParallelConfig.dispatch")
    wall_s = wall_ns / 1e9
    metrics["parallel.dispatch_s"] = (dispatch_s, "s")
    metrics["parallel.merge_s"] = (total_s("merge_outcomes"), "s")
    metrics["parallel.wall_s"] = (wall_s, "s")
    metrics["parallel.serial_s"] = (wall_s - dispatch_s, "s")
    metrics["parallel.serial_share"] = (_ratio(wall_s - dispatch_s, wall_s),
                                        "ratio")
    metrics["parallel.pool_created"] = (
        tracer.registry_delta("parallel.pool.created"), "count")
    metrics["parallel.pooled_dispatches"] = (
        tracer.registry_delta("parallel.dispatch.pool"), "count")
    metrics["parallel.inprocess_dispatches"] = (
        tracer.registry_delta("parallel.dispatch.in_process"), "count")

    rounds = sorted_ns("ScanCampaign.run_round")
    metrics["campaign.fold_s"] = (total_s("FragmentAccumulator.fold"), "s")
    metrics["campaign.checkpoint_s"] = (total_s("CheckpointStore.append"),
                                        "s")
    metrics["campaign.round_p50_s"] = (_percentile(rounds, 50) / 1e9, "s")

    pool_queries = sorted_ns("ConnectionReusePool.query")
    reused = counts["serving.reused"]
    served = counts["serving.served"]
    metrics["serving.pool_query_p50_us"] = (
        _percentile(pool_queries, 50) / 1e3, "us")
    metrics["serving.pool_query_p99_us"] = (
        _percentile(pool_queries, 99) / 1e3, "us")
    metrics["serving.reused"] = (reused, "count")
    metrics["serving.served"] = (served, "count")
    metrics["serving.reuse_ratio"] = (_ratio(reused, served), "ratio")
    metrics["serving.queue_peak"] = (counts["serving.queue_peak"], "count")
    return {name: (float(value), unit)
            for name, (value, unit) in metrics.items()}


__all__ = ["LAYERS", "TARGETS", "Tracer", "layer_metrics"]
