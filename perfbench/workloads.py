"""The benchmark's three workloads and their output checks.

Each workload is a closed loop with one caller over a fixed input made
from the seed. A workload object lives for one repetition in one fresh
interpreter: :meth:`setup` builds the world (timed as set-up),
:meth:`run` is the measured call, :meth:`check` compares the outputs
with expectations that do not depend on the implementation and counts
the ops from the returned results, and :meth:`close` stops what set-up
started.

* ``campaign`` -- what ``repro campaign`` users run: a ten-round
  :class:`~repro.campaign.CampaignEngine` over ``ScenarioConfig.small``
  with default dynamics, checkpointing, DoH discovery at the end, on the
  persistent pool at one worker per CPU. World derivation, sweep and
  probe, certificate validation and dispatch/merge do the work; every
  resolver lookup misses the cache. An op is one DoT address probe or
  DoH candidate probe.
* ``serving`` -- the only workload with mostly cache hits and warm
  connections: a serial :class:`~repro.serving.ServingEngine` run, 64
  clients over four protocols, Zipf 1.1 names from a universe that fits
  the cache, keepalive on. The arrival schedule runs in sim time, so it
  is an input, not wall-clock load. Set-up pays the zone build. An op
  is one served query.
* ``clients`` -- the only workload dominated by cold connections,
  handshakes, faults, retries and fallback: the serial Section 4
  studies (reachability over ProxyRack and Zhima, failure diagnosis,
  performance with and without reuse, the four-protocol battery) under
  the ``doq-blocked`` censorship preset. An op is one vantage-point
  measurement record: a reachability observation, a performance
  timing or a four-protocol series.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

#: Workload parameters per size. ``full`` is what the benchmark
#: measures; ``tiny`` keeps the benchmark's own tests quick.
SIZES = {
    "campaign": {
        "full": {"scenario": "small"},
        "tiny": {"scenario": "tiny"},
    },
    "serving": {
        "full": {"clients": 64, "names": 2048, "duration_s": 40.0,
                 "qps": 500.0},
        "tiny": {"clients": 16, "names": 256, "duration_s": 4.0,
                 "qps": 250.0},
    },
    # Half the small scenario's vantage population: large enough that
    # the Section 4 findings hold at any seed tried, small enough for
    # several repetitions per run.
    "clients": {
        "full": {"vantage_scale": 0.01},
        "tiny": {"vantage_scale": 0.006},
    },
}

#: Atlas ISP DoT resolvers one top-ten country may hold beyond the
#: paper's Table 2 count; seeds 0-59 hold at most one.
MAX_ATLAS_EXTRAS = 1

SERVING_PROTOCOLS = {"do53": 1.0, "do53-tcp": 1.0, "dot": 1.0, "doh": 1.0}


@dataclass
class Outcome:
    """What one repetition produced, read after the measured region."""

    ops: int
    failures: List[str] = field(default_factory=list)
    #: Equal across every repetition of one seed.
    digest: str = ""
    #: What a reader of the result should know about the expectations.
    notes: List[str] = field(default_factory=list)


def _sha256(text) -> str:
    data = text if isinstance(text, bytes) else str(text).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _scenario_config(seed: int, scenario: str):
    from repro.world.scenario import ScenarioConfig
    if scenario == "small":
        return ScenarioConfig.small(seed)
    # The test tier's tiny world: same resolver population, smaller
    # vantage and background samples.
    return ScenarioConfig(seed=seed, vantage_scale=0.006,
                          background_sample_size=40, url_dataset_noise=500,
                          intercepted_clients=4, hijacked_routers=2)


def growth_text(first: int, last: int) -> str:
    """Table 2's growth cell: the percentage truncated toward zero."""
    magnitude = abs(last - first) * 100 // first
    return f"{'+' if last >= first else '-'}{magnitude}%"


def parse_table(text: str) -> Dict[str, List]:
    """Rows of a rendered Table 2 as ``{CC: [first, last, growth]}``."""
    rows: Dict[str, List] = {}
    for line in text.splitlines()[3:]:
        cells = line.split()
        if len(cells) == 4:
            rows[cells[0]] = [int(cells[1]), int(cells[2]), cells[3]]
    return rows


class Campaign:
    name = "campaign"

    def __init__(self, seed: int, size: str, expected: dict,
                 workers: int, workdir: str):
        self.seed = seed
        self.params = dict(SIZES["campaign"][size], workers=workers,
                           rounds=10, checkpoint=True, doh_discovery=True)
        self.expected = expected["campaign"]
        self.checkpoint = os.path.join(
            workdir, f"campaign-{seed}-{os.getpid()}.jsonl")

    def setup(self) -> None:
        from repro.campaign import CampaignEngine
        from repro.core.parallel import ParallelConfig
        from repro.world.scenario import build_scenario
        self.config = _scenario_config(self.seed, self.params["scenario"])
        self.engine = CampaignEngine(
            build_scenario(self.config),
            parallel=ParallelConfig(workers=self.params["workers"]),
            checkpoint_path=self.checkpoint)

    def run(self) -> None:
        self.summary = self.engine.run()
        accumulator = self.summary.accumulator
        self.table2 = self.summary.table2_text()
        self.figures = (accumulator.figure3_series(),
                        accumulator.figure4_series())

    def expected_table2(self):
        """The paper's Table 2 rows plus the world's extra DoT resolvers.

        Besides the providers calibrated to the paper, the simulated
        world holds the Atlas probes' DoT-capable ISP resolvers, which
        every sweep finds. The calibration reserves no slot for them,
        so at some seeds (0, 11 and 18 among others) a top-ten country
        holds one more resolver than the paper in both scans. They are
        added here from the world's ground truth and reported as notes.
        The adjustment follows that ground truth, so a second check,
        independent of it, bounds it: more than
        :data:`MAX_ATLAS_EXTRAS` in one country fails the run.
        """
        probes, capable = self.engine.scenario.atlas()
        capable = set(capable)
        isp = {probe.local_resolver_ip: probe.env.country_code
               for probe in probes if not probe.uses_public_resolver
               and probe.local_resolver_ip in capable}
        extras = Counter(isp.values())
        expected = {}
        for code, (first, last, growth) in self.expected["table2"].items():
            if extras[code]:
                first, last = first + extras[code], last + extras[code]
                growth = growth_text(first, last)
            expected[code] = [first, last, growth]
        notes = [f"Table 2 expects {count} Atlas ISP DoT resolver(s) in "
                 f"{code} beyond the paper's count"
                 for code, count in sorted(extras.items())
                 if code in expected]
        return expected, notes

    def check(self) -> Outcome:
        from repro.campaign import CampaignEngine
        from repro.campaign.checkpoint import CheckpointStore
        from repro.world.scenario import build_scenario
        failures = []
        expected, notes = self.expected_table2()
        for code, row in expected.items():
            extra = row[0] - self.expected["table2"][code][0]
            if extra > MAX_ATLAS_EXTRAS:
                failures.append(f"{extra} Atlas ISP DoT resolvers in {code} "
                                f"beyond the paper's count, at most "
                                f"{MAX_ATLAS_EXTRAS} expected")
        table = parse_table(self.table2)
        if table != expected:
            failures.append(f"Table 2 rows {table} differ from the "
                            f"expected {expected}")
        working = len(self.summary.working_doh())
        if working != self.expected["working_doh"]:
            failures.append(f"{working} working DoH endpoints, expected "
                            f"{self.expected['working_doh']}")
        resumed = CampaignEngine(
            build_scenario(self.config),
            checkpoint_path=self.checkpoint).run(resume=True,
                                                 include_doh=False)
        if resumed.digest != self.summary.digest:
            failures.append(f"resume digest {resumed.digest} differs from "
                            f"the straight run's {self.summary.digest}")
        fragments, _ = CheckpointStore(self.checkpoint).load(self.config)
        ops = (sum(fragment.probed for fragment in fragments)
               + len(self.summary.doh_records))
        return Outcome(ops=ops, failures=failures, digest=self.summary.digest,
                       notes=notes)

    def close(self) -> None:
        from repro.core.parallel import shutdown_worker_pool
        shutdown_worker_pool()
        if os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)


class Serving:
    name = "serving"

    def __init__(self, seed: int, size: str, expected: dict,
                 workers: int, workdir: str):
        self.seed = seed
        self.params = dict(SIZES["serving"][size], zipf_s=1.1,
                           protocols=sorted(SERVING_PROTOCOLS),
                           keepalive_s=30.0, concurrency=256,
                           max_queue=1024)

    def setup(self) -> None:
        from repro.serving.engine import ServingConfig, ServingEngine
        from repro.serving.world import ServingWorld, ServingWorldConfig
        params = self.params
        world = ServingWorld.build(ServingWorldConfig(
            seed=self.seed, clients=params["clients"],
            names=params["names"], keepalive_s=params["keepalive_s"]))
        self.engine = ServingEngine(world, ServingConfig(
            concurrency=params["concurrency"],
            max_queue=params["max_queue"]))

    def run(self) -> None:
        from repro.serving.scorer import ResolverScorecard
        from repro.serving.workload import WorkloadSpec
        params = self.params
        spec = WorkloadSpec(
            duration_s=params["duration_s"], qps_start=params["qps"],
            clients=params["clients"], names=params["names"],
            zipf_s=params["zipf_s"], protocol_mix=SERVING_PROTOCOLS)
        self.report = self.engine.run(spec)
        self.engine.close()
        self.scorecard = ResolverScorecard.from_report(
            self.report, seed=self.seed).to_json_bytes()

    def check(self) -> Outcome:
        report = self.report
        ok = sum(stats.ok for stats in report.protocols.values())
        failures = []
        if ok != report.served:
            failures.append(f"{report.served - ok} of {report.served} "
                            f"served queries failed")
        if report.shed:
            failures.append(f"{report.shed} queries shed")
        return Outcome(ops=report.served, failures=failures,
                       digest=_sha256(self.scorecard))

    def close(self) -> None:
        pass


class Clients:
    name = "clients"

    #: The Section 4.1-4.2 findings :mod:`repro.analysis.validate`
    #: encodes: reachability (2.x) and reuse overhead (3.1).
    FINDINGS = ("2.", "3.1")

    def __init__(self, seed: int, size: str, expected: dict,
                 workers: int, workdir: str):
        self.seed = seed
        self.params = dict(SIZES["clients"][size], scenario="small",
                           censorship="doq-blocked")
        self.expected = expected["clients"]

    def setup(self) -> None:
        from repro.analysis.report import ExperimentSuite
        from repro.netsim.faults import CENSORSHIP_PRESETS
        from repro.world.scenario import build_scenario
        config = dataclasses.replace(
            _scenario_config(self.seed, self.params["scenario"]),
            vantage_scale=self.params["vantage_scale"],
            fault_plan=CENSORSHIP_PRESETS[self.params["censorship"]])
        self.suite = ExperimentSuite(scenario=build_scenario(config))

    def run(self) -> None:
        from repro import telemetry
        from repro.analysis import tables
        suite = self.suite
        faults_before = telemetry.get_registry().total("faults.injected")
        self.reachability = suite.reachability()
        diagnosis = suite.diagnosis()
        self.performance = suite.performance()
        self.no_reuse = suite.no_reuse()
        self.fourproto = suite.fourproto()
        self.faults = (telemetry.get_registry().total("faults.injected")
                       - faults_before)
        self.tables = "\n".join((
            tables.table4_text(self.reachability),
            tables.table5_text(diagnosis),
            tables.table6_text(self.reachability),
            tables.table7_text(self.no_reuse),
            tables.fourproto_table_text(self.fourproto),
            tables.handshake_table_text(self.fourproto)))

    def check(self) -> Outcome:
        from repro.analysis import validate
        findings: List = []
        validate._validate_clients(self.suite, findings)
        validate._validate_performance(self.suite, findings)
        checked = [finding for finding in findings
                   if finding.finding.startswith(self.FINDINGS)]
        failures = [f"finding {finding.finding} ({finding.claim}) not "
                    f"reproduced: {finding.measured}"
                    for finding in checked if not finding.passed]
        reported = sorted({finding.finding for finding in checked})
        if reported != self.expected["findings"]:
            failures.append(f"findings {reported} checked, expected "
                            f"{self.expected['findings']}")
        if self.fourproto.fallbacks != self.faults:
            failures.append(f"{self.fourproto.fallbacks} DoQ fallbacks but "
                            f"{self.faults:g} faults injected")
        ops = (len(self.reachability.observations)
               + len(self.performance.timings) + len(self.no_reuse)
               + len(self.fourproto.timings))
        return Outcome(ops=ops, failures=failures,
                       digest=_sha256(self.tables))

    def close(self) -> None:
        pass


WORKLOADS = {workload.name: workload
             for workload in (Campaign, Serving, Clients)}
