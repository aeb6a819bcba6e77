"""Smoke-size self-checks for the benchmark (about half a minute).

Run from the repository root::

    python3 perfbench/selfcheck.py

Checks that ``BENCHMARK.json`` declares exactly the workloads and metrics
the runs emit, that an operation failing in several ways (it raised,
its replay disagreed, the oracle rejected it) counts as one failure, and
that gated times are scaled by the host speed of their own time slice.
For every workload, at toy sizes: an untraced and a traced run both end
with no failed or wrong operation (the traced run also
requires every replay to reproduce its call's answers), and every
end-to-end and per-layer metric is emitted.  The benchmark's own oracles
are cross-checked against the library's reference evaluator: the service
walk against ``evaluate_generic`` on the final database state, and the
route workload's core-of-query oracle against ``evaluate_generic`` on the
query itself.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEED = run.DEVELOPMENT_SEED

#: Per-layer metrics each workload's traced run must see move (non-zero):
#: the layers the workload exists to exercise.
EXERCISED = {
    "chain_oneshot": ("route.p50_ms", "scan.p50_ms", "compile.p50_ms", "engine.p50_ms",
                      "engine.stream_p50_ms", "decode.p50_ms", "engine.probes_per_op"),
    "service_rw": ("service.plan_hit_ratio", "service.canonicalise_p50_ms",
                   "scan.sync_p50_ms", "scan.build_ratio", "scan.delta_merges_per_write",
                   "engine.p50_ms", "engine.stream_p50_ms"),
    "semac_route": ("route.p50_ms", "route.decomposition_ops", "route.reformulated_ops",
                    "core.decide_p50_ms", "core.candidates_checked", "core.witness_ratio",
                    "engine.stream_p50_ms"),
}


def smoke_workloads(traced: bool):
    from chain_oneshot import ChainOneShot
    from semac_route import SemAcRoute
    from service_rw import ServiceRW

    return [
        ChainOneShot(SEED, size=1_000),
        ServiceRW(SEED, traced=traced, facts=800, warmup=20),
        SemAcRoute(SEED, copies=1),
    ]


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selfcheck FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_declaration() -> None:
    """``BENCHMARK.json`` declares exactly the workloads and metrics run.py emits."""
    path = os.path.join(os.path.dirname(run.SRC), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        declared = json.load(handle)
    check([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        check({m["name"]: m["unit"] for m in declared[key]} == emitted,
              f"BENCHMARK.json {key} names or units differ from run.py")
    print("ok  BENCHMARK.json matches the emitted metrics")


def check_failure_count() -> None:
    """An operation that fails in several ways is still one failed operation."""
    from harness import RunResult

    result = RunResult(attempted=5, failed_ops={2, 4})
    check(result.failed([(2, "wrong"), (3, "wrong"), (0, "wrong in warm-up")]) == 4,
          "a failed operation is counted more than once")
    check(RunResult(attempted=1).failed([(0, "a"), (0, "b")]) == 1,
          "failed exceeds attempted")
    print("ok  failed operations are counted once")


def check_host_scale() -> None:
    """Gated times are scaled by the reference kernel's time in their own
    tenth of the window."""
    reference = [(at / 10, 0.001 if at < 50 else 0.002) for at in range(100)]
    scale = run.host_scale(reference, 10.0)
    check(abs(scale(1.0) - run.REFERENCE_S / 0.001) < 1e-9
          and abs(scale(9.0) - run.REFERENCE_S / 0.002) < 1e-9,
          "host_scale does not follow the reference kernel's time")
    print("ok  gated times follow the host's speed")


def check_runs() -> None:
    for traced, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        for workload in smoke_workloads(traced):
            # A traced run replays only in its first two thirds (GC_TAIL).
            seconds = 4.5 if traced else 1.5
            final, report = run.measure(workload, seconds, traced, setups=(1, 1))
            label = f"{workload.name} trace={int(traced)}"
            check(final["attempted"] >= 1, f"{label}: no operation ran")
            check(final["correct"] and final["failed"] == 0,
                  f"{label}: {final['failed']} failed: {report['errors'][:3]}")
            check(report["error_rate"]["value"] == 0.0, f"{label}: error_rate is not 0")
            check(set(final["metrics"]) == set(names), f"{label}: metric names differ")
            if traced:
                for name in EXERCISED[workload.name] + ("trace.coverage",):
                    check(final["metrics"][name]["value"] > 0, f"{label}: {name} is 0")
            print(f"ok  {label}: {final['attempted']} ops")


def check_oracles() -> None:
    from repro import evaluate_generic
    from repro.queries import core
    from semac_route import SemAcRoute
    from service_rw import HOT, LAYERS, ServiceRW

    service = ServiceRW(SEED, facts=800, warmup=200)
    service.setup()
    out = service.adjacency(service.present)
    for anchor in service.hot[:HOT]:
        for length in range(2, LAYERS + 1):
            query = service._query(anchor, length)
            check(ServiceRW.walk(out, anchor, length)
                  == evaluate_generic(query, service.service.database),
                  f"service oracle walk differs at anchor {anchor}, length {length}")
    print("ok  service_rw oracle agrees with evaluate_generic")

    route = SemAcRoute(SEED, copies=1)
    route.setup()
    for query, _, database in route.pool:
        check(evaluate_generic(core(query), database) == evaluate_generic(query, database),
              f"core oracle differs on {query.name}")
    print("ok  semac_route oracle agrees with evaluate_generic")


def main() -> int:
    run.clear_knobs()
    sys.path.insert(0, run.SRC)
    check(os.path.isdir(os.path.join(run.SRC, "repro")), "library sources not found")
    check_declaration()
    check_failure_count()
    check_host_scale()
    check_runs()
    check_oracles()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
