"""The experiment catalog: one entry per regenerated paper claim.

Besides the claim metadata, every entry *declares* its execution-plan
support (``capabilities``): which :class:`repro.plan.RunPlan` axes the
runner's kwargs expose — ``backend``, ``graph_cache``, ``share_graph``,
``kernel``, ``spool``, plus the universal ``trials`` / ``seed`` /
``processes``.  The CLI forwards overrides from these declarations (and
warns on unsupported flags) instead of probing runner signatures; a
consistency test asserts the declarations against the actual
signatures.  ``smoke`` holds tiny-scale kwargs the plan-smoke harness
(:mod:`repro.experiments.smoke`) uses to dry-run every experiment
through :func:`repro.plan.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from ..errors import ExperimentError

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment", "list_experiments"]

#: Overrides every runner accepts (Monte-Carlo scale and dispatch).
_COMMON = ("trials", "seed", "processes")
#: The sweep runners' full plan-axis surface.  ``spool``/``resume`` are
#: the durable-execution axis (:mod:`repro.durable`): stream blocks to
#: a crash-survivable on-disk spool, resume an interrupted sweep.
_SWEEP = _COMMON + (
    "backend", "graph_cache", "kernel", "kernel_threads",
    "spool", "resume", "seed_mode",
)


def _smoke(**kwargs) -> Mapping:
    """Freeze a smoke-kwargs dict (specs are immutable)."""
    return MappingProxyType(dict(kwargs))


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata tying a paper claim to the code that regenerates it.

    ``runner`` names the function in :mod:`repro.experiments.runners`;
    ``bench`` names the pytest-benchmark module; ``expected_shape`` is
    the acceptance criterion (shape, not absolute numbers);
    ``capabilities`` declares which plan-axis overrides
    the runner accepts; ``smoke`` holds tiny-scale kwargs for the
    plan-smoke harness.
    """

    id: str
    title: str
    claim: str
    paper_ref: str
    runner: str
    bench: str
    expected_shape: str
    modules: tuple[str, ...] = field(default_factory=tuple)
    capabilities: tuple[str, ...] = _COMMON
    smoke: Mapping = field(default_factory=dict)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.id: spec
    for spec in [
        ExperimentSpec(
            id="E1",
            title="Completion time is O(log n)",
            claim="saer(c,d) completes within 3·log n rounds w.h.p. on Δ-regular graphs with Δ = Ω(log² n)",
            paper_ref="Theorem 1 (completion); Lemma 4",
            runner="run_e01_completion",
            bench="benchmarks/bench_e01_completion_time.py",
            expected_shape="median rounds fit a + b·log2(n) with R² high; all runs within the 3·log2(n) horizon",
            modules=("repro.core.policies", "repro.graphs.generators", "repro.analysis.fitting"),
            capabilities=_SWEEP,
            smoke=_smoke(ns=(64, 128), trials=2),
        ),
        ExperimentSpec(
            id="E2",
            title="Total work is Θ(n)",
            claim="saer(c,d) exchanges Θ(n) messages in total, w.h.p.",
            paper_ref="Theorem 1 (work); §3.2",
            runner="run_e02_work",
            bench="benchmarks/bench_e02_work_linear.py",
            expected_shape="work/n flat across n; power-law exponent of work vs n ≈ 1",
            modules=("repro.core.engine", "repro.core.metrics"),
            capabilities=_SWEEP,
            smoke=_smoke(ns=(64, 128), trials=2),
        ),
        ExperimentSpec(
            id="E3",
            title="Max load never exceeds c·d",
            claim="on termination every server's load is at most c·d (protocol invariant)",
            paper_ref="§1.1 / remark (i) after Algorithm 1",
            runner="run_e03_max_load",
            bench="benchmarks/bench_e03_max_load.py",
            expected_shape="0 violations across all graph families and (c,d) settings",
            modules=("repro.core.policies",),
            smoke=_smoke(n=64, settings=((2.0, 2),), families=("regular",), trials=2),
        ),
        ExperimentSpec(
            id="E4",
            title="Burned fraction stays below 1/2",
            claim="S_t ≤ 1/2 for all t ≤ 3·log n, w.h.p., for c above the analysis threshold",
            paper_ref="Lemma 4 (regular); Lemma 19 (almost-regular)",
            runner="run_e04_burned_fraction",
            bench="benchmarks/bench_e04_burned_fraction.py",
            expected_shape="max_t S_t ≤ 1/2 in every trial at the paper's c; small even at practical c",
            modules=("repro.core.metrics",),
            smoke=_smoke(ns=(64,), trials=2, include_paper_c=False),
        ),
        ExperimentSpec(
            id="E5",
            title="RAES dominates SAER",
            claim="the accepted-requests process of raes stochastically dominates saer's",
            paper_ref="Corollary 2",
            runner="run_e05_dominance",
            bench="benchmarks/bench_e05_raes_dominance.py",
            expected_shape="under slot coupling: RAES alive set nested in SAER's every round; RAES completes no later, in 100% of coupled trials",
            modules=("repro.core.coupling",),
            smoke=_smoke(ns=(64,), cs=(1.5,), trials=2),
        ),
        ExperimentSpec(
            id="E6",
            title="Threshold behaviour in c",
            claim="a sufficiently large constant c makes the protocol terminate fast; the analysis constants (32, 288/(ηd)) are conservative",
            paper_ref="Theorem 1 ('sufficiently large c'); footnote 12",
            runner="run_e06_c_threshold",
            bench="benchmarks/bench_e06_c_threshold.py",
            expected_shape="failures / long completions at c near 1; fast and flat completion once c is a small constant",
            modules=("repro.core.policies",),
            capabilities=_SWEEP + ("share_graph",),
            smoke=_smoke(n=64, cs=(1.5, 4.0), trials=2),
        ),
        ExperimentSpec(
            id="E7",
            title="Degree hypothesis Δ = Ω(log² n)",
            claim="the guarantee needs Δ_min(C) ≥ η·log² n; dense graphs recover the Becchetti et al. regime",
            paper_ref="Theorem 1 hypothesis; §1.2 overview; §4 (open: o(log² n))",
            runner="run_e07_degree_sweep",
            bench="benchmarks/bench_e07_degree_sweep.py",
            expected_shape="completion degrades as Δ falls below ~log² n at fixed c; dense Δ behaves like the complete graph",
            modules=("repro.graphs.generators",),
            capabilities=_SWEEP,
            smoke=_smoke(n=64, trials=2),
        ),
        ExperimentSpec(
            id="E8",
            title="Almost-regular allowance",
            claim="the bound holds for any Δ_max(S)/Δ_min(C) ≤ ρ = O(1), including the √n-client / O(1)-server example",
            paper_ref="Theorem 1; discussion after it; Appendix D",
            runner="run_e08_almost_regular",
            bench="benchmarks/bench_e08_almost_regular.py",
            expected_shape="O(log n)-like completion persists across ρ = O(1) families incl. paper_extremal",
            modules=("repro.graphs.generators.paper_extremal", "repro.graphs.properties"),
            capabilities=_SWEEP,
            smoke=_smoke(n=64, ratios=(1, 2), trials=2),
        ),
        ExperimentSpec(
            id="E9",
            title="Baselines trade-off table",
            claim="sequential greedy gets lower max load but Θ(n·k) sequential steps and discloses loads; SAER gets O(d) load in O(log n) parallel rounds with 1-bit replies",
            paper_ref="§1.3; remark (ii) after Algorithm 1",
            runner="run_e09_baselines",
            bench="benchmarks/bench_e09_baselines.py",
            expected_shape="greedy max load < SAER max load ≤ c·d; SAER rounds ≪ greedy steps; disclosure column",
            modules=("repro.baselines",),
            smoke=_smoke(n=64, trials=2),
        ),
        ExperimentSpec(
            id="E10",
            title="Stage-I exponential decay",
            claim="r_t(N(v)) decays exponentially while Ω(log n); K_t stays below the γ_t envelope",
            paper_ref="Lemmas 11-13 (regular); 21-22 (general); recurrence (11)",
            runner="run_e10_stage1",
            bench="benchmarks/bench_e10_stage1_decay.py",
            expected_shape="measured K_t ≤ γ_t and measured r_t max ≤ 2dΔ·Πγ envelope at the paper's c",
            modules=("repro.theory.recurrences", "repro.core.metrics"),
            capabilities=("seed",),
            smoke=_smoke(n=256),
        ),
        ExperimentSpec(
            id="E11",
            title="Alive-ball decay factor 4/5",
            claim="while ≥ nd/log n balls are alive, their number shrinks by factor ≥ 4/5 per round w.h.p.",
            paper_ref="§3.2, eq. (20)",
            runner="run_e11_alive_decay",
            bench="benchmarks/bench_e11_alive_decay.py",
            expected_shape="per-round alive ratios ≤ 4/5 in the heavy regime across trials",
            modules=("repro.core.metrics",),
            smoke=_smoke(ns=(128,), trials=2),
        ),
        ExperimentSpec(
            id="E12",
            title="Dynamic metastability",
            claim="(§4 conjecture) with online arrivals and churn, saer with recovery reaches a metastable bounded-backlog regime below capacity",
            paper_ref="§4 Conclusions and Future Work",
            runner="run_e12_dynamic",
            bench="benchmarks/bench_e12_dynamic_metastable.py",
            expected_shape="backlog slope ≈ 0 below the capacity knee, divergent above; no-recovery control diverges",
            modules=("repro.dynamic",),
            smoke=_smoke(n=64, rates=(0.1, 1.0), horizon=60, trials=1),
        ),
        ExperimentSpec(
            id="S1",
            title="Serving layer under live traffic",
            claim="the micro-batched serving stack (repro.serve) assigns replayed arrival traces with simulator-identical round semantics, and sheds adversarial hot-client overload via its retry policy",
            paper_ref="§4 Conclusions and Future Work (the dynamic scenario, served live)",
            runner="run_s1_serve",
            bench="benchmarks/bench_serve.py",
            expected_shape="poisson trace: ~100% assignment at metastable latency; hotspot trace: partial assignment with the excess shed as retries within max_wait_rounds",
            modules=("repro.serve",),
            capabilities=("seed",),
            smoke=_smoke(n=128, rounds=30, rate=0.3),
        ),
        ExperimentSpec(
            id="F1",
            title="Fault tolerance vs faulty fraction f",
            claim="dynamic saer with recovery restabilizes after a fraction f of servers crash, stall, or turn Byzantine, degrading gracefully in f; the f=0 row is bit-identical to the fault-free run",
            paper_ref="§4 Conclusions and Future Work (robustness of the dynamic scenario)",
            runner="run_f1_faults",
            bench="benchmarks/bench_serve.py",
            expected_shape="backlog restabilizes after the fault for small f and degrades monotonically as f grows; byz_absorbed > 0 only for byz_server rows; f=0 matches the no-fault control",
            modules=("repro.faults", "repro.dynamic"),
            smoke=_smoke(
                n=64, horizon=60, trials=1,
                fractions=(0.2,), kinds=("crash",),
            ),
        ),
    ]
}


def get_experiment(exp_id: str) -> ExperimentSpec:
    """Look up an experiment by id (``"E1"``..``"E12"``, case-insensitive)."""
    key = exp_id.upper()
    if key not in EXPERIMENTS:
        raise ExperimentError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[key]


def list_experiments() -> list[ExperimentSpec]:
    """All experiments in id order (paper claims E1..E12, then the
    subsystem scenarios S1..)."""
    return [EXPERIMENTS[k] for k in sorted(EXPERIMENTS, key=lambda s: (s[0], int(s[1:])))]
