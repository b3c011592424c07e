"""The layer probe: every per-layer metric, measured on one workload's own data.

Each stage function is called once per problem, from outside, on the
workload's inputs and results; the per-problem times are kept (named
"<metric>.<problem>") and their sum is the metric.  Times are reference
seconds (meter.py).  scalars, polynomials and matrices are timed in loops over
operands taken from the same problems' matrices and constraint systems.  The
probe runs on every workload, so every metric exists on every workload even
where the workload's own pass never calls that layer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import statistics
import time

from workloads import EXAMPLES, Outcome, branch_draw, run_example, run_problem

# name -> unit, in report order.  BENCHMARK.json lists the same names.
PER_LAYER = {
    "scalars.mul_us": "us",
    "scalars.add_us": "us",
    "scalars.reciprocal_us": "us",
    "polynomials.mul_us": "us",
    "polynomials.monic_us": "us",
    "polynomials.substitute_rational_us": "us",
    "polynomials.evaluate_us": "us",
    "matrices.rref_ms": "ms",
    "matrices.mat_inverse_ms": "ms",
    "matrices.mat_mul_ms": "ms",
    "jordan.jordan_form_s": "s",
    "anticommutant.anticommutant_basis_s": "s",
    "anticommutant.dim": "count",
    "solver.build_constraint_system_s": "s",
    "solver.solve_branches_s": "s",
    "solver.to_original_s": "s",
    "solver.sample_s": "s",
    "solver.equations": "count",
    "solver.parameters": "count",
    "solver.branches": "count",
    "solver.residual_branches": "count",
    "solver.solved_share": "ratio",
    "oracle.verify_family_membership_s": "s",
    "formats.dump_s": "s",
    "formats.load_s": "s",
    "formats.family_bytes": "count",
    "cli.example_s.4.1": "s",
    "cli.example_s.4.2": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}

MICRO_SECONDS = 0.05  # least time each micro-benchmark loop runs
MICRO_ROUNDS = 3  # loops per micro-benchmark; the median is reported
MICRO_OPERANDS = 200  # operand pairs drawn per micro-benchmark


@dataclasses.dataclass
class Case:
    """One problem as the probe sees it."""

    label: str
    a: object  # the input matrix (J itself for jordan-shaped problems)
    eigenvalues: tuple
    sim: object  # its similarity data
    family: object  # its Jordan-frame family


def cases_from(state, outcomes) -> list[Case]:
    """Probe cases from the workload's problems and one pass's (or set-up's) results."""
    cases = []
    sources = state.families if state.families else {o.label: o for o in outcomes}
    for problem in state.problems:
        o = sources.get(problem.label)
        if o is not None and o.ok and o.jordan is not None:
            cases.append(Case(problem.label, o.sim.a, o.sim.spec.eigenvalues(), o.sim, o.jordan))
    return cases


def per_call(meter, fn, items) -> float:
    """Median over MICRO_ROUNDS of the mean reference seconds per fn(item)."""
    rounds = []
    for _ in range(MICRO_ROUNDS):
        calls = 0
        start = time.perf_counter()
        while True:
            for item in items:
                fn(item)
            calls += len(items)
            end = time.perf_counter()
            if end - start >= MICRO_SECONDS:
                break
        rounds.append(meter.seconds(start, end) / calls)
    return statistics.median(rounds)


def _pairs(rng: random.Random, pool: list) -> list[tuple]:
    if not pool:
        return []
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(MICRO_OPERANDS)]


def _draws(rng: random.Random, pool: list) -> list:
    return [rng.choice(pool) for _ in range(MICRO_OPERANDS)] if pool else []


class Probe:
    """Runs the probe and collects metrics, per-problem timings and failures."""

    def __init__(self, ybx, seed: int, tracer, meter, workdir: str):
        self.ybx = ybx
        self.meter = meter
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.totals = {name: 0.0 for name in PER_LAYER}
        self.per_problem: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        # operands gathered while the stages run, for the micro-benchmarks
        self.scalars: list = []
        self.equations: list = []
        self.substitutions: list = []
        self.evaluations: list = []
        self.matrix_calls: list = []

    def _stage(self, metric: str, label: str, fn):
        with self.tracer.span(metric):
            start = time.perf_counter()
            value = fn()
            seconds = self.meter.seconds(start, time.perf_counter())
        self.totals[metric] += seconds
        self.per_problem[f"{metric}.{label}"] = seconds
        return value

    def run(self, cases: list[Case]) -> dict[str, float]:
        for case in cases:
            self.attempted += 1
            with self.tracer.span("probe", case.label):
                out = run_problem(case.label, lambda c=case: self._case(c))
            if not out.ok:
                self.failures.append(f"probe {case.label}: {out.error}")
        self._micro()
        self._examples()
        branches = self.totals["solver.branches"]
        residual = self.totals["solver.residual_branches"]
        self.totals["solver.solved_share"] = (branches - residual) / branches if branches else 0.0
        return self.totals

    def _case(self, case: Case):
        ybx, label, seed = self.ybx, case.label, self.seed
        self._stage("jordan.jordan_form_s", label,
                    lambda: ybx.jordan.jordan_form(case.a, case.eigenvalues))
        sizes, _ = ybx.jordan.nilpotent_part(case.sim.canonicalized().spec)
        spec0 = ybx.JordanSpec(((ybx.scalars.as_gaussian(0), sizes),))
        basis = self._stage("anticommutant.anticommutant_basis_s", label,
                            lambda: ybx.anticommutant_basis(spec0, spec0))
        template, system = self._stage("solver.build_constraint_system_s", label,
                                       lambda: ybx.solver.build_constraint_system(sizes))
        branches = self._stage("solver.solve_branches_s", label,
                               lambda: ybx.solver.solve_branches(
                                   system, parameters=template.variables()))
        original = self._stage("solver.to_original_s", label,
                               lambda: ybx.solver.to_original(case.family, case.sim))
        text = self._stage("formats.dump_s", label, lambda: ybx.formats.dumps_canonical(
            ybx.formats.family_to_json(original)))
        self._stage("formats.load_s", label,
                    lambda: ybx.formats.family_from_json(json.loads(text)))

        rng = random.Random(f"probe:{seed}:{label}")
        solved = [i for i, b in enumerate(original.branches) if b.is_fully_solved()]
        index = rng.choice(solved)
        branch = original.branches[index]
        draw = branch_draw(ybx, branch, rng)
        if draw is None:
            raise RuntimeError(f"no valid draw for branch {index}")
        k = self._stage("solver.sample_s", label,
                        lambda: ybx.solver.sample(original, index, draw))
        one_branch = dataclasses.replace(original, branches=(branch,))
        report = self._stage("oracle.verify_family_membership_s", label,
                             lambda: ybx.oracle.verify_family_membership(
                                 one_branch, original.matrix, 1, seed))
        if not report.span_match:
            raise RuntimeError("membership check failed")

        self.totals["anticommutant.dim"] += basis.dimension
        self.totals["solver.equations"] += len(system)
        self.totals["solver.parameters"] += len(template.variables())
        self.totals["solver.branches"] += len(branches)
        self.totals["solver.residual_branches"] += sum(1 for b in branches if b.residual_system)
        self.totals["formats.family_bytes"] += len(text.encode("utf-8"))

        for m in (case.a, case.sim.w_inv, k):
            self.scalars.extend(x for x in m.entries if x)
        for p in system:
            self.scalars.extend(c for _, c in p.terms)
        self.equations.extend(system)
        self.substitutions.extend(
            (eq, b.assignment_map()) for b in branches if b.assignments for eq in system
        )
        values = ybx.solver.branch_values(branch, draw)
        self.evaluations.extend(
            (p, values) for p in original.template.entries if not p.is_zero()
        )
        self.matrix_calls.append((case.a, case.sim.w, k))
        return Outcome(label)

    def _micro(self):
        ybx, meter = self.ybx, self.meter
        rng = random.Random(f"micro:{self.seed}")
        scalar_pairs = _pairs(rng, self.scalars)
        poly_pairs = _pairs(rng, self.equations)
        micro = {
            "scalars.mul_us": (lambda xy: xy[0] * xy[1], scalar_pairs),
            "scalars.add_us": (lambda xy: xy[0] + xy[1], scalar_pairs),
            "scalars.reciprocal_us": (lambda xy: xy[0].reciprocal(), scalar_pairs),
            "polynomials.mul_us": (lambda pq: pq[0] * pq[1], poly_pairs),
            "polynomials.monic_us": (lambda pq: pq[0].monic(), poly_pairs),
            "polynomials.substitute_rational_us":
                (lambda pm: pm[0].substitute_rational(pm[1]), _draws(rng, self.substitutions)),
            "polynomials.evaluate_us":
                (lambda pv: pv[0].evaluate(pv[1]), _draws(rng, self.evaluations)),
        }
        for name, (fn, items) in micro.items():
            if items:
                self.totals[name] = per_call(meter, fn, items) * 1e6
        for a, w, k in self.matrix_calls:
            self.totals["matrices.rref_ms"] += per_call(meter, ybx.matrices.rref, [a]) * 1e3
            self.totals["matrices.mat_inverse_ms"] += (
                per_call(meter, ybx.matrices.mat_inverse, [w]) * 1e3)
            self.totals["matrices.mat_mul_ms"] += (
                per_call(meter, lambda ak: ybx.matrices.mat_mul(*ak), [(a, k)]) * 1e3)

    def _examples(self):
        for example in EXAMPLES:
            self.attempted += 1
            outdir = os.path.join(self.workdir, f"probe-example-{example}")
            with self.tracer.span("probe", f"ex{example}-cli"):
                out = run_problem(example, lambda e=example, d=outdir: run_example(
                    self.ybx, e, d, self.seed))
            self.totals[f"cli.example_s.{example}"] = self.meter.seconds(out.start, out.end)
            if not out.ok or "result: all checks passed" not in out.output:
                reason = out.error or "golden checks failed"
                self.failures.append(f"probe example {example}: {reason}")
