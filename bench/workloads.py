"""The three workloads: inputs made from a seed, one timed pass, output checks.

Every function takes the `ybx` package as an argument instead of importing
it, because set-up re-imports the package from source each time it runs.

* ladder: jordan-shaped problems with W = I over a fixed ladder of nilpotent
  partitions, solved in the Jordan frame.  The time is in the branch search.
* conjugated: dense matrices A = W J W^-1 (and the bundled 4.1 matrix) with
  eigenvalues {0, 1, -1}: Jordan form, solve, conversion to the original frame
  and canonical JSON.  The time is in exact elimination and matrix products.
* check: the read side.  Set-up solves and writes original-frame families;
  each pass parses them, samples every branch, re-verifies membership and runs
  both bundled examples through the command line.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import time
from dataclasses import dataclass, field

# Partitions whose search finishes in seconds at most.  (3, 3, 3) is left out:
# it takes about six minutes (see bench/README.md).
LADDER = (
    (2, 2), (3, 3), (4, 3), (4, 4), (2, 2, 2), (3, 3, 1),
    (3, 3, 2), (5, 3), (4, 2, 2), (5, 5), (6, 4), (2, 2, 2, 2),
)

# (n, Jordan groups).  Every nilpotent part is fully solved (no residual
# branches), so the search stays cheap and the matrix work dominates.
CONJUGATED = (
    (8, ((0, (3, 2)), (1, (2,)), (-1, (1,)))),
    (12, ((0, (4, 3)), (1, (2, 1)), (-1, (2,)))),
    (16, ((0, (4, 3, 2)), (1, (2, 2)), (-1, (2, 1)))),
    (20, ((0, (5, 4, 2)), (1, (3, 2)), (-1, (2, 2)))),
)
EIGENVALUES = ("0", "1", "-1")
CHECK_SIZES = (8, 12)
EXAMPLES = ("4.1", "4.2")

# W = P L D U with unit triangular L, U (entries in {-1, 0, 1}) and D holding
# these pivots, so det W = +-30 for every seed and inputs of one size cost
# about the same whatever the seed.
W_PIVOTS = (2, 3, 5)

MEMBERSHIP_TRIALS = 2  # output check on every Jordan-frame family
CHECK_TRIALS = 1  # verify_family_membership inside a `check` pass
PROBLEM_CAP_S = 60.0


class ProblemTimeout(BaseException):
    """Raised by the per-problem alarm; a BaseException so ybx cannot swallow it."""


@dataclass
class Problem:
    label: str
    payload: dict  # what the program receives: a problem file, or a family path
    spec: object = None  # the JordanSpec the input was made from


@dataclass
class Outcome:
    label: str
    start: float = 0.0  # perf_counter readings around the problem
    end: float = 0.0
    error: str = ""
    sim: object = None
    jordan: object = None  # Jordan-frame family
    original: object = None  # original-frame family
    text: str = ""  # canonical JSON of the written family
    report: object = None  # verify_family_membership result
    output: str = ""  # captured command-line output
    _signature: tuple | None = None

    @property
    def ok(self) -> bool:
        return not self.error

    def family(self):
        return self.original if self.original is not None else self.jordan

    def signature(self) -> tuple:
        """Branch count, residual-branch count and written bytes of the result."""
        if self._signature is None:
            family = self.family()
            branches = family.branches if family is not None else ()
            residual = sum(1 for b in branches if b.residual_system)
            self._signature = (len(branches), residual, self.text)
        return self._signature

    def compact(self) -> None:
        """Keep the signature and drop the results, so old passes hold no memory."""
        self.signature()
        self.sim = self.jordan = self.original = None
        self.text = ""


@dataclass
class State:
    """What set-up hands to the passes, the checks and the layer probe."""

    problems: list[Problem]
    workdir: str
    families: dict = field(default_factory=dict)  # check: label -> setup Outcome


def _on_alarm(signum, frame):
    raise ProblemTimeout()


def run_problem(label: str, fn) -> Outcome:
    """Run fn() under the per-problem time cap; failures become outcomes."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBLEM_CAP_S)
    start = time.perf_counter()
    try:
        out = fn()
    except ProblemTimeout:
        out = Outcome(label, error=f"time cap {PROBLEM_CAP_S} s")
    except Exception as exc:  # a failing problem is counted, never fatal
        out = Outcome(label, error=f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out.start, out.end = start, time.perf_counter()
    return out


# -- inputs ------------------------------------------------------------------


def ladder_label(sizes) -> str:
    return "-".join(map(str, sizes))


def random_w(rng: random.Random, n: int) -> list[list[int]]:
    """Dense integer W with det +-30 (see W_PIVOTS)."""
    pivots = [1] * (n - len(W_PIVOTS)) + list(W_PIVOTS)
    rng.shuffle(pivots)
    lower = [[rng.randint(-1, 1) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-1, 1) if j > i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        upper[i][i] = pivots[i]
    w = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rng.shuffle(w)
    return w


def _matrix_problem(ybx, rng: random.Random, n: int, pairs) -> Problem:
    spec = ybx.JordanSpec.from_pairs(pairs)
    w = ybx.ExactMatrix.from_rows(random_w(rng, n))
    a = ybx.similarity_from_jordan(spec, w).a
    payload = {"matrix": ybx.formats.matrix_to_grid(a), "eigenvalues": list(EIGENVALUES)}
    return Problem(f"n{n}", payload, spec)


def _example_41_problem(ybx) -> Problem:
    payload = ybx.formats.problem_to_json(ybx.bundled.example_41_problem())
    return Problem("ex4.1", payload, ybx.bundled.example_41_spec())


def conjugated_problems(ybx, seed: int, sizes=None) -> list[Problem]:
    rng = random.Random(f"conjugated:{seed}")
    problems = [_example_41_problem(ybx)]
    for n, pairs in CONJUGATED:
        if sizes is None or n in sizes:
            problems.append(_matrix_problem(ybx, rng, n, pairs))
    return problems


def ladder_problems(ybx, seed: int, ladder=LADDER) -> list[Problem]:
    problems = [
        Problem(
            ladder_label(p),
            {"jordan": [{"eigenvalue": "0", "sizes": list(p)}]},
            ybx.JordanSpec.from_pairs([(0, p)]),
        )
        for p in ladder
    ]
    random.Random(f"ladder:{seed}").shuffle(problems)
    return problems


# -- solving (ladder and conjugated passes, check set-up) -----------------------


def solve_jordan(ybx, problem: Problem) -> Outcome:
    """`ybx solve --frame jordan` without the file: parse, similarity, solve."""
    sim = ybx.formats.similarity_from_problem(ybx.formats.problem_from_json(problem.payload))
    return Outcome(problem.label, sim=sim, jordan=ybx.solver.solve(sim))


def solve_original(ybx, problem: Problem) -> Outcome:
    """`ybx solve` without the file: also convert and serialize canonically."""
    out = solve_jordan(ybx, problem)
    out.original = ybx.solver.to_original(out.jordan, out.sim)
    out.text = ybx.formats.dumps_canonical(ybx.formats.family_to_json(out.original))
    return out


# -- check pass ------------------------------------------------------------------


def branch_draw(ybx, branch, rng: random.Random):
    """Free-parameter values for one seeded draw in the branch, or None."""
    values = ybx.oracle.random_branch_values(branch, rng)
    if values is None:
        return None
    return {name: values[name] for name in branch.free_parameters}


def read_and_sample(ybx, label: str, path: str, seed: int) -> Outcome:
    family = ybx.formats.family_from_json(ybx.formats.load_json(path))
    rng = random.Random(f"sample:{seed}:{label}")
    for index, branch in enumerate(family.branches):
        draw = branch_draw(ybx, branch, rng)
        if draw is None:
            raise RuntimeError(f"no valid draw for branch {index}")
        ybx.solver.sample(family, index, draw)
    report = ybx.oracle.verify_family_membership(family, family.matrix, CHECK_TRIALS, seed)
    return Outcome(label, original=family, report=report)


def run_example(ybx, example: str, outdir: str, seed: int) -> Outcome:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = ybx.cli.main(["example", example, outdir, "--seed", str(seed)])
    out = Outcome(f"ex{example}-cli", output=buffer.getvalue())
    if code != 0:
        out.error = f"exit code {code}"
    return out


# -- workloads -------------------------------------------------------------------


class Workload:
    """A problem set made by `setup`, run one problem at a time by `run_pass`."""

    def setup(self, ybx, seed: int, workdir: str) -> State:
        raise NotImplementedError

    def run_one(self, ybx, state: State, problem: Problem, seed: int) -> Outcome:
        raise NotImplementedError

    def check(self, ybx, state: State, passes, seed: int) -> list[str]:
        """Failures found in the outputs; passes[-1] still holds its results."""
        raise NotImplementedError

    def run_pass(self, ybx, state: State, seed: int, tracer) -> list[Outcome]:
        out = []
        for p in state.problems:
            with tracer.span("problem", p.label):
                out.append(run_problem(p.label, lambda p=p: self.run_one(ybx, state, p, seed)))
        return out


class Ladder(Workload):
    def __init__(self, ladder=LADDER):
        self.ladder = ladder

    def setup(self, ybx, seed: int, workdir: str) -> State:
        return State(ladder_problems(ybx, seed, self.ladder), workdir)

    def run_one(self, ybx, state: State, problem: Problem, seed: int) -> Outcome:
        return solve_jordan(ybx, problem)

    def check(self, ybx, state: State, passes, seed: int) -> list[str]:
        return _membership_failures(ybx, passes[-1], seed) + _repeat_failures(passes)


class Conjugated(Workload):
    def __init__(self, sizes=None):
        self.sizes = sizes

    def setup(self, ybx, seed: int, workdir: str) -> State:
        return State(conjugated_problems(ybx, seed, self.sizes), workdir)

    def run_one(self, ybx, state: State, problem: Problem, seed: int) -> Outcome:
        return solve_original(ybx, problem)

    def check(self, ybx, state: State, passes, seed: int) -> list[str]:
        last = passes[-1]
        failures = _membership_failures(ybx, last, seed) + _repeat_failures(passes)
        for problem, o in zip(state.problems, last):
            if not o.ok:
                continue
            expected, _ = problem.spec.canonical()
            if o.sim.canonicalized().spec != expected:
                failures.append(f"{o.label}: Jordan structure differs from the generator's")
            failures += _original_draw_failures(ybx, o, seed)
        return failures


class Check(Workload):
    def __init__(self, sizes=CHECK_SIZES):
        self.sizes = sizes

    def setup(self, ybx, seed: int, workdir: str) -> State:
        state = State([], workdir)
        for p in conjugated_problems(ybx, seed, self.sizes):
            solved = solve_original(ybx, p)
            path = os.path.join(workdir, f"family-{p.label}.json")
            ybx.formats.atomic_write_text(path, solved.text)
            state.problems.append(Problem(p.label, {"family": path}, p.spec))
            state.families[p.label] = solved
        for example in EXAMPLES:
            state.problems.append(Problem(f"ex{example}-cli", {"example": example}))
        return state

    def run_one(self, ybx, state: State, problem: Problem, seed: int) -> Outcome:
        if "family" in problem.payload:
            return read_and_sample(ybx, problem.label, problem.payload["family"], seed)
        example = problem.payload["example"]
        return run_example(ybx, example, os.path.join(state.workdir, f"example-{example}"), seed)

    def check(self, ybx, state: State, passes, seed: int) -> list[str]:
        failures = _membership_failures(ybx, list(state.families.values()), seed)
        for outcomes in passes:
            for o in outcomes:
                if not o.ok:
                    continue
                if o.report is None:  # a command-line example
                    if "result: all checks passed" not in o.output:
                        failures.append(f"{o.label}: golden checks failed")
                elif not o.report.span_match:
                    failures.append(f"{o.label}: membership check failed")
        return failures


def _membership_failures(ybx, outcomes, seed: int) -> list[str]:
    failures = []
    for o in outcomes:
        if o.ok and o.jordan is not None:
            family = o.jordan
            report = ybx.oracle.verify_family_membership(
                family, family.matrix, MEMBERSHIP_TRIALS, seed
            )
            if not report.span_match:
                failures.append(f"{o.label}: Jordan-frame family fails membership")
    return failures


def _repeat_failures(passes) -> list[str]:
    """Every pass must give the same families: same branch counts and bytes."""
    failures = []
    first = {o.label: o.signature() for o in passes[0] if o.ok}
    for outcomes in passes[1:]:
        for o in outcomes:
            if o.ok and o.label in first and o.signature() != first[o.label]:
                failures.append(f"{o.label}: result differs between passes")
    return failures


def _original_draw_failures(ybx, o: Outcome, seed: int) -> list[str]:
    """One seeded branch of the original-frame family must sample cleanly."""
    family = o.original
    rng = random.Random(f"draw:{seed}:{o.label}")
    index = rng.randrange(len(family.branches))
    draw = branch_draw(ybx, family.branches[index], rng)
    if draw is None:
        return [f"{o.label}: no valid draw for branch {index}"]
    try:
        ybx.solver.sample(family, index, draw)
    except Exception as exc:  # any failure of the program's own check is a finding
        return [f"{o.label}: sample of branch {index} failed: {exc}"]
    return []


WORKLOADS = {"ladder": Ladder, "conjugated": Conjugated, "check": Check}
