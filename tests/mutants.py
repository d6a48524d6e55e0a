"""Mutants of the package that the tests are known to kill, and a script that checks they still do.

Each entry of `MUTANTS` names a file of the package, an exact snippet of it,
the snippet's replacement, the tests that must fail with the replacement in
place, and the CHANGES.md entry that first recorded the kill.
`tests/test_mutants.py` checks that every snippet occurs exactly once in its
file, so a change that moves the mutated code must update the table.

    python tests/mutants.py [name ...]

first runs every named test on the package as it is (they must pass), then,
for each mutant (or the ones named), copies `src/` to a temporary directory,
applies the replacement there and runs the mutant's tests against that copy
with a fixed hypothesis seed. It prints one line per mutant and exits 1 when
one survives, that is, when one of its tests passes. A surviving mutant is a
finding: make a test stronger, do not drop the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Hypothesis draws new examples on every run unless seeded.
HYPOTHESIS_SEED = 0

REFERENCE_LOOP = "Problem set-up without the certificate SVD or per-node loops"
DIRECTION_KERNELS = "One builder for the mixing families, scale-free direction kernels"
ROUND_BUFFERS = "Round buffers owned by `run`"
POLAR_KERNEL = "Matmul-only exact polar factor"
ONE_CALL_SHAPE = "One call shape per entry point"
ONE_WRITE_PATH = "One write path per round stage"
ALGORITHM_TABLE = "One algorithm table"
POLAR_SCHEDULE = "Quintic Gram schedule for the exact polar factor"
WINDOW_VIEWS = "The diagnostics window reads `run`'s stores as they lie"
FORMULAS = "the ten formula mutants"
OWNERS = "Each formula once"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple  # pytest ids relative to the repository root; each must fail
    found: str  # the CHANGES.md entry that first recorded the kill


OPTIMIZERS = "src/demuon/optimizers.py"
LINALG = "src/demuon/linalg.py"
DIAGNOSTICS = "src/demuon/diagnostics.py"
NOISE = "src/demuon/noise.py"
TOPOLOGY = "src/demuon/topology.py"
BUFFERS = "tests/test_round_buffers.py::"
LINALG_TESTS = "tests/test_linalg.py::"
OPTIMIZER_TESTS = "tests/test_optimizers.py::"
REFERENCE = "tests/test_reference_engine.py::"
ACCEPTANCE = "tests/test_acceptance.py::"
DIAGNOSTICS_TESTS = "tests/test_diagnostics.py::"
NOISE_TESTS = "tests/test_noise.py::"
TOPOLOGY_TESTS = "tests/test_topology.py::"
STACKED_TESTS = "tests/test_stacked.py::"

MUTANTS = (
    Mutant(
        "round k+1's noise is drawn at round k",
        OPTIMIZERS,
        "state.n_nodes, k, out=out.noise)",
        "state.n_nodes, k + 1, out=out.noise)",
        (
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
            OPTIMIZER_TESTS + "test_noise_moment_is_the_python_power_mean_of_the_draws",
        ),
        REFERENCE_LOOP,
    ),
    Mutant(
        "the direction is taken from the unmixed tracker",
        OPTIMIZERS,
        "dirs = _directions(groups, out.v, stochastic,",
        # Until the iterates are written, the x buffer holds the tracked lanes' trackers before the mix.
        "dirs = _directions(groups, out.x, stochastic,",
        (
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
            OPTIMIZER_TESTS + "test_two_node_hand_simulation",
        ),
        REFERENCE_LOOP,
    ),
    Mutant(
        "a wrong Newton-Schulz coefficient",
        LINALG,
        "            y = 1.5 * y - 0.5 * (y @ (yt @ y))\n",
        "            y = 1.5 * y - 0.49 * (y @ (yt @ y))\n",
        (
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
            LINALG_TESTS + "test_newton_schulz_identity_fixed_point",
        ),
        DIRECTION_KERNELS,
    ),
    Mutant(
        "the ball-exit warning names the next iteration",
        OPTIMIZERS,
        "at iteration {iters[int(np.argmax(exits))]}",
        "at iteration {iters[int(np.argmax(exits))] + 1}",
        (
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
            OPTIMIZER_TESTS + "test_ball_exit_warns_at_the_per_node_reference_iteration",
        ),
        DIRECTION_KERNELS,
    ),
    Mutant(
        "msgn_exact drops its fallback scatter",
        LINALG,
        "        out[~ok] = _svd_polar(a[~ok])\n",
        "        pass\n",
        (
            LINALG_TESTS + "test_msgn_exact_conditioning_sweep",
            BUFFERS + "test_zero_and_rank_deficient_trackers_fall_back_into_the_buffers",
        ),
        ROUND_BUFFERS,
    ),
    Mutant(
        "the tracker subtracts M^k instead of M^{k-1}",
        OPTIMIZERS,
        "    v_new -= m\n",
        "    v_new -= m_new\n",
        (
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
            BUFFERS + "test_zero_and_rank_deficient_trackers_fall_back_into_the_buffers",
        ),
        ROUND_BUFFERS,
    ),
    Mutant(
        "the quintic tail's -10/8 made -9.9/8",
        LINALG,
        "_POLAR_NS_TAIL = (15 / 8, -10 / 8, 3 / 8)\n",
        "_POLAR_NS_TAIL = (15 / 8, -9.9 / 8, 3 / 8)\n",
        (
            LINALG_TESTS + "test_gram_route_polar_needs_no_eigh_or_svd",
            LINALG_TESTS + "test_a_converged_slice_stops_iterating",
        ),
        POLAR_SCHEDULE,
    ),
    Mutant(
        "the quintic tail made the cubic step",
        LINALG,
        "_POLAR_NS_TAIL = (15 / 8, -10 / 8, 3 / 8)\n",
        "_POLAR_NS_TAIL = (1.5, -0.5, 0.0)\n",
        (LINALG_TESTS + "test_a_converged_slice_stops_iterating",),
        POLAR_SCHEDULE,
    ),
    Mutant(
        "the Muon row's 3.4445 made 3.0",
        LINALG,
        "_POLAR_NS_MUON = (3.4445, -4.7750, 2.0315)\n",
        "_POLAR_NS_MUON = (3.0, -4.7750, 2.0315)\n",
        (LINALG_TESTS + "test_a_converged_slice_stops_iterating",),
        POLAR_SCHEDULE,
    ),
    Mutant(
        "one Muon row instead of two",
        LINALG,
        "_POLAR_NS_ROWS = (_POLAR_NS_MUON, _POLAR_NS_MUON)\n",
        "_POLAR_NS_ROWS = (_POLAR_NS_MUON,)\n",
        (LINALG_TESTS + "test_a_converged_slice_stops_iterating",),
        POLAR_SCHEDULE,
    ),
    Mutant(
        "the convergence gate is skipped",
        LINALG,
        "        tol = _POLAR_NS_TOL if late else _POLAR_NS_EXACT_TOL\n",
        "        tol = np.inf\n",
        (LINALG_TESTS + "test_msgn_exact_conditioning_sweep",),
        POLAR_KERNEL,
    ),
    Mutant(
        "the convergence gate never passes",
        LINALG,
        "        tol = _POLAR_NS_TOL if late else _POLAR_NS_EXACT_TOL\n",
        "        tol = -1.0\n",
        (LINALG_TESTS + "test_gram_route_polar_needs_no_eigh_or_svd",),
        POLAR_KERNEL,
    ),
    Mutant(
        "the gate reads the diagonal of y alone",
        LINALG,
        "            done[near] = defect.max(axis=(-2, -1)) <= tol\n",
        "            pass\n",
        (LINALG_TESTS + "test_the_gate_reads_the_off_diagonal_entries",),
        POLAR_SCHEDULE,
    ),
    Mutant(
        "a late slice's multiplier is not symmetrised",
        LINALG,
        "        p += np.swapaxes(p, -2, -1)\n        p *= 0.5\n",
        "",
        (LINALG_TESTS + "test_msgn_exact_near_the_top_of_the_late_tier",),
        POLAR_SCHEDULE,
    ),
    Mutant(
        "a late slice takes no step on its factor",
        LINALG,
        "        out.reshape(-1, *out.shape[-2:])[late] = q\n",
        "        pass\n",
        (LINALG_TESTS + "test_msgn_exact_conditioning_sweep",),
        POLAR_KERNEL,
    ),
    Mutant(
        "late slices are not flagged for the step on the factor",
        LINALG,
        "            rough[live[finished]] = late\n",
        "            rough[live[finished]] = False\n",
        (LINALG_TESTS + "test_msgn_exact_conditioning_sweep",),
        POLAR_KERNEL,
    ),
    Mutant(
        "the exact tier runs to the step cap",
        LINALG,
        "        late = step > _POLAR_NS_EXACT_STEPS\n",
        "        late = step > _POLAR_NS_STEPS\n",
        (LINALG_TESTS + "test_msgn_exact_conditioning_sweep",),
        POLAR_KERNEL,
    ),
    Mutant(
        "the compaction's movers are off by m",
        LINALG,
        "            movers = m + np.flatnonzero(~done[m:])\n",
        "            movers = np.flatnonzero(~done[m:])\n",
        (
            LINALG_TESTS + "test_msgn_exact_conditioning_sweep",
            BUFFERS + "test_msgn_exact_into_out_equals_the_allocating_call",
        ),
        POLAR_KERNEL,
    ),
    Mutant(
        "the convergence checks start at step 7",
        LINALG,
        "_POLAR_NS_FIRST_CHECK = 4\n",
        "_POLAR_NS_FIRST_CHECK = 7\n",
        (LINALG_TESTS + "test_a_converged_slice_stops_iterating",),
        ONE_CALL_SHAPE,
    ),
    Mutant(
        "run stacks its lanes in the order passed",
        OPTIMIZERS,
        "    live = [runs[i] for i in sorted(range(len(lanes)), key=lambda i: (not kinds[i][0], kinds.index(kinds[i])))]\n",
        "    live = list(runs)\n",
        (OPTIMIZER_TESTS + "test_interleaved_lanes_take_one_call_per_stage_and_equal_one_lane_runs",),
        ONE_WRITE_PATH,
    ),
    Mutant(
        "a divergence keeps the stack prefix",
        OPTIMIZERS,
        "keep = [j for j, lane_run in enumerate(live) if runs.index(lane_run) < runs.index(failed)]",
        "keep = list(range(exc.lane))",
        (
            OPTIMIZER_TESTS + "test_a_lane_stacked_ahead_of_its_caller_order_does_not_outlive_a_failure",
            OPTIMIZER_TESTS + "test_two_lanes_failing_in_one_round_raise_the_one_passed_first",
        ),
        ONE_WRITE_PATH,
    ),
    Mutant(
        "the layout drops the polar kernel's orthogonalizer",
        OPTIMIZERS,
        "    return tracked, tuple(_runs(kinds))\n",
        # Lanes group by kernel name, and each group takes its first lane's orthogonalizer.
        "    return tracked, tuple((kinds[lanes.start], lanes) for _, lanes in _runs([(on, kernel[0]) for on, kernel in kinds]))\n",
        (OPTIMIZER_TESTS + "test_an_orthogonalizer_splits_only_polar_lanes",),
        ALGORITHM_TABLE,
    ),
    Mutant(
        "carry leaves the state slots in place",
        OPTIMIZERS,
        "        self.x, self.m, self.v = self.x[::-1], self.m[::-1], self.v[::-1]\n",
        "",
        (
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
            OPTIMIZER_TESTS + "test_rows_do_not_depend_on_the_window_when_lanes_retire_mid_window",
        ),
        ONE_WRITE_PATH,
    ),
    Mutant(
        "the ball check reduces over the lane axis",
        OPTIMIZERS,
        "    return outside.any(axis=-1)\n",
        # Right on an (L, N) mask, the one shape the ball check took before windows went in whole.
        "    return outside.any(axis=1)\n",
        (OPTIMIZER_TESTS + "test_ball_screen_decides_as_the_spectral_norm",),
        WINDOW_VIEWS,
    ),
    Mutant(
        "the consensus errors take one lane axis at most",
        DIAGNOSTICS,
        "    if arr.ndim < 3 or 0 in arr.shape[:-2]:\n",
        "    if arr.ndim not in (3, 4) or 0 in arr.shape[:-2]:\n",
        (
            STACKED_TESTS + "test_lane_stacks_match_per_lane_calls",
            REFERENCE + "test_complete_graph_runs_are_centralized_muon",
        ),
        WINDOW_VIEWS,
    ),
    Mutant(
        "the window takes tau as its step size",
        OPTIMIZERS,
        "_round_schedule(lane_run.lane, k)[0]",
        "_round_schedule(lane_run.lane, k)[1]",
        (
            OPTIMIZER_TESTS + "test_run_tracking_and_average_iterate_identities",
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
        ),
        OWNERS,
    ),
    Mutant(
        "the window takes round k + 1's step size",
        OPTIMIZERS,
        "_round_schedule(lane_run.lane, k)[0]",
        "_round_schedule(lane_run.lane, k + 1)[0]",
        (
            OPTIMIZER_TESTS + "test_run_tracking_and_average_iterate_identities",
            OPTIMIZER_TESTS + "test_identities_hold_on_random_doubly_stochastic_mixing",
        ),
        OWNERS,
    ),
    Mutant(
        "the Gram's orientation test is flipped",
        LINALG,
        "if a.shape[-2] >= a.shape[-1] else",
        "if a.shape[-2] < a.shape[-1] else",
        (
            LINALG_TESTS + "test_gram_is_the_short_side_product",
            LINALG_TESTS + "test_gram_route_norms_need_no_svd",
        ),
        OWNERS,
    ),
    Mutant(
        "the ball screen decomposes no node",
        OPTIMIZERS,
        "near = frobenius_norm(xs) > radius * edge",
        "near = frobenius_norm(xs) > np.inf",
        (
            OPTIMIZER_TESTS + "test_ball_screen_decides_as_the_spectral_norm",
            OPTIMIZER_TESTS + "test_ball_exit_warns_at_the_per_node_reference_iteration",
        ),
        OWNERS,
    ),
    # The formulas group: the paper's constants, schedules and estimators.
    Mutant(
        "the potential's p exponent",
        DIAGNOSTICS,
        "    p = k ** ((alpha**2 - 3.0 * alpha + 2.0) / d)\n",
        "    p = k ** ((alpha**2 - 3.0 * alpha + 1.0) / d)\n",
        (
            DIAGNOSTICS_TESTS + "test_theorem_potential_params",
            REFERENCE + "test_engine_matches_the_reference_loop_on_the_gram_route",
        ),
        FORMULAS,
    ),
    Mutant(
        "the theorem theta exponent",
        DIAGNOSTICS,
        "    theta = k ** (-alpha / d)\n",
        "    theta = k ** (-(alpha - 1.0) / d)\n",
        (
            OPTIMIZER_TESTS + "test_theoretical_schedule_values",
            ACCEPTANCE + "test_criterion_09_constant_calculators",
        ),
        FORMULAS,
    ),
    Mutant(
        "N in place of sqrt(N) in the consensus bound",
        DIAGNOSTICS,
        "    return math.sqrt(n_nodes) * lam * eta / (1.0 - lam)\n",
        "    return n_nodes * lam * eta / (1.0 - lam)\n",
        (
            DIAGNOSTICS_TESTS + "test_consensus_bound_values",
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
        ),
        FORMULAS,
    ),
    Mutant(
        "Student-t noise drawn with dof + 1",
        NOISE,
        "rng.standard_t(model.dof, size=(m, n))",
        "rng.standard_t(model.dof + 1.0, size=(m, n))",
        (
            NOISE_TESTS + "test_stacked_draws_equal_the_per_node_streams",
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
        ),
        FORMULAS,
    ),
    Mutant(
        "the mixing rate scaled by 0.9",
        TOPOLOGY,
        "    return spectral_norm(w - np.full((n, n), 1.0 / n))\n",
        "    return 0.9 * spectral_norm(w - np.full((n, n), 1.0 / n))\n",
        (
            TOPOLOGY_TESTS + "test_mixing_rate_complete_and_ring",
            TOPOLOGY_TESTS + "test_ring_rates_match_circulant_eigenvalues",
        ),
        FORMULAS,
    ),
    Mutant(
        "the noise moment's root 1/2 in place of 1/alpha",
        OPTIMIZERS,
        "** (1.0 / noise_model.alpha),",
        "** (1.0 / 2.0),",
        (
            OPTIMIZER_TESTS + "test_noise_moment_is_the_python_power_mean_of_the_draws",
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
        ),
        FORMULAS,
    ),
    Mutant(
        "iota never drawn as the last round",
        OPTIMIZERS,
        ".integers(self.horizon))",
        ".integers(max(self.horizon - 1, 1)))",
        (
            OPTIMIZER_TESTS + "test_run_iota_reaches_every_round_of_a_short_horizon",
            REFERENCE + "test_engine_matches_the_per_node_reference_loop",
        ),
        FORMULAS,
    ),
    Mutant(
        "the potential weight q halved",
        DIAGNOSTICS,
        "    return PotentialParams(p, 2.0 * eta / (1.0 - lam), alpha)\n",
        "    return PotentialParams(p, eta / (1.0 - lam), alpha)\n",
        (
            DIAGNOSTICS_TESTS + "test_theorem_potential_shares_the_schedule_step",
            DIAGNOSTICS_TESTS + "test_theorem_potential_params",
        ),
        FORMULAS,
    ),
    Mutant(
        "the clip radius exponent 0.5 in place of 0.4",
        OPTIMIZERS,
        "params.clip_tau * (k + 1) ** 0.4",
        "params.clip_tau * (k + 1) ** 0.5",
        (
            OPTIMIZER_TESTS + "test_clip_schedule_and_norms",
            ACCEPTANCE + "test_criterion_08_baseline_contracts",
        ),
        FORMULAS,
    ),
    Mutant(
        "u_dm's noise term drops N",
        DIAGNOSTICS,
        "        + 3.0 * (n_nodes * sigma) ** alpha\n",
        "        + 3.0 * sigma**alpha\n",
        (DIAGNOSTICS_TESTS + "test_u_dm_hand_values_with_noise_mixing_and_many_nodes",),
        FORMULAS,
    ),
)


def run_tests(tests, src: Path, workdir: Path) -> set:
    """The ids (as given) of `tests` that fail when the package is imported from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    found = subprocess.run(
        [sys.executable, "-c", "import demuon; print(demuon.__file__)"],
        env=env, cwd=workdir, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).is_relative_to(src):
        raise RuntimeError(f"the tests would import demuon from {found}, not from {src}")
    # Run from `workdir`, so the hypothesis example database of a mutant stays out of the repository.
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
        f"--hypothesis-seed={HYPOTHESIS_SEED}", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
        *(str(ROOT / test) for test in tests),
    ]
    done = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # not a plain pass or fail: a missing test, a collection error
        raise RuntimeError(f"pytest exited with {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    failed = set()
    for line in done.stdout.splitlines():
        if line.startswith("FAILED "):
            # pytest names the file relative to the working directory, and a parametrized case by its parameters.
            path, _, name = line.split()[1].partition("::")
            path = os.path.relpath((workdir / path).resolve(), ROOT)
            failed.add(f"{Path(path).as_posix()}::{name.partition('[')[0]}")
    return failed & set(tests)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's snippet in its file under `root`."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet occurs {text.count(mutant.snippet)} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    tests = sorted({test for mutant in chosen for test in mutant.tests})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        failing = run_tests(tests, ROOT / "src", tmp)
        if failing:
            print(f"these tests fail without a mutant: {sorted(failing)}")
            return 2
        survivors, start = [], time.perf_counter()
        for mutant in chosen:
            copy = tmp / "mutant"
            shutil.copytree(ROOT / "src", copy / "src")
            apply(mutant, copy)
            t0 = time.perf_counter()
            failed = run_tests(mutant.tests, copy / "src", tmp)
            shutil.rmtree(copy)
            passed = [test for test in mutant.tests if test not in failed]
            verdict = "SURVIVED" if passed else "killed"
            seconds = time.perf_counter() - t0
            print(f"{verdict:8}  {mutant.name}  ({len(failed)}/{len(mutant.tests)} failed, {seconds:.1f} s)")
            for test in passed:
                print(f"          passed: {test}")
            if passed:
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
