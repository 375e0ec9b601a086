"""The mutation table: one-line defects in the source that the tests must catch.

Each row names a file under `src/meantau/`, a text that occurs there exactly
once, the text that replaces it, and the expected outcome: "killed", or
"equivalent: <why>" for a change the tests rightly let through.  A text that
no longer occurs exactly once, or an outcome of any other form, stops the run
before any row is tried, so a refactor that moves a line fails here loudly
instead of dropping its mutant.

Every row runs tier-1 with `-x` on its own copy of the tree (`src`, `tests`,
`docs`, `README.md`, `pyproject.toml` and `perfbench/configs`, which the tests
read), criterion 10 deselected.  The row is killed when pytest exits 1, a
failed test, and survives when it exits 0; any other exit is an error.  The
unchanged copy runs first and must pass, or no row is tried.

Run it from the repository root, with the test requirements installed:

    python tests/mutants.py

It exits 1 when a row's outcome is not the expected one.  The file is not a
test module: pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "docs", "README.md", "pyproject.toml", "perfbench/configs")
DESELECT = "tests/test_acceptance.py::test_criterion_10_monte_carlo"

# (file under src/meantau, old text, new text, expected outcome)
ROWS = [
    # the six that survived the whole suite before their tests were added
    ("variational.py", "u_tau = policy.values(tau, side=-1)",
     "u_tau = policy.values(tau, side=+1)", "killed"),
    ("simulate.py", "self.policy.values(self.tau, side=-1)",
     "self.policy.values(self.tau, side=+1)", "killed"),
    ("smp.py", "best = min(variants.values()", "best = max(variants.values()", "killed"),
    ("adjoint.py", "_SLOPE_FLOOR = 1e-8", "_SLOPE_FLOOR = 1e-4", "killed"),
    ("bangbang.py", "cuts = cuts[(cuts > 1e-12) & (cuts < tau - 1e-12)]",
     "cuts = cuts[(cuts > 1e-3) & (cuts < tau - 1e-3)]", "killed"),
    # the figure's control column reads the policy's left limits
    ("portfolio.py", '"control": policy.values(ts, side=-1)[:, 0]',
     '"control": policy.values(ts, side=+1)[:, 0]', "killed"),
    # the long-horizon bracket overflows without a warning
    ("portfolio.py", 'with np.errstate(over="ignore"):', 'with np.errstate(over="warn"):',
     "killed"),
    # the box tie rule
    ("problem.py", "np.asarray(g, dtype=float) > 0.0", "np.asarray(g, dtype=float) >= 0.0",
     "killed"),
    # the cap test
    ("simulate.py", "if tau >= horizon:", "if tau > horizon:", "killed"),
    # the hit interpolation
    ("simulate.py", "* y[j - 1] / (y[j - 1] - y[j])", "* -y[j] / (y[j - 1] - y[j])", "killed"),
    # RK4's last stage
    ("simulate.py", "k4 = hs[:, None] * (k3 @ M.T) + f1", "k4 = hs[:, None] * (k3 @ M.T) + fm",
     "killed"),
    # the response solve's last partial step, from the node before the hit
    # to tau; the step to E[X](tau) from that node, not from the hit node
    ("simulate.py", "np.append(times[:j], tau)", "times[: j + 1]", "killed"),
    ("simulate.py", "[times[j - 1], tau], z[j - 1])", "[times[j - 1], tau], z[j])", "killed"),
    # the cost fold's interpolated x(tau)
    ("simulate.py", "(1.0 - lam) * a + lam * b", "lam * a + (1.0 - lam) * b", "killed"),
    # the EM moment map's C term
    ("simulate.py", "phi += dt * np.kron(C, C)", "phi += 0.5 * dt * np.kron(C, C)", "killed"),
    # the backward-RK4 step's source, driven through -I
    ("adjoint.py", "v = _affine_path(A.T, -np.eye(len(source)),",
     "v = _affine_path(A.T, np.eye(len(source)),", "killed"),
    # check-smp's left limit at its last node, and its weight at u(tau-)
    ("smp.py", "u_bar[-1] = policy.values(times[-1], side=-1)",
     "u_bar[-1] = policy.values(times[-1], side=+1)", "killed"),
    ("smp.py", "u_tau = policy.values(tau, side=-1)", "u_tau = policy.values(tau, side=+1)",
     "killed"),
    # the singular-plateau length
    ("bangbang.py", "np.max(ends - starts, initial=0)", "np.max(ends - starts - 1, initial=0)",
     "killed"),
    # check-smp's weight without the terminal cost's drift psi_lin.(A x + B u)
    ("smp.py", "weight = float(drift[0] + cost.running(xrow, u_tau)[0])",
     "weight = float(cost.running(xrow, u_tau)[0])", "killed"),
    # the backward route's refinement count, ten times coarser
    ("adjoint.py", "r = max(1, int(np.ceil(norm_a * grid.dt / 0.003 - 1e-9)))",
     "r = max(1, int(np.ceil(norm_a * grid.dt / 0.03 - 1e-9)))", "killed"),
    # the state table's z only where its scale is positive
    ("variational.py", "if var_scale > 0.0:", "if var > 0.0:", "killed"),
    # the command line: an allocation the host refuses, the thread and grid checks
    ("cli.py", "except (ValueError, MemoryError) as exc:", "except ValueError as exc:", "killed"),
    ("cli.py", "if args.threads < 1:", "if args.threads < 0:", "killed"),
    ("cli.py", 'for size in ("steps", "nodes", "t_nodes"):', 'for size in ("steps", "nodes"):',
     "killed"),
    # the config reader: a boolean is no number, ragged rows, one control dimension
    ("config.py", '(bool, "boolean"),', "", "killed"),
    ("config.py", "if len(lengths) > 1:", "if len(lengths) > 2:", "killed"),
    ("config.py", "if k != k0:", "if k > k0:", "killed"),
    # the artifact writers: round-trip floats, sorted keys, non-finite values as strings
    ("output.py", 'return "%.17g" % float(x)', 'return "%.16g" % float(x)', "killed"),
    ("output.py", "sort_keys=True", "sort_keys=False", "killed"),
    ("output.py", "return fmt_float(x)", "return None", "killed"),
    # a diverged path's diagnostic names the path
    ("errors.py", 'return {"step": self.step, "path": self.path}', 'return {"step": self.step}',
     "killed"),
    # the in-house kernels: a Pade coefficient and Brent's short-step test
    ("_numerics.py", "1995840.0", "1995841.0", "killed"),
    ("_numerics.py", "bisect = not 2.0 * abs(stry) < min(", "bisect = not abs(stry) < min(",
     "killed"),
    # the minimum time: the box's least vertex in v, the slope screen's sign
    # test for a minimum between nodes, and the bracket at the first node
    # where v <= 0
    ("bangbang.py", "return np.minimum(lo[i] * k, hi[i] * k)",
     "return np.maximum(lo[i] * k, hi[i] * k)", "killed"),
    ("bangbang.py", "(slopes[:-1] <= 0.0) & (slopes[1:] >= 0.0)",
     "(slopes[:-1] >= 0.0) & (slopes[1:] <= 0.0)", "killed"),
    ("bangbang.py", "end = hit[0] if hit.size else len(times)",
     "end = hit[-1] if hit.size else len(times)", "killed"),
    # the one synthesis pass: tau is the certificate, not the RK4 hit; the
    # policy is anchored there; the gap is the hit minus tau*, not its negative
    ("bangbang.py", "        tau=tau_star,", "        tau=hit.tau,", "killed"),
    ("bangbang.py", "vertex_policy(spec, tau_star, switch_times)",
     "vertex_policy(spec, tau_star * (1.0 + 1e-9), switch_times)", "killed"),
    ("bangbang.py", "tau_gap=hit.tau - tau_star,", "tau_gap=tau_star - hit.tau,", "killed"),
    # the switch times are the zeros of k mirrored through tau*, not the
    # zeros themselves; a hit pass that misses a certified tau* < T fails the
    # cross-check; a Khat that vanishes at a piece's midpoint is singular
    ("bangbang.py", "np.sort(tau_star - z[(z > 0.0) & (z < tau_star)])",
     "np.sort(z[(z > 0.0) & (z < tau_star)])", "killed"),
    ("bangbang.py", 'if hit.case_label == "ii" and tau_star < T:',
     'if hit.case_label == "iii" and tau_star < T:', "killed"),
    ("bangbang.py", "zero = np.abs(k_mid) <= _ZERO_TOL", "zero = np.abs(k_mid) < 0.0 * _ZERO_TOL",
     "killed"),
    # the Van Loan helper's identity super-diagonal, dropped from the
    # three-block matrices of the minimum time and the duality integral
    ("adjoint.py", "blk = np.eye(len(diagonal) * m, k=m)",
     "blk = np.eye(len(diagonal) * m, k=m) * (len(diagonal) < 3)", "killed"),
    # the closed-form duality integral: the J difference of the g0 part, the
    # sign of g2 in the W block, and the lift of a growing rate
    ("variational.py", "rhs += ((cJ_a - cJ_b) @ B + c_u * h) @ seg.gamma0",
     "rhs += ((cJ_b - cJ_a) @ B + c_u * h) @ seg.gamma0", "killed"),
    ("variational.py", "W = _van_loan([(g2 - lift) * eye,", "W = _van_loan([(-g2 - lift) * eye,",
     "killed"),
    ("variational.py", "lift = max(g2, 0.0)", "lift = 0.0", "killed"),
]


def check_rows(rows):
    """Each old text occurs exactly once in its file and each expected outcome is
    "killed" or "equivalent: <why>"; raise SystemExit naming the rows that break this."""
    bad = []
    for i, (name, old, _, expected) in enumerate(rows):
        n = (ROOT / "src" / "meantau" / name).read_text().count(old)
        if n != 1:
            bad.append(f"row {i}: {name} holds {old!r} {n} times, not once")
        if expected != "killed" and not expected.startswith("equivalent: "):
            bad.append(f"row {i}: expected {expected!r}, not 'killed' or 'equivalent: <why>'")
    if bad:
        raise SystemExit("\n".join(bad))


def run_suite(tree):
    """Tier-1 with -x on `tree`, criterion 10 deselected: (outcome, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--deselect", DESELECT]
    start = time.perf_counter()
    code = subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode
    outcome = {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")
    return outcome, time.perf_counter() - start


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for rel in COPIED:
        src = ROOT / rel
        if src.is_dir():
            shutil.copytree(src, dest / rel, ignore=ignore)
        else:
            shutil.copy2(src, dest / rel)


def main():
    check_rows(ROWS)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="meantau-mutants-") as tmp:
        base = Path(tmp) / "tree"
        copy_tree(base)
        outcome, secs = run_suite(base)
        print(f" - {outcome:9s} {secs:6.1f}s unchanged tree", flush=True)
        if outcome != "survived":
            raise SystemExit("the unchanged tree does not pass; no row is tried")
        for i in range(len(ROWS)):
            name, old, new, expected = ROWS[i]
            tree = Path(tmp) / f"row{i}"
            copy_tree(tree)
            path = tree / "src" / "meantau" / name
            path.write_text(path.read_text().replace(old, new))
            outcome, secs = run_suite(tree)
            shutil.rmtree(tree)
            want = "killed" if expected == "killed" else "survived"
            failures += outcome != want
            mark = "" if outcome == want else f"  EXPECTED {expected}"
            print(f"{i:2d} {outcome:9s} {secs:6.1f}s {name}: {old!r} -> {new!r}{mark}", flush=True)
    print(f"{len(ROWS)} rows, {failures} not as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
