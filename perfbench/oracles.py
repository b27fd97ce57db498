"""Output oracles for the memspec CLI, independent of memspec's solvers.

Every check here evaluates the Laplace-transformed kernel
Khat(lam) = sum_j a_j b_j / (lam + b_j) itself, from the problem's config
dictionary, and judges one subcommand's printed output.  No function in this
module imports memspec.

Each oracle takes the config dict, the argv list and the captured stdout and
returns a list of problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

#: Relative slack on the enclosure membership tests (outputs carry 12 digits).
MEMBERSHIP_RTOL = 1e-6

#: Relative slack on symbol residuals, on top of the printing error.
RESIDUAL_RTOL = 1e-9

#: Printed numbers carry 12 significant digits.
PRINT_RTOL = 1e-11

EIGS_HEADER = "re,im,source,branch,residual,jordan_ok"
CLOUD_HEADER = "re,im,alpha,beta"

VALIDATE_CHECKS = ("conjugate_symmetry", "left_half_plane",
                   "essential_in_interval", "equivalence_residuals",
                   "char_poly_identity", "pole_exclusion")


class Symbol:
    """The rational symbol lam^2 + alpha - beta * Khat(lam) of one kernel."""

    def __init__(self, kernel: dict):
        terms = sorted(zip(kernel["b"], kernel["a"]))
        self.rates = [float(b) for b, _ in terms]
        self.weights = [float(a) * float(b) for b, a in terms]

    @property
    def n_terms(self) -> int:
        return len(self.rates)

    def khat(self, lam):
        return sum(w / (lam + b) for w, b in zip(self.weights, self.rates))

    def fredholm(self, bhat: float, x: float) -> float:
        """1 - bhat * Khat(x) on the real axis."""
        return 1.0 - bhat * self.khat(x)

    def residual_ok(self, lam: complex, alpha: float, beta: float,
                    printed_coeffs: bool = False) -> bool:
        """|lam^2 + alpha - beta*Khat(lam)| within printing and solver error.

        ``printed_coeffs`` adds the rounding of alpha and beta when they were
        read back from 12-digit output rather than computed here.
        """
        mags = [abs(lam + b) for b in self.rates]
        if min(mags) == 0.0:
            return False
        value = lam * lam + alpha - beta * self.khat(lam)
        size = abs(lam) ** 2 + alpha + beta * sum(
            w / m for w, m in zip(self.weights, mags))
        slope = 2.0 * abs(lam) + beta * sum(
            w / (m * m) for w, m in zip(self.weights, mags))
        slack = slope * PRINT_RTOL * (abs(lam.real) + abs(lam.imag))
        if printed_coeffs:
            slack += PRINT_RTOL * size
        return abs(value) <= RESIDUAL_RTOL * size + 4.0 * slack

    def branch_zeros(self, bhat: float) -> list[float]:
        """The N zeros of 1 - bhat*Khat, one per pole gap, by bisection.

        On each gap (-b_{j+1}, -b_j), with b_0 = 0, the function rises
        monotonically from -inf to +inf (to the positive margin at 0 on the
        last gap), so plain bisection brackets exactly one zero.
        """
        edges = [0.0] + [-b for b in self.rates]
        zeros = []
        for right, left in zip(edges, edges[1:]):
            lo, hi = left, right
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                if self.fredholm(bhat, mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            zeros.append(0.5 * (lo + hi))
        return sorted(zeros)

    def is_branch_zero(self, x: float, bhat: float) -> bool:
        """True when 1 - bhat*Khat changes sign within a tiny bracket of x."""
        delta = 1e-9 * abs(x) + 1e-14
        lo, hi = x - delta, x + delta
        if any(lo <= -b <= hi for b in self.rates):
            return False
        f_lo, f_hi = self.fredholm(bhat, lo), self.fredholm(bhat, hi)
        return f_lo <= 0.0 <= f_hi


def damping_bounds(damping: dict) -> tuple[float, float]:
    if damping["kind"] == "constant":
        return float(damping["value"]), float(damping["value"])
    if damping["kind"] == "range":
        return float(damping["b_min"]), float(damping["b_max"])
    samples = damping["samples"]
    return (float(damping.get("b_min", min(samples))),
            float(damping.get("b_max", max(samples))))


def box_alpha(a: float, lengths, indices) -> float:
    return a * math.pi ** 2 * sum((m / l) ** 2 for m, l in zip(indices, lengths))


def fd_min_stiffness(a: float, length: float, n_points: int) -> float:
    """Smallest eigenvalue of (a/h^2) tridiag(-1, 2, -1), in closed form."""
    h = length / (n_points + 1)
    return (a / (h * h)) * (2.0 - 2.0 * math.cos(math.pi / (n_points + 1)))


def _csv_rows(text: str, header: str, problems: list[str]):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        problems.append(f"bad CSV header {lines[:1]!r}")
        return [], []
    rows, comments = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line)
        else:
            rows.append(line.split(","))
    return rows, comments


def _conjugates_closed(points, problems: list[str], what: str) -> None:
    """Every non-real point of each group has its conjugate in that group."""
    groups: dict = {}
    for key, lam in points:
        groups.setdefault(key, []).append(lam)
    for key, lams in groups.items():
        for lam in lams:
            if lam.imag == 0.0:
                continue
            tol = 10.0 * PRINT_RTOL * (1.0 + abs(lam))
            if not any(abs(mu - lam.conjugate()) <= tol for mu in lams):
                problems.append(f"{what} {key}: {lam} has no conjugate")
                return


def check_eigs(cfg: dict, argv, out: str) -> list[str]:
    """Each row solves its own mode's symbol; rows are conjugate-closed."""
    problems: list[str] = []
    rows, _ = _csv_rows(out, EIGS_HEADER, problems)
    if problems:
        return problems
    sym = Symbol(cfg["kernel"])
    a = float(cfg["coefficient_a"])
    lengths = cfg["domain"]["lengths"]
    bhat = float(cfg["damping"]["value"])
    points = []
    for row in rows:
        try:
            lam = complex(float(row[0]), float(row[1]))
            indices = [int(m) for m in row[2][len("m="):].split("-")]
        except (ValueError, IndexError):
            problems.append(f"unparseable row {row}")
            continue
        alpha = box_alpha(a, lengths, indices)
        if not sym.residual_ok(lam, alpha, bhat * alpha):
            problems.append(f"row {row[2]} {lam}: symbol residual too large")
        if (row[3] == "real") != (lam.imag == 0.0):
            problems.append(f"row {row[2]} {lam}: branch {row[3]!r}")
        points.append((row[2], lam))
    _conjugates_closed(points, problems, "mode")
    return problems


def check_essential(cfg: dict, argv, out: str) -> list[str]:
    """Endpoints are branch zeros at b_min or b_max, inside (-b_N, 0)."""
    problems: list[str] = []
    try:
        intervals = json.loads(out)["intervals"]
    except (ValueError, KeyError, TypeError):
        return [f"unparseable JSON {out[:80]!r}"]
    sym = Symbol(cfg["kernel"])
    b_min, b_max = damping_bounds(cfg["damping"])
    if not 1 <= len(intervals) <= sym.n_terms:
        problems.append(f"{len(intervals)} intervals for {sym.n_terms} terms")
    floor = -sym.rates[-1]
    for lo, hi in intervals:
        if not floor < lo <= hi < 0.0:
            problems.append(f"interval [{lo}, {hi}] leaves ({floor}, 0)")
        for x in (lo, hi):
            if not (sym.is_branch_zero(x, b_min)
                    or sym.is_branch_zero(x, b_max)):
                problems.append(f"endpoint {x!r} is not a branch zero")
    for bhat in (b_min, b_max):
        for z in sym.branch_zeros(bhat):
            tol = 1e-9 * abs(z) + 1e-14
            if not any(lo - tol <= z <= hi + tol for lo, hi in intervals):
                problems.append(f"branch zero {z!r} at {bhat} not covered")
    return problems


def check_enclosure(cfg: dict, argv, out: str) -> list[str]:
    """JSON: c0 <= every essential endpoint <= c1.  CSV: cloud solves."""
    if "csv" in argv:
        return _check_cloud(cfg, out)
    try:
        doc = json.loads(out)
        c0, c1 = float(doc["c0"]), float(doc["c1"])
    except (ValueError, KeyError, TypeError):
        return [f"unparseable JSON {out[:80]!r}"]
    problems: list[str] = []
    sym = Symbol(cfg["kernel"])
    b_min, b_max = damping_bounds(cfg["damping"])
    for bhat in (b_min, b_max):
        for z in sym.branch_zeros(bhat):
            tol = 1e-9 * abs(z) + 1e-14
            if not c0 - tol <= z <= c1 + tol:
                problems.append(f"endpoint {z!r} outside [{c0}, {c1}]")
    strips = (doc.get("d0"), doc.get("d1"), doc.get("hat_d"))
    if (sym.n_terms == 1) != all(s is not None for s in strips):
        problems.append(f"strips {strips} for {sym.n_terms} terms")
    return problems


def _check_cloud(cfg: dict, out: str) -> list[str]:
    problems: list[str] = []
    rows, _ = _csv_rows(out, CLOUD_HEADER, problems)
    if problems:
        return problems
    sym = Symbol(cfg["kernel"])
    points = []
    for row in rows:
        try:
            re_, im, alpha, beta = (float(v) for v in row)
        except ValueError:
            problems.append(f"unparseable row {row}")
            continue
        lam = complex(re_, im)
        if not sym.residual_ok(lam, alpha, beta, printed_coeffs=True):
            problems.append(f"cloud point {lam} at ({alpha}, {beta})")
        points.append(((row[2], row[3]), lam))
    if not rows:
        problems.append("empty cloud")
    _conjugates_closed(points, problems, "cloud (alpha, beta)")
    return problems


def fd_inside(sym: Symbol, lam: complex, w_min: float, b_min: float,
              b_max: float) -> bool:
    """Closed-form membership of lam in the FD problem's enclosure.

    An FD eigenvalue satisfies lam^2 + alpha - beta*Khat(lam) = 0 with the
    Rayleigh quotients alpha >= w_min and b_min <= beta/alpha <= b_max.  For
    non-real lam both are linear in (alpha, beta) and the y factor cancels:
    beta = -2x / S and alpha = beta * Re Khat - (x^2 - y^2), with
    S = sum_j a_j b_j / |lam + b_j|^2.  For real lam the spectral map
    -lam^2 / (1 - bhat*Khat(lam)) is monotone in bhat, so its values at
    b_min and b_max decide.
    """
    x, y = lam.real, lam.imag
    rtol = MEMBERSHIP_RTOL
    if y != 0.0:
        mags = [(x + b) ** 2 + y * y for b in sym.rates]
        s = sum(w / m for w, m in zip(sym.weights, mags))
        re_k = sum(w * (x + b) / m for w, b, m in zip(sym.weights, sym.rates,
                                                       mags))
        beta = -2.0 * x / s
        alpha = beta * re_k - (x * x - y * y)
        if not alpha >= w_min * (1.0 - rtol):
            return False
        ratio = beta / alpha
        return b_min * (1.0 - rtol) <= ratio <= b_max * (1.0 + rtol)
    k = sym.khat(x)
    d_lo, d_hi = 1.0 - b_min * k, 1.0 - b_max * k
    if d_lo * d_hi <= 0.0:
        return True  # the spectral map passes through infinity
    if d_lo > 0.0:
        return False  # negative stiffness at every level
    return max(-x * x / d_lo, -x * x / d_hi) >= w_min * (1.0 - rtol)


def check_discretize(cfg: dict, argv, out: str) -> list[str]:
    """The printed inside/outside counts agree with the closed-form test."""
    problems: list[str] = []
    rows, comments = _csv_rows(out, EIGS_HEADER, problems)
    if problems:
        return problems
    report = {}
    for line in comments:
        key, _, value = line[1:].strip().partition("=")
        report[key] = value
    try:
        inside, outside = int(report["inside"]), int(report["outside"])
    except (KeyError, ValueError):
        return [f"missing containment report {comments}"]
    sym = Symbol(cfg["kernel"])
    b_min, b_max = damping_bounds(cfg["damping"])
    dom = cfg["domain"]
    w_min = fd_min_stiffness(float(cfg["coefficient_a"]),
                             float(dom.get("length", 1.0)), dom["grid_points"])
    refuted = 0
    for row in rows:
        lam = complex(float(row[0]), float(row[1]))
        if not fd_inside(sym, lam, w_min, b_min, b_max):
            refuted += 1
    if inside + outside != len(rows):
        problems.append(f"inside+outside={inside + outside} for {len(rows)} rows")
    if outside != refuted:
        problems.append(f"printed outside={outside}, oracle finds {refuted}")
    return problems


def check_validate(cfg: dict, argv, out: str) -> list[str]:
    """Every check line present and PASS on a hypothesis-satisfying input."""
    lines = out.splitlines()
    problems = [line for line in lines if not line.startswith("PASS ")]
    names = {line.split()[1].rstrip(":") for line in lines if " " in line}
    expected = set(VALIDATE_CHECKS)
    b_min, b_max = damping_bounds(cfg["damping"])
    if cfg["damping"]["kind"] == "constant" and b_max > 0.0:
        expected.add("jordan_condition")
    missing = expected - names
    if missing:
        problems.append(f"missing checks {sorted(missing)}")
    return problems


ORACLES = {
    "essential": check_essential,
    "eigs": check_eigs,
    "enclosure": check_enclosure,
    "discretize": check_discretize,
    "validate": check_validate,
}


def judge(subcommand: str, cfg: dict, argv, exit_code, out: str,
          error: str | None) -> tuple[str | None, list[str]]:
    """Failure kind (None when the call passed) and the problems found.

    Every generated input satisfies the standing hypothesis, so the expected
    exit code is 0 for every call.
    """
    if error is not None:
        return "traceback", [error]
    if exit_code != 0:
        problems = [f"exit code {exit_code}"]
        if subcommand == "validate":
            problems += check_validate(cfg, argv, out)
        return "exit_code", problems
    problems = ORACLES[subcommand](cfg, argv, out)
    return ("oracle" if problems else None), problems
