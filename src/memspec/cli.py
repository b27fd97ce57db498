"""Command-line toolkit: orchestration, validation, and deterministic output.

Subcommands
-----------
essential   essential-spectrum intervals as JSON
eigs        modal eigenvalues (box domain, constant damping) as CSV
enclosure   enclosure constants as JSON, or the boundary cloud as CSV
discretize  1D finite-difference eigenvalues as CSV with containment report
validate    run the invariant suite; exit 0 on success, 1 on failure

Exit codes: 0 success; 1 a validate FAIL line or a numerical failure (a
missed residual guarantee); 2 a configuration or hypothesis error or an
unwritable --output path.  Identical inputs and flags produce byte-identical
output.  The residual column of eigs is the ratio |g| / scale of the
symbol's near-pole form that the mode solver bounds by RESIDUAL_TOL, read at
the printed root, so no subcommand evaluates Khat at a computed real root.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import boxmodes, enclosure, pencil, scalar
from .config import ProblemSpec, parse_config
from .errors import ConfigError, HypothesisError, MemspecError

CSV_HEADER = "re,im,source,branch,residual,jordan_ok"

#: Smallest |f'(lam0)| of the mode symbol accepted as a Jordan chain of
#: length one, relative to the size of its terms (see scalar.jordan_ratio).
_JORDAN_FLOOR = 1e-3

#: CSV text of the jordan_ok column: not evaluated, true, false.
_JORDAN_TEXT = {None: "", True: "true", False: "false"}


def _fmt(x: float) -> str:
    """Shortest representation capped at 12 significant digits."""
    return f"{x:.12g}"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"--output {output}: {exc.strerror}") from None


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_rows(args, z, source, residual, jordan, report=()) -> None:
    """Eigenvalue rows from their columns, as CSV followed by the ``report``
    lines, or as JSON; a real z (Im == 0) is printed with Im = +0."""
    real = z.imag == 0.0
    columns = (z.real.tolist(), np.where(real, 0.0, z.imag).tolist(), source,
               np.where(real, "real", "complex-pair").tolist(),
               residual.tolist())
    if args.format == "json":
        keys = CSV_HEADER.split(",")
        doc = {"counts": {"eigenvalues": len(z)},
               "eigenvalues": [dict(zip(keys, row))
                               for row in zip(*columns, jordan)]}
        _emit(json.dumps(doc) + "\n", args.output)
        return
    cells = chain.from_iterable(zip(*columns,
                                    map(_JORDAN_TEXT.get, jordan)))
    table = "%.12g,%.12g,%s,%s,%.12g,%s\n" * len(z) % tuple(cells)
    _emit(f"{CSV_HEADER}\n{table}" + "\n".join([*report, ""]), args.output)


def _modes(spec: ProblemSpec, box: boxmodes.BoxDomain, alpha_cap: float,
           flag: str | None) -> np.ndarray:
    """Box modes up to alpha_cap, set by ``flag`` (None: by no flag); too
    many index tuples or a cap below the ground mode are refused."""
    try:
        modes = boxmodes.enumerate_modes(spec.coefficient_a, box, alpha_cap)
    except ValueError as exc:
        fields = "domain.lengths" + (f" or {flag}" if flag else "")
        raise ConfigError(f"{exc}; reduce {fields}") from None
    if len(modes) == 0:
        raise ConfigError(
            f"{flag} {alpha_cap:g} is below the ground mode "
            f"{boxmodes.min_stiffness(spec.coefficient_a, box):g}")
    return modes


def _mode_records(spec: ProblemSpec, box: boxmodes.BoxDomain,
                  modes: np.ndarray, imag_cap: float) -> tuple:
    """Columns z, source tag, residual and Jordan verdict (None where it is
    not evaluated) of the eigenvalues of box modes under constant damping."""
    k = spec.kernel
    b = spec.damping.value
    alphas = boxmodes.mode_alpha(spec.coefficient_a, box, modes)
    z, counts = scalar.mode_spectra(k, alphas, b * alphas)
    owner = np.repeat(np.arange(len(modes)), counts)
    kept = np.abs(z.imag) <= imag_cap
    z, alpha = z[kept], alphas[owner[kept]]
    # the bits mode_spectra's residual check read; a root on its pole
    # divides by zero only in |f|, which is not printed
    with np.errstate(divide="ignore", invalid="ignore"):
        g, _, _, scale = scalar._near_pole_form(k, alpha, b * alpha, z)
    residual = np.abs(g) / scale
    at = (z.imag == 0.0) & (z.real != 0.0)
    jordan = np.full(z.shape, None)
    jordan[at] = scalar.jordan_ratio(k, b * alpha[at],
                                     z.real[at]) > _JORDAN_FLOOR
    tags = np.array(["m=" + "-".join(map(str, idx)) for idx in modes.tolist()])
    return z, tags[owner[kept]].tolist(), residual, jordan.tolist()


def cmd_essential(spec: ProblemSpec, args) -> int:
    ess = enclosure.essential_spectrum(spec.kernel, spec.damping.bounds())
    doc = {"intervals": [[lo, hi] for lo, hi in ess.intervals]}
    _emit(json.dumps(doc) + "\n", args.output)
    pretty = " U ".join(f"[{_fmt(lo)}, {_fmt(hi)}]" for lo, hi in ess.intervals)
    _info(f"essential spectrum: {pretty}")
    return 0


def cmd_eigs(spec: ProblemSpec, args) -> int:
    if spec.domain.kind != "box" or spec.damping.kind != "constant":
        raise ConfigError(
            "eigs needs a box domain with constant damping; "
            "use 'discretize' for graded profiles"
        )
    box = boxmodes.BoxDomain(spec.domain.lengths)
    w_min = boxmodes.min_stiffness(spec.coefficient_a, box)
    if args.alpha_cap is None:
        modes = _modes(spec, box, (1.1 * args.imag_cap) ** 2 + w_min,
                       "--imag-cap")
    else:
        modes = _modes(spec, box, args.alpha_cap, "--alpha-cap")
    z, source, residual, jordan = _mode_records(spec, box, modes,
                                                args.imag_cap)
    _emit_rows(args, z, source, residual, jordan)
    _info(f"{len(z)} eigenvalues with |Im| <= {args.imag_cap:g}")
    return 0


def cmd_enclosure(spec: ProblemSpec, args) -> int:
    if spec.domain.kind != "box":
        raise ConfigError("enclosure needs a box domain for the ground mode")
    k = spec.kernel
    bounds = spec.damping.bounds()
    box = boxmodes.BoxDomain(spec.domain.lengths)
    w_min = boxmodes.min_stiffness(spec.coefficient_a, box)
    if args.alpha_cap is not None:
        alphas = boxmodes.mode_alpha(
            spec.coefficient_a, box,
            _modes(spec, box, args.alpha_cap, "--alpha-cap"))
    else:
        alphas = enclosure.synthetic_alpha_grid(w_min)
    fields = "--beta-samples" + (
        " or --alpha-cap" if args.alpha_cap is not None else "")
    if args.format == "csv":
        try:
            cloud = enclosure.boundary_cloud(k, bounds, alphas,
                                             args.beta_samples)
        except ValueError as exc:
            raise ConfigError(f"{exc}; reduce {fields}") from None
        table = "%.12g,%.12g,%.12g,%.12g\n" * len(cloud) % tuple(
            cloud.ravel().tolist())
        _emit("re,im,alpha,beta\n" + table, args.output)
        _info(f"{len(cloud)} cloud points")
        return 0
    # JSON: [c0, c1] and the one-term strips, whose hypothesis is refused
    # before the cloud's size, which is counted, not solved
    if k.n_terms == 1:
        region = enclosure.one_pole_region(k, bounds, w_min)
        doc = {"c0": region.c0, "c1": region.c1, **asdict(region.one_pole)}
    else:
        c0, c1 = enclosure.enclosure_interval(k, bounds, w_min)
        doc = {"c0": c0, "c1": c1, "d0": None, "d1": None, "hat_d": None}
    try:
        points = enclosure.cloud_size(k, bounds, alphas, args.beta_samples)
    except ValueError as exc:
        raise ConfigError(f"{exc}; reduce {fields}") from None
    doc["counts"] = {"cloud": points, "alphas": len(alphas)}
    _emit(json.dumps(doc) + "\n", args.output)
    _info(f"enclosure interval [{_fmt(doc['c0'])}, {_fmt(doc['c1'])}], "
          f"{points} cloud points")
    return 0


def _fd_profile(spec: ProblemSpec, n_points: int) -> np.ndarray:
    nodes = np.arange(1, n_points + 1) / (n_points + 1)
    if spec.damping.kind == "constant":
        return np.full(n_points, spec.damping.value)
    if spec.damping.kind == "profile_1d":
        samples = np.asarray(spec.damping.samples)
        grid = np.linspace(0.0, 1.0, samples.size)
        return np.interp(nodes, grid, samples)
    raise ConfigError(
        "discretize needs damping kind 'constant' or 'profile_1d'"
    )


def cmd_discretize(spec: ProblemSpec, args) -> int:
    if spec.domain.kind != "interval_fd":
        raise ConfigError("discretize needs an interval_fd domain")
    k = spec.kernel
    n_points = spec.domain.grid_points
    if (k.n_terms + 2) * n_points > pencil.MAX_REALIZATION:
        raise ConfigError(
            f"realization size {(k.n_terms + 2) * n_points} exceeds "
            f"{pencil.MAX_REALIZATION}; reduce domain.grid_points"
        )
    mat_a, mat_b = pencil.discretize_1d(
        spec.coefficient_a, _fd_profile(spec, n_points), n_points,
        spec.domain.length)
    w_min, w_max = pencil.stiffness_eigenvalues(
        spec.coefficient_a, n_points, spec.domain.length, [1, n_points])
    lam, residual = pencil.nonlinear_eigenvalues_fd(mat_a, mat_b, k,
                                                    args.imag_cap)
    # containment reads only [c0, c1] and the exact (alpha, beta) test, so
    # the one-term strips (and their hypothesis) are left to 'enclosure'
    bounds, w_min = spec.damping.bounds(), float(w_min)
    region = enclosure.EnclosureRegion(
        k, bounds, w_min, *enclosure.enclosure_interval(k, bounds, w_min))
    tol = args.tolerance if args.tolerance is not None \
        else 1e-8 * (1.0 + float(w_max))
    violations = region.violation(lam, tol)
    outside = int(np.count_nonzero(violations > 0.0))
    inside = len(lam) - outside
    report = [
        f"# inside={inside}",
        f"# outside={outside}",
        f"# max_violation={_fmt(float(violations.max(initial=0.0)))}",
    ]
    _emit_rows(args, lam, ["fd"] * len(lam), residual, [None] * len(lam),
               report)
    _info(f"{len(lam)} fd eigenvalues; containment {inside} inside / "
          f"{outside} outside (tol {_fmt(tol)})")
    return 0


def _validation_modes(spec: ProblemSpec) -> np.ndarray:
    """Small set of stiffness values used by the validate suite."""
    if spec.domain.kind == "box":
        box = boxmodes.BoxDomain(spec.domain.lengths)
        w_min = boxmodes.min_stiffness(spec.coefficient_a, box)
        modes = _modes(spec, box, 25.0 * w_min, None)
        return boxmodes.mode_alpha(spec.coefficient_a, box, modes[:12])
    n_points = spec.domain.grid_points
    return pencil.stiffness_eigenvalues(
        spec.coefficient_a, n_points, spec.domain.length,
        np.arange(1, min(n_points, 12) + 1))


def cmd_validate(spec: ProblemSpec, args) -> int:
    k = spec.kernel
    bounds = spec.damping.bounds()
    alphas = _validation_modes(spec)
    w_min = alphas.min()
    rng = np.random.default_rng(0)
    lines: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        lines.append(f"PASS {name}\n" if ok else f"FAIL {name}: {detail}\n")

    beta_mid = 0.5 * (bounds.b_min + bounds.b_max)
    # one solve: the validation modes, then (w_min, bhat * w_min) at each
    # damping level for enclosure_interval's c0 and c1; every validation
    # mode has the same beta / alpha, so the same number of roots
    levels = enclosure.damping_levels(bounds)
    roots, counts = scalar.mode_spectra(
        k, np.concatenate((alphas, np.full(len(levels), w_min))),
        np.concatenate((beta_mid * alphas, np.multiply(levels, w_min))))
    z = roots[:counts[:alphas.size].sum()].reshape(alphas.size, -1)

    gap = np.abs(np.conj(z)[:, :, None] - z[:, None, :]).min(axis=2)
    check("conjugate_symmetry", bool(np.all(gap <= 1e-8 * (1.0 + abs(z)))))
    check("left_half_plane", bool(np.all(z.real <= 1e-10)))

    # one zero search serves all three checks: linspace returns the damping
    # bounds exactly as its first and last levels, whose rows are all that
    # essential_spectrum and enclosure_interval read
    grid = np.linspace(levels[0], levels[-1],
                       args.sweep if len(levels) > 1 else 1)
    zeros = scalar.fredholm_factor_zeros(k, grid)
    ess = enclosure._essential_from_zeros(zeros[0], zeros[-1])
    c0, c1 = enclosure._interval_from_roots(roots[z.size:], max(zeros[-1]))
    tol = 1e-10
    ess_ok = all(c0 - tol <= lo and hi <= c1 + tol
                 for lo, hi in ess.intervals)
    check("essential_in_interval", ess_ok,
          f"intervals {ess.intervals} vs [{c0}, {c1}]")

    # the intervals read the branch zeros at the two bounds only, which is
    # exact because each zero rises with the damping level
    drop = float(np.diff(zeros, axis=0).min(initial=0.0))
    check("branch_monotonicity", drop >= -tol,
          f"a branch zero falls by {-drop:g} over {len(grid)} levels")

    # 40 draws of (alpha, bhat, Re lam, Im lam), in this order, with the bits
    # of rng.uniform(lo, hi) = lo + (hi - lo) u and rng.normal(scale=2.0)
    # = 0.0 + 2.0 n
    b_low = min(max(bounds.b_min, 1e-3), bounds.b_max)
    u, v, n_re, n_im = np.array([
        (rng.random(), rng.random(), rng.standard_normal(),
         rng.standard_normal()) for _ in range(40)]).T
    alpha = w_min + (10.0 * w_min - w_min) * u
    bhat = b_low + (bounds.b_max - b_low) * v
    beta, lam = bhat * alpha, (0.0 + 2.0 * n_re) + 1j * (0.0 + 2.0 * n_im)
    lam = np.where(np.abs(lam) < 1e-3, lam + 0.5, lam)
    mp = pencil.ModePencil(alpha, beta, k)

    def check_within(name: str, discrepancy, bound) -> None:
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = float(np.max(discrepancy / bound))
        check(name, bool(np.all(discrepancy <= bound)),
              f"worst discrepancy / bound {worst:.3g}")

    check_within("equivalence_residuals", mp.equivalence_residual(lam),
                 1e-12 * (1.0 + np.abs(lam) ** 2) * (1.0 + alpha))
    # det(S - lam I) = (-1)^(N+2) p(lam), compared on the scale
    # sum_k |c_k| |lam|^k at which p(lam) itself is rounded
    coeffs = scalar.cleared_mode_polynomial(
        k, scalar.ModeCoefficients(alpha, beta)).T[::-1]
    want = (-1.0) ** mp.size * np.polyval(coeffs, lam)
    scale = np.polyval(np.abs(coeffs), np.abs(lam))
    got = np.linalg.det(mp.system_operator()
                        - lam[:, None, None] * np.eye(mp.size))
    check_within("char_poly_identity", np.abs(got - want),
                 1e-10 * (1.0 + scale))
    # det P(-b_j) = -a_j b_j beta prod_{i != j} (b_i - b_j), nonzero.
    # P(-b_j) is the arrowhead [[h, c^T], [c', diag(d)]] with d_j = 0, whose
    # determinant h prod(d) - sum_i c_i c'_i prod_{k != i} d_k comes from the
    # entries with no LU, rounded on the scale of its size at any rate gap
    # (LU's grows like 1 / |b_i - b_j|); an entry off the arrow fails
    rates = np.asarray(k.rates)
    arrow = np.eye(len(rates), dtype=bool)
    want_p = -(np.asarray(k.amplitudes) * rates)[:, None] * beta * np.prod(
        rates - rates[:, None] + arrow, axis=1)[:, None]
    big = mp.block_function(-rates[:, None])
    d = big[..., 1:, 1:][..., arrow]
    rest = np.broadcast_to(d[..., None, :], d.shape + (len(rates),))
    det_p = big[..., 0, 0] * np.prod(d, axis=-1) - np.sum(
        big[..., 0, 1:] * big[..., 1:, 0]
        * np.prod(rest, axis=-1, where=~arrow), axis=-1)
    off = np.count_nonzero(big[..., 1:, 1:], axis=(-2, -1)) > \
        np.count_nonzero(d, axis=-1)
    check_within("pole_exclusion",
                 np.where(off, np.inf, np.abs(det_p - want_p)),
                 1e-10 * np.abs(want_p))

    if bounds.is_constant and bounds.b_max > 0.0:
        i, j = np.nonzero((z.imag == 0.0) & (z.real != 0.0))
        ratio = scalar.jordan_ratio(k, beta_mid * alphas[i], z.real[i, j])
        check("jordan_condition", bool(np.all(ratio > _JORDAN_FLOOR)),
              f"smallest |value| / size of its terms "
              f"{ratio.min(initial=np.inf):.3g}")

    _emit("".join(lines), args.output)
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


def _checked(convert, ok, need: str):
    """argparse type: ``convert(text)``, refused unless ``ok`` holds."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value
    return parse


_POSITIVE = _checked(float, lambda v: 0.0 < v < np.inf, "a finite number > 0")
_NONNEGATIVE = _checked(float, lambda v: 0.0 <= v < np.inf,
                        "a finite number >= 0")
_TWO_OR_MORE = _checked(int, lambda v: v >= 2, "an integer >= 2")
# the scan searches all levels at once, in memory that grows like levels * N^2
_SWEEP = _checked(int, lambda v: 2 <= v <= 10_000,
                  "an integer from 2 to 10000")


def _add_common(p: argparse.ArgumentParser, formats: tuple) -> None:
    p.add_argument("--config", required=True, help="JSON problem description")
    p.add_argument("--alpha-cap", type=_POSITIVE, default=None,
                   help="largest stiffness eigenvalue to enumerate")
    p.add_argument("--imag-cap", type=_NONNEGATIVE, default=50.0,
                   help="drop eigenvalues with |Im| above this")
    p.add_argument("--sweep", type=_SWEEP, default=129,
                   help="damping levels of validate's branch monotonicity "
                        "scan")
    p.add_argument("--beta-samples", type=_TWO_OR_MORE, default=11,
                   help="beta samples per alpha in cloud sampling")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--tolerance", type=_NONNEGATIVE, default=None,
                   help="containment tolerance override (discretize "
                        "only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memspec",
        description="Spectra and enclosures of memory-damped wave symbols",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the first output format of each subcommand is its default
    formats = {"essential": ("json",), "eigs": ("csv", "json"),
               "enclosure": ("json", "csv"), "discretize": ("csv",),
               "validate": ()}
    for name, choices in formats.items():
        _add_common(sub.add_parser(name), choices)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        spec = parse_config(args.config)
        # looked up per call, so a wrapped cmd_<name> attribute is the one run
        return globals()[f"cmd_{args.command}"](spec, args)
    except (ConfigError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
