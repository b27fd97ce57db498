"""Seeded call generators for the memspec benchmark workloads.

A workload is one closed-loop client.  A run draws the workload's *call
list* once from the seed: the fixed anchors (the paper's worked examples)
and one call per *slot* of a fixed design table.  A slot fixes what drives a
call's cost: the number of kernel terms, the problem size (modes, sweep
levels, companion size) and the sampling flags.  So every run has the same
cost mix whatever the seed.  The seed draws everything else: kernel
amplitudes and rates, damping levels and profiles, box sides and interval
lengths.  The runner then makes several passes over the list, each in a
seeded shuffled order.

The program only ever sees the generated config dictionaries (written to
files by the runner) and argv lists.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from oracles import box_alpha


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, problem config, extra flags, label."""

    subcommand: str
    config: dict
    flags: tuple[str, ...] = ()
    label: str = "generated"
    companion_dim: int = 0

    def argv(self, config_path: str) -> list[str]:
        return [self.subcommand, "--config", config_path, *self.flags]


def _config(a, amps, rates, damping, domain) -> dict:
    return {
        "coefficient_a": float(a),
        "kernel": {"a": [float(x) for x in amps], "b": [float(x) for x in rates]},
        "damping": damping,
        "domain": domain,
    }


def _range(b_min, b_max) -> dict:
    return {"kind": "range", "b_min": float(b_min), "b_max": float(b_max)}


def _box(*lengths) -> dict:
    return {"kind": "box", "lengths": [float(x) for x in lengths]}


def _fd(n_points, length=1.0) -> dict:
    return {"kind": "interval_fd", "length": float(length),
            "grid_points": int(n_points)}


def _profile(samples) -> dict:
    return {"kind": "profile_1d", "samples": [float(x) for x in samples]}


# -- the paper's worked examples -------------------------------------------

README = _config(1.0, [1.0], [1.0], _range(0.5, 0.75), _box(1.0, 1.0))
TWO_TERM = _config(1.0, [1.0, 0.2], [1.0, 1.5], _range(0.5, 0.75),
                   _box(1.0, 1.0))
BOX = _config(2.0, [0.9], [0.5], {"kind": "constant", "value": 0.5},
              _box(1.0, 4.0))
TWELVE_TERM = _config(1.0, [0.05] * 12,
                      [float(x) for x in np.geomspace(1e-3, 3e2, 12)],
                      _range(0.5, 0.75), _box(1.0, 1.0))
FD_TWO_TERM = _config(1.0, [1.0, 0.2], [1.0, 1.5], _profile([0.5, 0.75]),
                      _fd(100))
FD_ONE_TERM = _config(1.0, [1.0], [1.0], _profile([0.5, 0.75]), _fd(600))


# -- random building blocks --------------------------------------------------

def _ladder(count: int, lo: float, hi: float) -> list[float]:
    """``count`` geometric levels at the stratum midpoints of [lo, hi]."""
    return [lo * (hi / lo) ** ((k + 0.5) / count) for k in range(count)]


def _small_kernel(rng, n_terms: int, top_rate: float = 5.0):
    """Amplitudes and distinct rates in [0.2, top_rate] (modal and FD loops)."""
    while True:
        rates = np.sort(np.exp(rng.uniform(math.log(0.2), math.log(top_rate),
                                           n_terms)))
        if n_terms == 1 or np.min(rates[1:] / rates[:-1]) > 1.1:
            break
    return rng.uniform(0.2, 1.0, n_terms), rates


def _wide_kernel(rng, n_terms: int, family: str):
    """Rates spread over two to three decades.

    ``slow`` rates start near 1e-3 and stay below 1, so pole gaps are small;
    ``fast`` rates start near 1 and keep gaps of at least 1.
    """
    if family == "slow":
        rates = [10.0 ** rng.uniform(-3.0, -2.7)]
        for _ in range(n_terms - 1):
            rates.append(rates[-1] * rng.uniform(1.5, 2.1))
    else:
        rates = [rng.uniform(1.0, 2.0)]
        for _ in range(n_terms - 1):
            rates.append(rates[-1] * rng.uniform(1.3, 1.8) + 1.0)
    return rng.uniform(0.1, 1.0, n_terms), np.array(rates)


def _damping_levels(rng, amps):
    """b_min < b_max with b_max * sum(a) < 1, the standing hypothesis."""
    b_max = rng.uniform(0.3, 0.9) / float(np.sum(amps))
    return b_max * rng.uniform(0.3, 0.9), b_max


def _random_box(rng, dims: int, a: float = 1.0, rates=None):
    """Box sides in [0.5, 3]; for one-term ``rates``, shrunk until
    w_min >= 3 b_1^2 + 1.

    One-term enclosures need w_min above d0^2 + 2 d0 c0 (at most 3 b_1^2)
    for the strip height to exist; below it the CLI refuses the input.
    """
    lengths = rng.uniform(0.5, 3.0, dims)
    if rates is None or len(rates) > 1:
        return _box(*lengths)
    shrink = math.sqrt(box_alpha(a, lengths, [1] * dims)
                       / (3.0 * float(np.max(rates)) ** 2 + 1.0))
    return _box(*(lengths * min(shrink, 1.0)))


def _alpha_rank(a: float, lengths, rank: int) -> float:
    """The ``rank``-th smallest Dirichlet stiffness value of the box."""
    cap = box_alpha(a, lengths, [1] * len(lengths))
    while True:
        bounds = [int(l * math.sqrt(cap / (a * math.pi ** 2))) + 1
                  for l in lengths]
        grids = np.meshgrid(*[np.arange(1, b + 1) for b in bounds],
                            indexing="ij")
        alphas = a * math.pi ** 2 * sum((g / l) ** 2 for g, l in
                                        zip(grids, lengths))
        alphas = np.sort(alphas[alphas <= cap], axis=None)
        if alphas.size >= rank:
            return float(alphas[rank - 1])
        cap *= 2.0


# -- workloads ----------------------------------------------------------------

@dataclass
class Workload:
    """A named closed loop: fixed anchors plus a seeded slot generator.

    ``pass_seconds`` is the wall time of one pass over the full call list on
    a 2-vCPU x86-64 host; the runner divides ``--seconds`` by it to fix the
    number of passes, so the work of a run does not depend on timing.
    """

    name: str
    anchors: list[Call]
    generate: Callable[..., list[Call]]
    pass_seconds: float
    warmup: list[Call] = field(default_factory=list)

    def calls(self, rng, scale: str) -> list[Call]:
        """The run's call list: the anchors, then one call per slot."""
        return list(self.anchors if scale == "full" else []) + \
            self.generate(rng, scale)


#: eigs slots: (terms, box dimension, modes solved), modes from 20 to 200.
MODAL_EIGS = [(1 + k % 3, 1 + k // 3 % 3,
               round(_ladder(28, 20, 200)[9 * k % 28])) for k in range(28)]
#: enclosure slots: (terms, output format, beta samples per alpha, sweep
#: levels).  The anchors keep the default sweep of 129 levels.  For N > 1
#: the CLI also builds an 11-sample cloud of its own, whatever the flags,
#: so those calls cost several times a one-term call.
MODAL_ENCLOSURE = [(1, "json", 2, 9), (1, "csv", 3, 17), (1, "json", 3, 33),
                   (1, "csv", 2, 65), (2, "json", 2, 17), (2, "csv", 3, 33),
                   (3, "json", 3, 9), (3, "csv", 2, 17)]


def _modal_calls(rng, scale: str) -> list[Call]:
    """eigs on constant-damping boxes, enclosure JSON/CSV on range damping."""
    full = scale == "full"
    calls = []
    for n_terms, dims, modes in MODAL_EIGS if full else MODAL_EIGS[:2]:
        amps, rates = _small_kernel(rng, n_terms)
        a = rng.uniform(0.5, 2.0)
        box = _random_box(rng, dims, a, rates)
        value = rng.uniform(0.2, 0.9) / float(np.sum(amps))
        cfg = _config(a, amps, rates, {"kind": "constant", "value": value},
                      box)
        alpha_m = _alpha_rank(a, box["lengths"], modes if full else 20)
        w_min = box_alpha(a, box["lengths"], [1] * dims)
        # the CLI solves every mode up to (1.1 * imag_cap)^2 + w_min
        imag_cap = math.sqrt(max(alpha_m - w_min, 1.0)) / 1.1
        calls.append(Call("eigs", cfg, ("--imag-cap", repr(imag_cap))))
    for n_terms, fmt, samples, sweep in MODAL_ENCLOSURE if full else \
            MODAL_ENCLOSURE[:2]:
        amps, rates = _small_kernel(rng, n_terms)
        a = rng.uniform(0.5, 2.0)
        cfg = _config(a, amps, rates, _range(*_damping_levels(rng, amps)),
                      _random_box(rng, int(rng.integers(1, 4)), a, rates))
        flags = ("--format", fmt, "--beta-samples", str(samples),
                 "--sweep", str(sweep))
        if not full:
            flags = ("--format", fmt, "--beta-samples", "2", "--sweep", "5")
        calls.append(Call("enclosure", cfg, flags))
    return calls


#: (terms, sweep levels) per slot.  essential and validate each get every
#: slot once per rate family.
BRANCH_SLOTS = [(2, 21), (3, 17), (4, 13), (5, 11), (6, 9), (7, 7),
                (8, 7), (9, 5), (10, 5)]


def _branch_calls(rng, scale: str) -> list[Call]:
    """essential and validate on wide-rate kernels with 2 to 10 terms."""
    slots = BRANCH_SLOTS if scale == "full" else [(2, 5), (3, 3)]
    calls = []
    for subcommand in ("essential", "validate"):
        for n_terms, sweep in slots:
            for family in ("slow", "fast"):
                amps, rates = _wide_kernel(rng, n_terms, family)
                cfg = _config(rng.uniform(0.5, 2.0), amps, rates,
                              _range(*_damping_levels(rng, amps)),
                              _random_box(rng, int(rng.integers(1, 3))))
                calls.append(Call(subcommand, cfg, ("--sweep", str(sweep)),
                                  label=f"generated-{family}"))
    return calls


#: Interval length over sqrt(a).  It fixes w_min near pi^2 / 1.44, and so
#: the number of FD eigenvalues under the default |Im| cap of 50, which sets
#: the cost of the residual and containment loops.  One-term kernels keep
#: rates <= 1.3, so w_min >= 3 b_1^2 + 1 (see _random_box).
FD_LENGTH_SCALE = 1.2

#: (terms, companion size) per slot: 38 sizes from 80 to 300.
FD_SLOTS = [(1 + k % 3, round(dim))
            for k, dim in enumerate(_ladder(38, 80, 300))]
#: beta samples per alpha of the containment cloud (N > 1 only)
FD_BETA_SAMPLES = 2


def _fd_calls(rng, scale: str) -> list[Call]:
    """discretize on graded 1D profiles, companion sizes 80 to 300."""
    slots = FD_SLOTS if scale == "full" else [(1, 30), (2, 40), (3, 50)]
    calls = []
    for n_terms, dim in slots:
        n_points = max(round(dim / (n_terms + 2)), 3)
        amps, rates = _small_kernel(rng, n_terms, 1.3 if n_terms == 1 else 5.0)
        b_max = _damping_levels(rng, amps)[1]
        b_min = b_max * rng.uniform(0.3, 0.7)  # a clearly graded profile
        inner = rng.uniform(b_min, b_max, int(rng.integers(0, 4)))
        profile = rng.permutation(np.concatenate(([b_min, b_max], inner)))
        a = rng.uniform(0.5, 2.0)
        length = FD_LENGTH_SCALE * math.sqrt(a)
        cfg = _config(a, amps, rates, _profile(profile), _fd(n_points, length))
        flags = ("--beta-samples", str(FD_BETA_SAMPLES)) if n_terms > 1 \
            else ()
        calls.append(Call("discretize", cfg, flags,
                          companion_dim=(n_terms + 2) * n_points))
    return calls


def _fd_anchor(cfg: dict, label: str) -> Call:
    dim = (len(cfg["kernel"]["a"]) + 2) * cfg["domain"]["grid_points"]
    return Call("discretize", cfg, (), label, companion_dim=dim)


WORKLOADS = {
    "modal": Workload(
        "modal",
        anchors=[
            Call("enclosure", README, (), "readme"),
            Call("enclosure", README, ("--format", "csv"), "readme"),
            Call("eigs", BOX, (), "box"),
            Call("enclosure", TWO_TERM, (), "two-term"),
        ],
        generate=_modal_calls,
        pass_seconds=6.0,
        warmup=[Call("eigs", BOX, (), "box"),
                Call("enclosure", README, (), "readme")],
    ),
    "branch": Workload(
        "branch",
        anchors=[
            Call("essential", TWO_TERM, (), "two-term"),
            Call("validate", TWO_TERM, (), "two-term"),
            Call("essential", TWELVE_TERM, ("--sweep", "9"), "twelve-term"),
            Call("validate", TWELVE_TERM, ("--sweep", "9"), "twelve-term"),
        ],
        generate=_branch_calls,
        pass_seconds=6.0,
        warmup=[Call("essential", TWO_TERM, (), "two-term"),
                Call("validate", README, (), "readme")],
    ),
    "fd": Workload(
        "fd",
        anchors=[
            _fd_anchor(FD_TWO_TERM, "graded-two-term-100"),
            _fd_anchor(FD_ONE_TERM, "graded-one-term-600"),
        ],
        generate=_fd_calls,
        pass_seconds=8.5,
        warmup=[_fd_anchor(FD_TWO_TERM, "graded-two-term-100")],
    ),
}
