"""Dirichlet box modes: eigenvalue formula and complete enumeration."""

import math

import numpy as np
import pytest

from memspec import BoxDomain, enumerate_modes, min_stiffness, mode_alpha


def test_box_validation():
    BoxDomain((1.0,))
    BoxDomain((1.0, 4.0, 2.5))
    with pytest.raises(ValueError):
        BoxDomain(())
    with pytest.raises(ValueError):
        BoxDomain((1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        BoxDomain((1.0, 0.0))


def test_mode_alpha_formula():
    box = BoxDomain((1.0, 4.0))
    assert mode_alpha(2.0, box, (3, 5)) == pytest.approx(
        2.0 * math.pi ** 2 * (9.0 + 25.0 / 16.0), rel=1e-14
    )
    with pytest.raises(ValueError):
        mode_alpha(2.0, box, (1,))
    with pytest.raises(ValueError):
        mode_alpha(2.0, box, (0, 1))


def test_min_stiffness():
    box = BoxDomain((1.0, 4.0))
    assert min_stiffness(2.0, box) == pytest.approx(
        2.0 * math.pi ** 2 * 17.0 / 16.0, rel=1e-14
    )
    assert min_stiffness(2.0, box) == pytest.approx(20.97290935, abs=1e-7)


def test_enumeration_completeness():
    # the square box has ties, which sort by their index tuples
    box = BoxDomain((2.0, 2.0))
    a, cap = 1.5, 200.0
    got = [tuple(row) for row in enumerate_modes(a, box, cap).tolist()]
    # brute-force oracle over a generous index window
    want = []
    for m1 in range(1, 30):
        for m2 in range(1, 30):
            alpha = mode_alpha(a, box, (m1, m2))
            if alpha <= cap * (1.0 + 1e-12):
                want.append((alpha, (m1, m2)))
    assert got == [idx for _, idx in sorted(want)]
    assert len(want) > 5


def test_enumeration_sorted_with_multiplicities():
    box = BoxDomain((1.0, 1.0))
    modes = enumerate_modes(1.0, box, 60.0)
    alphas = mode_alpha(1.0, box, modes).tolist()
    assert alphas == sorted(alphas)
    # the square box carries the symmetric pair (1, 2) and (2, 1)
    idx = [tuple(row) for row in modes.tolist()]
    assert (1, 2) in idx and (2, 1) in idx


def test_cap_at_ground_mode_is_inclusive():
    box = BoxDomain((1.0,))
    ground = min_stiffness(1.0, box)
    modes = enumerate_modes(1.0, box, ground)
    assert modes.tolist() == [[1]]


def test_empty_enumeration():
    # a cap below the ground mode enumerates nothing, silently; the CLI
    # turns that into a refusal naming --alpha-cap
    box = BoxDomain((1.0,))
    assert enumerate_modes(1.0, box, 1.0).shape == (0, 1)


def test_alpha_values_exact():
    # the array evaluation adds the terms in the order of one tuple's, so
    # it equals the scalar one bit for bit
    box = BoxDomain((1.0, 4.0, 0.7))
    modes = enumerate_modes(2.0, box, 400.0)
    alphas = mode_alpha(2.0, box, modes)
    assert alphas.tolist() == [float(mode_alpha(2.0, box, tuple(row)))
                               for row in modes.tolist()]
    assert alphas.tolist() == [
        2.0 * math.pi ** 2 * sum(m * m / (l * l)
                                 for m, l in zip(row, box.lengths))
        for row in modes.tolist()]
    assert np.all(np.diff(alphas) >= 0.0)
