"""The reference kernel is fixed work and the normalisation is a ratio."""

import pytest

from benchmarks.e2e import refkernel


def test_reference_slice_is_deterministic():
    assert refkernel.reference_slice() == refkernel.REF_CHECKSUM
    assert refkernel.reference_slice() == refkernel.REF_CHECKSUM


def test_timed_slice_rejects_a_changed_kernel(monkeypatch):
    monkeypatch.setattr(refkernel, "REF_ITERATIONS", refkernel.REF_ITERATIONS + 1)
    with pytest.raises(RuntimeError):
        refkernel.timed_slice()


def test_normalise_rescales_by_the_mean_of_the_bracketing_slices():
    nominal = refkernel.REF_NOMINAL_MS
    # A machine running the slice 2x slower than nominal halves the time.
    assert refkernel.normalise(3.0, 2 * nominal, 2 * nominal) == pytest.approx(1.5)
    # The two slices are averaged, not the two ratios.
    assert refkernel.normalise(8.0, nominal, 3 * nominal) == pytest.approx(4.0)
    # At nominal speed nothing changes.
    assert refkernel.normalise(7.25, nominal, nominal) == pytest.approx(7.25)
