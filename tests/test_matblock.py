import numpy as np
import pytest

from jacobispec import matblock
from jacobispec.errors import DomainError, InvalidInputError, SingularBlockError

from oracles import (
    batched_singular_sq_reference,
    jacobi_eigvalsh,
    operator_norm_lower_bound,
    singular_values_oracle,
)


def random_block(rng, l, complex_=True):
    a = rng.normal(size=(l, l))
    if complex_:
        a = a + 1j * rng.normal(size=(l, l))
    return a


def test_singular_values_identity():
    assert np.allclose(matblock.singular_values(np.eye(3)), [1, 1, 1])


def test_singular_values_diagonal_sorted_absolute():
    s = matblock.singular_values(np.diag([3.0, -4.0]))
    assert np.allclose(s, [4.0, 3.0])


def test_singular_values_match_jacobi_sweep_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = random_block(rng, 4)
        got = matblock.singular_values(a)
        want = singular_values_oracle(a)
        assert np.all(np.abs(got - want) <= 1e-10)


def test_singular_values_reject_nonfinite():
    with pytest.raises(InvalidInputError):
        matblock.singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_frobenius_zero_and_identity():
    assert matblock.frobenius_norm(np.zeros((3, 3))) == 0.0
    assert matblock.frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0))


def test_frobenius_equals_singular_value_sum():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = random_block(rng, 3)
        s = matblock.singular_values(a)
        assert matblock.frobenius_norm(a) == pytest.approx(np.sqrt(np.sum(s**2)), abs=1e-12)


def test_operator_norm_examples():
    assert matblock.operator_norm(np.eye(4)) == pytest.approx(1.0)
    assert matblock.operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


def test_operator_norm_dominates_random_vectors():
    rng = np.random.default_rng(3)
    a = random_block(rng, 3)
    lower = operator_norm_lower_bound(a, trials=10**4, seed=5)
    assert lower <= matblock.operator_norm(a) + 1e-12
    assert matblock.operator_norm(a) - lower <= 1e-3 * matblock.operator_norm(a) + 1e-3


def test_psd_sqrt_examples():
    assert np.allclose(matblock.psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(matblock.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_random_psd_and_idempotence():
    rng = np.random.default_rng(4)
    for _ in range(20):
        c = random_block(rng, 3)
        a = c.conj().T @ c
        b = matblock.psd_sqrt(a)
        assert matblock.frobenius_norm(b @ b - a) <= 1e-10 * max(1.0, matblock.frobenius_norm(a))
        again = matblock.psd_sqrt(b @ b)
        assert matblock.frobenius_norm(again - b) <= 1e-9 * max(1.0, matblock.frobenius_norm(b))


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(DomainError):
        matblock.psd_sqrt(np.diag([1.0, -1.0]))


def test_invert_examples_and_residual():
    assert np.allclose(matblock.invert(np.eye(3)), np.eye(3))
    assert np.allclose(matblock.invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_block(rng, 4) + 3 * np.eye(4)
        res = matblock.frobenius_norm(a @ matblock.invert(a) - np.eye(4))
        assert res <= 1e-10 * 4


def test_invert_singular_reports_smallest_singular_value():
    a = np.diag([1.0, 0.0])
    with pytest.raises(SingularBlockError) as err:
        matblock.invert(a)
    assert err.value.smallest_singular_value == pytest.approx(0.0, abs=1e-15)


# Appendix-style inequality spot checks (the 1000-trial suite lives in
# the acceptance module; these runs keep the unit suite fast).


def _psd_pair(rng, l):
    c = random_block(rng, l)
    a = c.conj().T @ c
    d = random_block(rng, l)
    return a, a + d.conj().T @ d


def test_loewner_order_implies_singular_value_order():
    rng = np.random.default_rng(6)
    for _ in range(50):
        l = int(rng.integers(1, 5))
        a, b = _psd_pair(rng, l)
        sa, sb = matblock.singular_values(a), matblock.singular_values(b)
        assert np.all(sa <= sb + 1e-10)


def test_weyl_sum_inequality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        l = int(rng.integers(1, 5))
        a, b = random_block(rng, l), random_block(rng, l)
        sa, sb = matblock.singular_values(a), matblock.singular_values(b)
        sab = matblock.singular_values(a + b)
        for k in range(1, l + 1):
            for m in range(1, l + 2 - k):
                assert sab[k + m - 2] <= sa[k - 1] + sb[m - 1] + 1e-10


def test_batched_singular_sq_matches_svd():
    rng = np.random.default_rng(8)
    for l in (1, 2, 3):
        blocks = rng.normal(size=(40, l, l))
        got = matblock.batched_singular_sq(blocks)
        want = np.linalg.svd(blocks, compute_uv=False) ** 2
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_batched_singular_sq_huge_mantissas_stay_finite():
    rng = np.random.default_rng(9)
    blocks = rng.normal(size=(8, 2, 2)) * 1e150
    got = matblock.batched_singular_sq(blocks)
    assert np.all(np.isfinite(got))


def test_batched_singular_sq_matches_previous_formula():
    rng = np.random.default_rng(11)
    real = rng.normal(size=(64, 2, 2))
    real[:4] = 0.0  # zero blocks take the t = 0 branch
    real[4:8] *= 1e75  # above the 1e70 guard
    real[8:12] *= 1e-75  # below the 1e-70 guard
    real[12, 0, 1] = 1e-75  # one tiny entry in an otherwise zero block
    real[13, 1, 1] = 1e150  # one huge entry next to normal ones
    stacks = [real, real + 1j * rng.normal(size=real.shape) * np.abs(real).max(axis=(1, 2))[:, None, None]]
    # a component-major (2, 2, N) array seen as (N, 2, 2), as the forward kernel yields it
    stacks.append(np.ascontiguousarray(real.transpose(1, 2, 0)).transpose(2, 0, 1))
    stacks.append(real[4:8])  # every block renormalised
    for blocks in stacks:
        want = batched_singular_sq_reference(blocks)
        before = blocks.copy()
        assert np.array_equal(matblock.batched_singular_sq(blocks), want)
        assert np.array_equal(blocks, before)  # the input is never written to


def test_batched_singular_sq_stack_of_steps_matches_each_step():
    # a Cesaro chunk: (C, N, 2, 2) as C steps of N blocks; one step needs the
    # power-of-two renormalisation, another holds a block whose tiny s_2
    # would round differently if it were renormalised with it
    rng = np.random.default_rng(12)
    steps = rng.normal(size=(4, 6, 2, 2))
    steps[1, 2] *= 1e75
    steps[2, 3] = [[8.1e-28, -1.9e-27], [0.0, 1e-156]]  # s_2^2 underflows alone
    chunk = np.ascontiguousarray(steps.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    got = matblock.batched_singular_sq(chunk)
    for k in range(len(steps)):
        assert np.array_equal(got[k], matblock.batched_singular_sq(steps[k]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_singular_sq_infinite_entry_does_not_recurse():
    blocks = np.array([[[np.inf, 0.0], [0.0, 1.0]], [[1e80, 0.0], [0.0, 1.0]]])
    got = matblock.batched_singular_sq(blocks)
    assert not np.all(np.isfinite(got[0]))
    assert np.array_equal(got[1], matblock.batched_singular_sq(blocks[1:])[0])


def test_batched_inv_matches_dense():
    rng = np.random.default_rng(10)
    for l in (1, 2, 3):
        blocks = rng.normal(size=(20, l, l)) + 3 * np.eye(l)
        inv = matblock.batched_inv(blocks)
        assert np.allclose(inv @ blocks, np.broadcast_to(np.eye(l), blocks.shape), atol=1e-10)


def test_batched_inv_raises_on_singular_block():
    blocks = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], 3 * np.eye(2)])
    with pytest.raises(np.linalg.LinAlgError):
        matblock.batched_inv(blocks)
