import numpy as np
import pytest
import scipy.linalg
from conftest import hermitian_matrix, max_abs

from fermigauss import (
    CapacityError,
    ContractError,
    DomainError,
    FockOperator,
    StructureError,
    build_mode_operators,
    make_bdg,
    normal_ordered_exp,
    op_exp,
    quadratic_hamiltonian,
    sample_class_d,
    RngSpec,
)
from fermigauss.fock import _quadratic_tensor


class TestFockOperator:
    def test_dimension_enforced(self):
        with pytest.raises(StructureError):
            FockOperator(2, np.eye(3))

    def test_hermitian_flag_checked(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(StructureError):
            FockOperator(1, bad, hermitian=True)

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_non_finite_entries_rejected(self, hermitian):
        mat = np.eye(2)
        mat[1, 1] = np.nan
        with pytest.raises(StructureError):
            FockOperator(1, mat, hermitian=hermitian)

    def test_matrix_is_immutable(self):
        op = FockOperator.identity(2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestModeOperators:
    def test_single_mode_ladder(self):
        (a,) = build_mode_operators(1)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        assert max_abs(a.matrix, expected) == 0.0

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_anticommutators_exact(self, modes):
        ops = build_mode_operators(modes)
        eye = np.eye(1 << modes)
        for i, ai in enumerate(ops):
            for j, aj in enumerate(ops):
                car = ai.matrix @ aj.matrix.conj().T + aj.matrix.conj().T @ ai.matrix
                assert max_abs(car, (i == j) * eye) < 1e-13
                assert max_abs(ai.matrix @ aj.matrix + aj.matrix @ ai.matrix) < 1e-13

    @pytest.mark.parametrize("modes", [1, 3])
    def test_nilpotent_and_vacuum(self, modes):
        for a in build_mode_operators(modes):
            assert max_abs(a.matrix @ a.matrix) == 0.0
            assert max_abs(a.matrix[:, 0]) == 0.0  # vacuum is annihilated

    def test_capacity_error_names_cap(self):
        with pytest.raises(CapacityError, match="cap of 6"):
            build_mode_operators(7)
        assert len(build_mode_operators(7, cap=7)) == 7

    def test_bad_mode_count(self):
        with pytest.raises(CapacityError):
            build_mode_operators(0)


class TestQuadraticHamiltonian:
    def test_zero_matrix(self):
        ham = quadratic_hamiltonian(make_bdg(np.zeros((2, 2)), np.zeros((2, 2))))
        assert max_abs(ham.matrix) == 0.0

    def test_single_mode_spectrum(self):
        lam = 1.3
        ham = quadratic_hamiltonian(make_bdg(np.array([[lam]]), np.zeros((1, 1))))
        assert np.allclose(np.diag(ham.matrix).real, [-lam / 2, lam / 2], atol=1e-15)
        assert max_abs(ham.matrix - np.diag(np.diag(ham.matrix))) == 0.0

    def test_traceless_on_random_draws(self):
        gen = RngSpec(10).generator()
        for _ in range(10):
            ham = quadratic_hamiltonian(sample_class_d(3, 1.0, gen))
            assert abs(ham.trace()) < 1e-12
            assert ham.hermitian

    def test_rejects_bad_block_structure(self):
        with pytest.raises(StructureError):
            quadratic_hamiltonian(np.eye(4))  # lower-right must be -h^T

    def test_tensor_matches_direct_expansion(self):
        gen = RngSpec(11).generator()
        m = 2
        bdg = sample_class_d(m, 1.0, gen)
        ops = build_mode_operators(m)
        a = [o.matrix for o in ops]
        ad = [o.matrix.conj().T for o in ops]
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(m):
            for j in range(m):
                expected += 0.5 * (
                    bdg.h[i, j] * ad[i] @ a[j]
                    - bdg.h.T[i, j] * a[i] @ ad[j]
                    + bdg.delta[i, j] * ad[i] @ ad[j]
                    - bdg.delta.conj()[i, j] * a[i] @ a[j]
                )
        assert max_abs(quadratic_hamiltonian(bdg).matrix, expected) < 1e-14


class TestOpExp:
    def test_zero_gives_identity(self):
        out = op_exp(FockOperator(2, np.zeros((4, 4)), hermitian=True))
        assert max_abs(out.matrix, np.eye(4)) == 0.0

    def test_diagonal(self):
        d = np.array([0.3, -1.0, 2.0, 0.0])
        out = op_exp(FockOperator(2, np.diag(d), hermitian=True), scale=0.7)
        assert max_abs(out.matrix, np.diag(np.exp(0.7 * d))) < 1e-14

    def test_inverse_pair_and_commutation(self):
        gen = RngSpec(12).generator()
        mat = hermitian_matrix(gen, 8)
        a = FockOperator(3, mat, hermitian=True)
        plus, minus = op_exp(a), op_exp(a, -1.0)
        assert max_abs(plus.matrix @ minus.matrix, np.eye(8)) < 1e-10
        assert max_abs(plus.matrix @ mat, mat @ plus.matrix) < 1e-10

    def test_spectral_map(self):
        gen = RngSpec(13).generator()
        mat = hermitian_matrix(gen, 8)
        out = op_exp(FockOperator(3, mat, hermitian=True))
        got = np.sort(np.linalg.eigvalsh(out.matrix))
        want = np.sort(np.exp(np.linalg.eigvalsh(mat)))
        assert max_abs(got, want) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            op_exp(FockOperator(1, np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_large_scale_matches_expm_or_raises(self):
        # entries reach 1e68 at x100, far above the absolute hermiticity tolerance
        b = sample_class_d(3, 1.0, RngSpec(5))
        ham = quadratic_hamiltonian(make_bdg(100 * b.h, 100 * b.delta))
        want = scipy.linalg.expm(ham.matrix)
        assert max_abs(op_exp(ham).matrix, want) <= 1e-12 * np.abs(want).max()
        with pytest.raises(DomainError, match="log"):
            op_exp(quadratic_hamiltonian(make_bdg(1000 * b.h, 1000 * b.delta)))


class TestNormalOrderedExp:
    def test_zero_coefficient(self):
        out = normal_ordered_exp(np.zeros((3, 3)))
        assert max_abs(out.matrix, np.eye(8)) == 0.0

    def test_single_mode_trace(self):
        lam = 0.9
        out = normal_ordered_exp(np.array([[np.exp(lam) - 1.0]]))
        nhat = np.diag([0.0, 1.0])
        assert max_abs(out.matrix, np.eye(2) + (np.exp(lam) - 1.0) * nhat) < 1e-15
        assert abs(out.trace().real - (1.0 + np.exp(lam))) < 1e-12

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_matches_spectral_exponential(self, modes):
        # fifty random generators spread over the mode counts
        gen = RngSpec(14).generator()
        tensor = _quadratic_tensor(modes)[:modes, :modes]
        for _ in range(17):
            h = hermitian_matrix(gen, modes)
            ham = FockOperator(modes, np.einsum("kl,klab->ab", h, tensor), hermitian=True)
            direct = op_exp(ham)
            ordered = normal_ordered_exp(scipy.linalg.expm(h) - np.eye(modes))
            assert max_abs(direct.matrix, ordered.matrix) < 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(StructureError):
            normal_ordered_exp(np.zeros((2, 3)))
