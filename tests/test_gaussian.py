import math

import numpy as np
import pytest
import scipy.linalg
from conftest import hermitian_matrix, max_abs, skew_matrix

from fermigauss import (
    BdgMatrix,
    ContractError,
    DegenerateSpectrumError,
    DomainError,
    RngSpec,
    StructureError,
    build_mode_operators,
    compose_general,
    compose_number_conserving,
    gaussian_normalized,
    gaussian_number_conserving,
    greens_parameterization,
    make_bdg,
    make_bdg_from_r,
    paired_eigenvalues,
    polar_decompose,
    quadratic_hamiltonian,
    sample_class_d,
    trace_formula,
)
from fermigauss.fock import _gamma_ops
from fermigauss.gaussian import exp_normalized_fock_batch


class TestMakeBdg:
    def test_valid_identity_block(self):
        bdg = make_bdg(np.eye(2), np.zeros((2, 2)))
        assert bdg.hermitian

    def test_symmetric_pairing_rejected(self):
        delta = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(StructureError, match="skew-symmetric"):
            make_bdg(np.eye(2), delta)

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_non_finite_entries_rejected(self, hermitian):
        h = np.eye(2)
        h[0, 0] = np.nan
        zero = np.zeros((2, 2))
        with pytest.raises(StructureError):
            BdgMatrix(2, h, zero, delta_lower=zero, hermitian=hermitian)

    def test_non_hermitian_h_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(StructureError, match="hermitian"):
            make_bdg(h, np.zeros((2, 2)))

    def test_single_mode_forces_zero_pairing(self):
        with pytest.raises(StructureError):
            make_bdg(np.array([[1.0]]), np.array([[0.5]]))
        make_bdg(np.array([[1.0]]), np.array([[0.0]]))

    def test_assembled_class_constraint(self):
        gen = RngSpec(21).generator()
        bdg = make_bdg(hermitian_matrix(gen, 3), skew_matrix(gen, 3))
        mat = bdg.assembled()
        sig = np.zeros((6, 6))
        sig[:3, 3:] = np.eye(3)
        sig[3:, :3] = np.eye(3)
        x = 1j * mat
        assert max_abs(x, -x.conj().T) < 1e-12
        assert max_abs(x, -sig @ x.T @ sig) < 1e-12


class TestMakeBdgFromR:
    def test_zero(self):
        bdg = make_bdg_from_r(np.zeros((4, 4)))
        assert max_abs(bdg.assembled()) == 0.0

    def test_single_mode_matches_quadratic_form(self):
        # oracle: (1/2) gamma^T R gamma must equal the quadratic operator of sigma R
        r = 0.7
        rmat = np.array([[0.0, r], [-r, 0.0]], dtype=complex)
        bdg = make_bdg_from_r(rmat)
        gam = _gamma_ops(1)
        direct = 0.5 * sum(
            rmat[i, j] * (gam[i] @ gam[j]) for i in range(2) for j in range(2)
        )
        assert max_abs(quadratic_hamiltonian(bdg).matrix, direct) < 1e-14
        assert np.allclose(bdg.h, [[-r]])
        assert max_abs(bdg.delta) == 0.0

    def test_round_trip(self):
        gen = RngSpec(22).generator()
        h = hermitian_matrix(gen, 2)
        d = skew_matrix(gen, 2)
        sig = np.zeros((4, 4))
        sig[:2, 2:] = np.eye(2)
        sig[2:, :2] = np.eye(2)
        rmat = sig @ make_bdg(h, d).assembled()
        assert max_abs(rmat, -rmat.T) < 1e-12
        back = make_bdg_from_r(rmat)
        assert max_abs(sig @ back.assembled(), rmat) < 1e-12

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(StructureError, match="antisymmetric"):
            make_bdg_from_r(np.eye(4))

    def test_rejects_non_hermitian_result(self):
        rmat = np.array([[0.0, 1j], [-1j, 0.0]])  # sigma R = diag(-i, i), anti-hermitian
        with pytest.raises(StructureError, match="hermitian"):
            make_bdg_from_r(rmat)


class TestGaussianNormalized:
    def test_zero_gives_maximally_mixed(self):
        lam = gaussian_normalized(make_bdg(np.zeros((2, 2)), np.zeros((2, 2))))
        assert max_abs(lam.matrix, np.eye(4) / 4.0) < 1e-15

    def test_single_mode_entries(self):
        lam = 0.8
        op = gaussian_normalized(make_bdg(np.array([[lam]]), np.zeros((1, 1))))
        z = 2.0 * math.cosh(lam / 2.0)
        want = np.diag([math.exp(-lam / 2.0) / z, math.exp(lam / 2.0) / z])
        assert max_abs(op.matrix, want) < 1e-12

    def test_positive_definite_unit_trace(self):
        gen = RngSpec(23).generator()
        for t in range(30):
            modes = 1 + t % 3
            op = gaussian_normalized(sample_class_d(modes, 1.0, gen))
            assert np.linalg.eigvalsh(op.matrix).min() >= -1e-12
            assert abs(op.trace().real - 1.0) < 1e-12

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 100.0, 1000.0])
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_matches_per_mode_product(self, modes, scale):
        # prod_j [(1 - t_j)/2 I + t_j n_j] with t_j = tanh(lambda_j / 2) and n_j
        # the number operators of the rotated modes b = U (a, a^dag)
        bdg = sample_class_d(modes, 1.0, RngSpec(27, stream=modes))
        bdg = make_bdg(scale * bdg.h, scale * bdg.delta)
        polar = polar_decompose(bdg)
        bops = np.einsum("jk,kab->jab", polar.bogoliubov[:modes], _gamma_ops(modes))
        eye = np.eye(1 << modes)
        want = eye
        for t, b in zip(np.tanh(polar.lambdas / 2.0), bops):
            want = want @ (0.5 * (1.0 - t) * eye + t * (b.conj().T @ b))
        assert max_abs(gaussian_normalized(bdg).matrix, want) < 1e-9

    def test_batch_path_matches_public_op(self):
        gen = RngSpec(24).generator()
        for modes in (1, 2, 3):
            bdg = sample_class_d(modes, 1.0, gen)
            batch = exp_normalized_fock_batch(
                quadratic_hamiltonian(bdg).matrix[None, :, :]
            )[0]
            assert max_abs(batch, gaussian_normalized(bdg).matrix) < 1e-13


class TestTraceFormula:
    def test_zero_matrix(self):
        assert trace_formula(make_bdg(np.zeros((3, 3)), np.zeros((3, 3)))) == 2.0**3

    def test_single_mode_value(self):
        bdg = make_bdg(np.array([[2.0]]), np.zeros((1, 1)))
        assert abs(trace_formula(bdg) - 3.0861612696304874) < 1e-12  # 2 cosh(1)

    def test_matches_exact_fock_trace(self):
        gen = RngSpec(25).generator()
        for _ in range(20):
            bdg = sample_class_d(2, 1.0, gen)
            exact = scipy.linalg.expm(quadratic_hamiltonian(bdg).matrix).trace().real
            assert abs(trace_formula(bdg) - exact) / exact < 1e-9

    def test_large_scale_is_finite_or_raises(self):
        bdg = sample_class_d(3, 1.0, RngSpec(5))
        big = make_bdg(100.0 * bdg.h, 100.0 * bdg.delta)
        exact = scipy.linalg.expm(quadratic_hamiltonian(big).matrix).trace().real
        assert abs(trace_formula(big) - exact) / exact < 1e-9
        with pytest.raises(DomainError, match="log"):
            trace_formula(make_bdg(1000.0 * bdg.h, 1000.0 * bdg.delta))

    def test_determinant_power_is_one_half(self):
        # the doubled-matrix determinant counts every pair factor twice, so the
        # exact trace is its square root; the first power overshoots
        gen = RngSpec(26).generator()
        bdg = sample_class_d(2, 1.0, gen)
        w = np.linalg.eigvalsh(bdg.assembled())
        det = float(np.prod(2.0 * np.cosh(w / 2.0)))
        exact = scipy.linalg.expm(quadratic_hamiltonian(bdg).matrix).trace().real
        assert abs(math.sqrt(det) - exact) / exact < 1e-9
        assert abs(det - exact) / exact > 0.5


class TestPolarDecompose:
    def test_already_diagonal(self):
        lam = 0.9
        bdg = make_bdg(np.array([[lam]]), np.zeros((1, 1)))
        polar = polar_decompose(bdg)
        assert np.allclose(polar.lambdas, [lam], atol=1e-12)
        assert max_abs(polar.bogoliubov @ polar.bogoliubov.conj().T, np.eye(2)) < 1e-12

    def test_spectrum_in_plus_minus_pairs(self):
        gen = RngSpec(27).generator()
        for _ in range(10):
            bdg = sample_class_d(3, 1.0, gen)
            w = np.sort(np.linalg.eigvalsh(bdg.assembled()))
            lam = paired_eigenvalues(bdg)
            assert max_abs(w, np.concatenate([-lam[::-1], lam])) < 1e-10

    def test_reconstruction(self):
        gen = RngSpec(28).generator()
        for _ in range(10):
            bdg = sample_class_d(3, 1.0, gen)
            polar = polar_decompose(bdg)
            u = polar.bogoliubov
            rebuilt = u.conj().T @ polar.diagonal_coefficient() @ u
            assert max_abs(rebuilt, bdg.assembled()) < 1e-9
            tilde = np.diag(np.concatenate([1j * polar.lambdas, -1j * polar.lambdas]))
            assert max_abs(u.conj().T @ tilde @ u, 1j * bdg.assembled()) < 1e-9

    def test_transformed_modes_are_canonical(self):
        gen = RngSpec(29).generator()
        bdg = sample_class_d(2, 1.0, gen)
        u = polar_decompose(bdg).bogoliubov
        gam = np.stack(_gamma_ops(2))
        b = np.einsum("jk,kab->jab", u, gam)
        eye = np.eye(4)
        for i in range(2):
            assert max_abs(b[i + 2], b[i].conj().transpose(1, 0)) < 1e-12
            for j in range(2):
                car = b[i] @ b[j + 2] + b[j + 2] @ b[i]
                assert max_abs(car, (i == j) * eye) < 1e-10
                assert max_abs(b[i] @ b[j] + b[j] @ b[i]) < 1e-10

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrumError, match="perturb"):
            polar_decompose(make_bdg(np.zeros((2, 2)), np.zeros((2, 2))))
        with pytest.raises(DegenerateSpectrumError):
            polar_decompose(make_bdg(np.eye(2), np.zeros((2, 2))))


class TestNumberConserving:
    def test_zero(self):
        op = gaussian_number_conserving(np.zeros((2, 2)))
        assert max_abs(op.matrix, np.eye(4) / 4.0) < 1e-15

    def test_single_mode_matches_general(self):
        lam = 0.6
        direct = gaussian_number_conserving(np.array([[lam]]))
        embedded = gaussian_normalized(make_bdg(np.array([[lam]]), np.zeros((1, 1))))
        assert max_abs(direct.matrix, embedded.matrix) < 1e-12

    def test_embedding_random(self):
        gen = RngSpec(30).generator()
        for modes in (1, 2, 3):
            h = hermitian_matrix(gen, modes)
            direct = gaussian_number_conserving(h)
            embedded = gaussian_normalized(make_bdg(h, np.zeros((modes, modes))))
            assert max_abs(direct.matrix, embedded.matrix) < 1e-12
            assert abs(direct.trace().real - 1.0) < 1e-12

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_matches_mode_operator_exponential(self, modes, scale):
        # independent oracle: expm of sum_kl h_kl a_k^dag a_l over its trace
        h = scale * hermitian_matrix(RngSpec(34).generator(), modes)
        ann = [a.matrix for a in build_mode_operators(modes)]
        ham = sum(h[k, l] * ann[k].conj().T @ ann[l] for k in range(modes) for l in range(modes))
        direct = scipy.linalg.expm(ham)
        expected = direct / direct.trace().real
        assert max_abs(gaussian_number_conserving(h).matrix, expected) <= 1e-9 * np.abs(expected).max()

    def test_normalizer_is_block_determinant(self):
        gen = RngSpec(31).generator()
        h = hermitian_matrix(gen, 3)
        gam = _gamma_ops(3)
        ham = sum(h[i, j] * gam[3 + i] @ gam[j] for i in range(3) for j in range(3))
        ham -= 0.5 * np.trace(h) * np.eye(8)
        exact = scipy.linalg.expm(ham).trace().real
        w = np.linalg.eigvalsh(h)
        assert abs(exact - np.prod(2.0 * np.cosh(w / 2.0))) / exact < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(StructureError):
            gaussian_number_conserving(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGreens:
    def test_zero_gives_half_filling(self):
        pair = greens_parameterization(np.zeros((2, 2)))
        assert max_abs(pair.n, np.eye(2) / 2.0) < 1e-15
        assert max_abs(pair.n_tilde, np.eye(2) / 2.0) < 1e-15

    def test_sum_rule_and_spectrum(self):
        gen = RngSpec(32).generator()
        for _ in range(10):
            pair = greens_parameterization(hermitian_matrix(gen, 3))
            assert max_abs(pair.n + pair.n_tilde, np.eye(3)) < 1e-12
            for mat in (pair.n, pair.n_tilde):
                w = np.linalg.eigvalsh(mat)
                assert w.min() > 0.0 and w.max() < 1.0

    def test_rebuild_matches_normalized_operator(self):
        from fermigauss import normal_ordered_exp

        gen = RngSpec(33).generator()
        for _ in range(5):
            h = hermitian_matrix(gen, 2)
            pair = greens_parameterization(h)
            coeff = (np.linalg.inv(pair.n_tilde) - 2.0 * np.eye(2)).T
            rebuilt = np.linalg.det(pair.n_tilde).real * normal_ordered_exp(coeff).matrix
            assert max_abs(rebuilt, gaussian_number_conserving(h).matrix) < 1e-9


def _small_norm_pair(gen, modes, total=1.2):
    b1 = sample_class_d(modes, 1.0, gen)
    b2 = sample_class_d(modes, 1.0, gen)
    norm = np.abs(np.linalg.eigvalsh(b1.assembled())).max() + np.abs(
        np.linalg.eigvalsh(b2.assembled())
    ).max()
    scale = total / norm
    return make_bdg(scale * b1.h, scale * b1.delta), make_bdg(scale * b2.h, scale * b2.delta)


class TestComposeGeneral:
    def test_identity_element(self):
        gen = RngSpec(34).generator()
        b1 = sample_class_d(2, 2.0, gen)
        zero = make_bdg(np.zeros((2, 2)), np.zeros((2, 2)))
        comp = compose_general(b1, zero)
        assert max_abs(comp.assembled(), b1.assembled()) < 1e-10

    def test_commuting_diagonals_add(self):
        b1 = make_bdg(np.diag([0.3, -0.2]), np.zeros((2, 2)))
        b2 = make_bdg(np.diag([0.1, 0.4]), np.zeros((2, 2)))
        comp = compose_general(b1, b2)
        assert max_abs(comp.assembled(), b1.assembled() + b2.assembled()) < 1e-12
        assert comp.hermitian

    def test_fock_level_group_law(self):
        gen = RngSpec(35).generator()
        for _ in range(10):
            b1, b2 = _small_norm_pair(gen, 2)
            comp = compose_general(b1, b2)
            lhs = scipy.linalg.expm(quadratic_hamiltonian(comp).matrix)
            rhs = scipy.linalg.expm(quadratic_hamiltonian(b1).matrix) @ scipy.linalg.expm(
                quadratic_hamiltonian(b2).matrix
            )
            assert max_abs(lhs, rhs) < 1e-9

    def test_non_commuting_output_flagged_not_rejected(self):
        gen = RngSpec(36).generator()
        b1, b2 = _small_norm_pair(gen, 2)
        comp = compose_general(b1, b2)
        assert not comp.hermitian
        assembled = comp.assembled()
        assert max_abs(assembled[2:, :2], -comp.delta.conj()) > 1e-12

    def test_norm_gate(self):
        big = make_bdg(2.0 * np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ContractError, match="spectral norm"):
            compose_general(big, big)

    @pytest.mark.parametrize("modes", [1, 2, 3])
    @pytest.mark.parametrize("total", [0.5, 1.5, 3.1])
    def test_matches_logm_reference(self, modes, total):
        gen = RngSpec(40 + modes).generator()
        b1, b2 = _small_norm_pair(gen, modes, total)
        want = scipy.linalg.logm(scipy.linalg.expm(b1.assembled()) @ scipy.linalg.expm(b2.assembled()))
        assert max_abs(compose_general(b1, b2).assembled(), want) < 1e-10


class TestComposeNumberConserving:
    def test_inverse_element(self):
        gen = RngSpec(37).generator()
        h = 0.4 * hermitian_matrix(gen, 2)
        assert max_abs(compose_number_conserving(h, -h)) < 1e-12

    def test_commuting_add(self):
        h1 = np.diag([0.3, -0.1])
        h2 = np.diag([0.2, 0.5])
        assert max_abs(compose_number_conserving(h1, h2), h1 + h2) < 1e-12

    def test_fock_level_group_law(self):
        from fermigauss.fock import _quadratic_tensor

        gen = RngSpec(38).generator()
        tensor = _quadratic_tensor(2)[:2, :2]
        eye = np.eye(4)

        def unnormalized(h):
            ham = np.einsum("kl,klab->ab", h, tensor) - 0.5 * np.trace(h) * eye
            return scipy.linalg.expm(ham)

        for _ in range(10):
            h1 = 0.5 * hermitian_matrix(gen, 2)
            h2 = 0.5 * hermitian_matrix(gen, 2)
            h = compose_number_conserving(h1, h2)
            assert max_abs(unnormalized(h), unnormalized(h1) @ unnormalized(h2)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            compose_number_conserving(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    @pytest.mark.parametrize("modes", [1, 2, 3])
    @pytest.mark.parametrize("total", [0.5, 1.5, 3.1])
    def test_matches_logm_reference(self, modes, total):
        gen = RngSpec(43 + modes).generator()
        h1, h2 = hermitian_matrix(gen, modes), hermitian_matrix(gen, modes)
        norm = np.abs(np.linalg.eigvalsh(h1)).max() + np.abs(np.linalg.eigvalsh(h2)).max()
        h1, h2 = (total / norm) * h1, (total / norm) * h2
        want = scipy.linalg.logm(scipy.linalg.expm(h1) @ scipy.linalg.expm(h2))
        assert max_abs(compose_number_conserving(h1, h2), want) < 1e-10
