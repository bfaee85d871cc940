import json
import math

import numpy as np
import pytest
import scipy.linalg
from conftest import hermitian_matrix, max_abs, skew_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import break_phase, eigh_covariance, gamma_ops, quadratic_tensor

from fermigauss import (
    BdgMatrix,
    ContractError,
    DegenerateSpectrumError,
    DomainError,
    FermigaussError,
    GreensPair,
    PolarForm,
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
    normal_ordered_exp,
    paired_eigenvalues,
    polar_decompose,
    quadratic_hamiltonian,
    random_polar_rotation,
    sample_class_d,
    sample_class_d_batch,
    sample_haar_unitary_batch,
    trace_formula,
    verify_nc_modified,
)
from fermigauss.cli import run
from fermigauss.ensembles import assemble_blocks
from fermigauss.fock import _annihilators, _wick_plan, embed_parity_blocks, quadratic_hamiltonian_batch
from fermigauss.gaussian import (
    covariance_from_eigenpairs,
    covariance_number_conserving,
    covariance_of_real_form,
    exp_normalized_fock_batch,
    pair_values,
    real_form,
    wick_blocks,
    wick_coordinates,
)
from fermigauss.verify import _ncons_eigenvectors


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
        gam = gamma_ops(1)
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
        bops = np.einsum("jk,kab->jab", polar.bogoliubov[:modes], gamma_ops(modes))
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


def _rotated_bdg(lambdas, seed):
    # U^dag diag(lambda, -lambda) U for a random canonical transformation U
    modes = len(lambdas)
    u = random_polar_rotation(modes, RngSpec(seed)).bogoliubov
    mat = u.conj().T @ np.diag(np.concatenate([lambdas, -lambdas])).astype(complex) @ u
    return make_bdg(mat[:modes, :modes], mat[:modes, modes:])


@st.composite
def _pair_spectra(draw):
    # spread, clustered (gaps down to 1e-12) and exactly degenerate pairs
    modes = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    gap = draw(st.sampled_from([None, 0.0, 1e-12, 1e-8]))
    if gap is None:
        lam = draw(st.lists(st.floats(0.0, 3.0), min_size=modes, max_size=modes))
    else:
        lam = draw(st.floats(0.0, 3.0)) + gap * np.arange(modes)
    return scale * np.asarray(lam, dtype=float), draw(st.integers(0, 2**16))


@st.composite
def _split_spectra(draw):
    # distinct positive pairs, every gap and the smallest pair far above PAIR_TOL
    modes = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=modes, max_size=modes))
    return scale * np.cumsum(steps), draw(st.integers(0, 2**16))


@st.composite
def _small_norm_pairs(draw):
    # two random elements whose spectral norms add up to below pi
    modes = draw(st.integers(1, 3))
    total = draw(st.floats(0.05, 3.0))
    share = draw(st.floats(0.1, 0.9))
    return modes, total * share, total * (1.0 - share), draw(st.integers(0, 2**16))


def _with_norm(mat, norm):
    return (norm / np.abs(np.linalg.eigvalsh(mat)).max()) * mat


def _bdg(mat):
    m = mat.shape[0] // 2
    return make_bdg(mat[:m, :m], mat[:m, m:])


def _embedded(h):
    # the plain 2M x 2M coefficient matrix diag(h, -h^T); h need not be hermitian
    zero = np.zeros_like(h)
    return np.block([[h, zero], [zero, -h.T]])


class TestBlockKernel:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 100.0, 1000.0])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_blocks_match_full_kernel(self, modes, scale):
        mats = scale * sample_class_d_batch(modes, 1.0, RngSpec(28, stream=modes), 4)
        blocks = quadratic_hamiltonian_batch(mats)
        full = exp_normalized_fock_batch(embed_parity_blocks(blocks))
        assert max_abs(embed_parity_blocks(exp_normalized_fock_batch(blocks)), full) <= 1e-13

    @pytest.mark.parametrize("modes", [1, 3])
    def test_joint_shift_keeps_block_weights(self, modes):
        # all pair energies >= 30: the top of one parity block sits 30 below the
        # other's, so its weight is ~e^-30; normalizing each block on its own
        # would give each block weight 1/2
        lam = 30.0 + 5.0 * np.arange(modes)
        bdg = make_bdg(np.diag(lam), np.zeros((modes, modes)))
        out = embed_parity_blocks(exp_normalized_fock_batch(quadratic_hamiltonian_batch(bdg.assembled()[None])))[0]
        states = np.arange(1 << modes)
        occupied = (states[:, None] >> np.arange(modes)) & 1
        want = np.where(occupied, 1.0 / (1.0 + np.exp(-lam)), 1.0 / (1.0 + np.exp(lam))).prod(axis=1)
        assert max_abs(out, np.diag(want)) <= 1e-13
        parity = np.array([int(n).bit_count() & 1 for n in states])
        assert np.diagonal(out).real[parity != modes % 2].sum() < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_pair_spectra())
    def test_unit_trace_and_positive(self, spectrum):
        lam, seed = spectrum
        blocks = quadratic_hamiltonian_batch(_rotated_bdg(lam, seed).assembled()[None])
        out = exp_normalized_fock_batch(blocks)[0]
        assert abs(np.trace(out, axis1=-2, axis2=-1).sum().real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-13
        # the largest eigenvalue is prod_j 1 / (1 + e^-lambda_j), at every scale
        want = np.prod(1.0 / (1.0 + np.exp(-lam)))
        assert abs(np.linalg.eigvalsh(out).max() - want) <= 1e-9 * want

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_pair_spectra())
    def test_block_trace_matches_trace_formula(self, spectrum):
        lam, seed = spectrum
        if lam.sum() > 1000.0:  # the trace leaves the float range; trace_formula raises
            lam = lam * (1000.0 / lam.sum())
        bdg = _rotated_bdg(lam, seed)
        w = np.linalg.eigvalsh(quadratic_hamiltonian_batch(bdg.assembled()[None]))
        assert w.shape == (1, 2, 1 << (len(lam) - 1))
        exact = trace_formula(bdg)
        assert abs(np.exp(w).sum() - exact) <= 1e-9 * exact


def _majoranas(modes):
    # dense oracle: c_2j = a_j + a_j^dag and c_2j+1 = -i (a_j - a_j^dag)
    out = []
    for a in _annihilators(modes):
        out += [a + a.conj().T, -1j * (a - a.conj().T)]
    return out


def _even_subsets(modes):
    # the kernel's coordinate order: by size, then by bit mask
    even = (s for s in range(1 << (2 * modes)) if s.bit_count() % 2 == 0)
    return sorted(even, key=lambda s: (s.bit_count(), s))


@st.composite
def _wick_draws(draw):
    # three class-D draws at one scale in 1e-3..1e3, M = 1..4
    modes = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return scale * sample_class_d_batch(modes, 1.0, RngSpec(draw(st.integers(0, 2**16))), 3)


def _real_covariance(mats, t=1.0):
    return covariance_of_real_form(*real_form(mats), t)


def _wick_mean(gamma, log_weights=None):
    return wick_blocks(wick_coordinates(gamma, log_weights))[0]


class TestWickKernel:
    # the Fock kernel and the dense Majorana matrices are the oracles: the
    # Wick kernel builds neither; its input is the real form's covariance

    @staticmethod
    def _check_per_operator(mats):
        fock = exp_normalized_fock_batch(quadratic_hamiltonian_batch(mats))
        gamma = _real_covariance(mats)
        for s in range(len(mats)):
            assert max_abs(_wick_mean(gamma[s : s + 1]), fock[s]) <= 1e-12
        assert max_abs(_wick_mean(gamma), fock.mean(axis=0)) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_wick_draws())
    def test_matches_fock_kernel_per_operator(self, mats):
        self._check_per_operator(mats)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_fock_kernel_at_six_modes(self, scale):
        self._check_per_operator(scale * sample_class_d_batch(6, 1.0, RngSpec(29), 3))

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(_wick_draws())
    def test_coordinates_are_majorana_moments(self, mats):
        # Tr(L c_S) = Pf(K_S) = i^(k/2) Pf(Gamma_S) with c_S the ascending product
        modes = mats.shape[-1] // 2
        ops = embed_parity_blocks(exp_normalized_fock_batch(quadratic_hamiltonian_batch(mats[:1])))[0]
        coords = wick_coordinates(_real_covariance(mats[:1]))
        majoranas = _majoranas(modes)
        for subset, coord in zip(_even_subsets(modes), coords, strict=True):
            c_s = np.eye(1 << modes)
            for a in range(2 * modes):
                if subset >> a & 1:
                    c_s = c_s @ majoranas[a]
            assert abs(np.trace(ops @ c_s) - 1j ** (subset.bit_count() // 2) * coord) <= 1e-12

    def test_log_weights_weigh_each_draw(self):
        mats = sample_class_d_batch(3, 1.0, RngSpec(30), 5)
        log_w = np.array([-800.0, 700.0, 699.0, 0.0, 701.5])
        fock = exp_normalized_fock_batch(quadratic_hamiltonian_batch(mats))
        rel = np.exp(log_w - log_w.max())
        want = np.einsum("s,spab->pab", rel / rel.sum(), fock)
        assert max_abs(_wick_mean(_real_covariance(mats), log_w), want) <= 1e-12

    @pytest.mark.parametrize("modes", [1, 3, 6])
    def test_zero_energies_give_exactly_the_maximally_mixed_state(self, modes):
        mats = sample_class_d_batch(modes, 1.0, RngSpec(31), 4)
        v = np.linalg.eigh(mats)[1]
        for gamma in (
            _real_covariance(np.zeros_like(mats)),  # H = 0
            _real_covariance(mats, 0.0),  # L(0 H)
            covariance_from_eigenpairs(np.zeros((4, 2 * modes)), v),
        ):
            assert not gamma.any()
            out = embed_parity_blocks(_wick_mean(gamma))
            assert np.array_equal(out, np.eye(1 << modes) / (1 << modes))

    def test_perturbed_phase_fails_the_report_through_the_cross_check(self, monkeypatch, tmp_path):
        # i times one entry of the parity coordinate's column: the entrywise
        # gate cannot see it, the Fock cross-check of chunk 0 does
        argv = ["resolution", "--mode", "mc", "--modes", "3", "--samples", "400", "--seed", "1"]
        assert run(argv + ["--out", str(tmp_path / "good.json")]) == 0
        break_phase(monkeypatch, 3)
        assert run(argv + ["--out", str(tmp_path / "bad.json")]) == 1
        good, bad = (json.loads((tmp_path / f"{n}.json").read_text())["criteria"][0] for n in ("good", "bad"))
        assert good["details"]["fock_check_deviation"] <= 1e-15
        assert bad["details"]["fock_check_deviation"] > 1e-4
        assert bad["details"]["max_sigma"] < 3.0 and bad["details"]["band_entries"] == 0


class TestRealForm:
    # the oracle is the complex 2M x 2M eigh of the draws and their eigenpairs

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_matches_the_complex_eigh_route(self, modes, scale):
        mats = scale * sample_class_d_batch(modes, 1.0, RngSpec(40 + modes), 200)
        gap = np.abs(_real_covariance(mats) - eigh_covariance(mats)).max(axis=(1, 2))
        lam = np.linalg.eigvalsh(mats)[:, modes:]
        # near saturation Gamma tends to the sign of H, and either route's
        # rounding grows with the condition number lam_max / lam_min (both
        # differ from a 40-digit reference by up to about 4e-13 at scale 1e3)
        tol = 1e-14 * (np.maximum(1.0, lam[:, -1] / lam[:, 0]) if scale > 1.0 else 1.0)
        assert (gap <= tol).all(), gap.max()

    @pytest.mark.parametrize("pairs", [(1.3, 1.3), (0.0, 0.0), (0.0, 2.0, 2.0), (0.7, 0.7, 0.7)], ids=str)
    def test_degenerate_pairs(self, pairs):
        # H = U^-1 diag(lam, -lam) U with equal or zero pairs, at three scales
        modes = len(pairs)
        lam = np.array(pairs)
        v = random_polar_rotation(modes, RngSpec(8)).bogoliubov.conj().T
        for scale in (1e-3, 1.0, 1e3):
            w = scale * np.concatenate([lam, -lam])[None]
            mats = (v * w[0]) @ v.conj().T
            gap = max_abs(_real_covariance(mats[None]), eigh_covariance(mats[None]))
            # rounding H to floats moves a zero pair by about eps |H|, and its
            # share of Gamma (slope 1/4 at 0) by as much, on either route
            assert gap <= 1e-14 * (scale if 0.0 in pairs and scale > 1.0 else 1.0), (scale, gap)

    def test_singular_values_are_the_pair_eigenvalues(self):
        mats = sample_class_d_batch(4, 1.0, RngSpec(9), 50)
        s = real_form(mats)[2]
        assert max_abs(s[:, ::2], s[:, 1::2]) <= 1e-14
        assert max_abs(s[:, 1::2], np.linalg.eigvalsh(mats)[:, 4:]) <= 1e-14

    def test_majorana_form_is_im_omega_h_omega_dagger(self):
        # real_form writes A out in the blocks of H; Gamma = 2 A g(A^T A)
        # needs it to be Im(Omega H Omega^dag) / 2 with the plan's Omega
        mats = sample_class_d_batch(3, 1.0, RngSpec(10), 5)
        omega = _wick_plan(3).majorana
        a = (omega @ mats @ omega.conj().T).imag / 2.0
        av, vecs, _ = real_form(mats)
        assert max_abs(av, a @ vecs) <= 1e-14

    def test_no_square_overflows_at_tiny_stiffness(self):
        # draws near 1e153: an unscaled A^T A is inf
        mats = sample_class_d_batch(2, 1e-308, RngSpec(1), 8)
        av, vecs, s = real_form(mats)
        assert np.isfinite(s).all() and (s > 1e150).all()
        gamma = covariance_of_real_form(av, vecs, s)
        assert max_abs(gamma, eigh_covariance(mats)) <= 1e-14


class TestNumberConservingDraws:
    # the two steps of the nc_modified worker, against the complex eigvalsh
    # of the draws and covariance_from_eigenpairs of the embedding (h, 0)

    @pytest.mark.parametrize("p", [1e-308, 1.0, 1e300])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_pair_values_match_eigvalsh(self, modes, p):
        draws = sample_class_d_batch(modes, p, RngSpec(50 + modes), 200)
        a = 0.7 / math.sqrt(p)  # the draws' scale
        zero = np.zeros((modes, modes))
        degenerate = assemble_blocks(a * np.eye(modes), zero)  # every pair value is a
        mats = np.concatenate([draws, np.zeros_like(draws[:1]), degenerate[None]])
        want = np.linalg.eigvalsh(mats)[:, modes:]
        got = pair_values(mats)
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-14 * want[:, -1:]).all()
        assert not got[-2].any()
        assert np.abs(got[-1] - a).max() <= 1e-15 * a

    def test_two_modes_take_no_eigvalsh(self, monkeypatch):
        mats = sample_class_d_batch(2, 1.0, RngSpec(54), 20)
        want = np.linalg.eigvalsh(mats)[:, 2:]

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("pair_values called eigvalsh at M = 2")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert max_abs(pair_values(mats), want) <= 1e-14 * want.max()

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_covariance_matches_the_embedding_eigenpairs(self, modes):
        gen = RngSpec(60 + modes).generator()
        lam = 3.0 * gen.normal(size=(100, modes))
        us = sample_haar_unitary_batch(modes, gen, 100)
        gamma = covariance_number_conserving(lam, us)
        want = covariance_from_eigenpairs(np.concatenate([lam, -lam], axis=1), _ncons_eigenvectors(us))
        assert max_abs(gamma, want) <= 1e-15
        assert np.array_equal(gamma, -np.swapaxes(gamma, -1, -2))
        assert not covariance_number_conserving(np.zeros_like(lam), us).any()

    @pytest.mark.filterwarnings("error")
    def test_nc_modified_at_tiny_stiffness_warns_of_nothing(self):
        # draws near 1e153: an unscaled closed form squares them to inf
        rep = verify_nc_modified(2, 1e-308, 400, RngSpec(3))
        assert rep.passed


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
        gam = np.stack(gamma_ops(2))
        b = np.einsum("jk,kab->jab", u, gam)
        eye = np.eye(4)
        for i in range(2):
            assert max_abs(b[i + 2], b[i].conj().transpose(1, 0)) < 1e-12
            for j in range(2):
                car = b[i] @ b[j + 2] + b[j + 2] @ b[i]
                assert max_abs(car, (i == j) * eye) < 1e-10
                assert max_abs(b[i] @ b[j] + b[j] @ b[i]) < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_split_spectra())
    def test_round_trip_property(self, spectrum):
        lam, seed = spectrum
        bdg = _rotated_bdg(lam, seed)
        polar = polar_decompose(bdg)
        m, u = len(lam), polar.bogoliubov
        tol = 1e-12 * lam.max()
        assert max_abs(polar.lambdas, lam) <= tol
        rebuilt = u.conj().T @ polar.diagonal_coefficient() @ u
        assert max_abs(rebuilt, bdg.assembled()) <= tol
        assert max_abs(polar_decompose(_bdg(rebuilt)).lambdas, lam) <= tol
        # canonical: the creation rows are the conjugated annihilation rows, blocks swapped
        assert max_abs(u[m:], u[:m].conj()[:, np.r_[m : 2 * m, 0:m]]) <= 1e-12

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
        gam = gamma_ops(3)
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

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(_small_norm_pairs())
    def test_group_law_property(self, pair):
        modes, n1, n2, seed = pair
        gen = RngSpec(seed).generator()
        b1, b2 = (_bdg(_with_norm(sample_class_d(modes, 1.0, gen).assembled(), n)) for n in (n1, n2))
        comp = compose_general(b1, b2)
        want = scipy.linalg.expm(b1.assembled()) @ scipy.linalg.expm(b2.assembled())
        assert max_abs(scipy.linalg.expm(comp.assembled()), want) <= 1e-10
        fock = [scipy.linalg.expm(quadratic_hamiltonian(b).matrix) for b in (b1, b2)]
        assert max_abs(scipy.linalg.expm(quadratic_hamiltonian(comp).matrix), fock[0] @ fock[1]) <= 1e-9

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
        gen = RngSpec(38).generator()
        tensor = quadratic_tensor(2)[:2, :2]
        eye = np.eye(4)

        def unnormalized(h):
            ham = np.einsum("kl,klab->ab", h, tensor) - 0.5 * np.trace(h) * eye
            return scipy.linalg.expm(ham)

        for _ in range(10):
            h1 = 0.5 * hermitian_matrix(gen, 2)
            h2 = 0.5 * hermitian_matrix(gen, 2)
            h = compose_number_conserving(h1, h2)
            assert max_abs(unnormalized(h), unnormalized(h1) @ unnormalized(h2)) < 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(_small_norm_pairs())
    def test_group_law_property(self, pair):
        modes, n1, n2, seed = pair
        gen = RngSpec(seed).generator()
        h1, h2 = (_with_norm(hermitian_matrix(gen, modes), n) for n in (n1, n2))
        h = compose_number_conserving(h1, h2)
        want = scipy.linalg.expm(h1) @ scipy.linalg.expm(h2)
        assert max_abs(scipy.linalg.expm(h), want) <= 1e-10
        # on Fock space, through the embedding (h, delta = 0): traceless
        # a^dag h a - (1/2) tr h, so the law needs tr h = tr h1 + tr h2 too
        fock = [scipy.linalg.expm(quadratic_hamiltonian(_embedded(x)).matrix) for x in (h, h1, h2)]
        assert max_abs(fock[0], fock[1] @ fock[2]) <= 1e-9

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


_ZERO = np.zeros((2, 2))

#: Each public entry point, fed a 2 x 2 block of one non-finite value in one argument.
_NON_FINITE_ENTRIES = {
    "greens_parameterization": greens_parameterization,
    "GreensPair": lambda bad: GreensPair(bad, np.eye(2) - bad),
    "PolarForm": lambda bad: PolarForm(bad[0].real, np.eye(4)),
    "compose_number_conserving": lambda bad: compose_number_conserving(bad, 0.1 * np.eye(2)),
    "compose_general": lambda bad: compose_general(make_bdg(bad, _ZERO), make_bdg(0.1 * np.eye(2), _ZERO)),
    "make_bdg_from_r": lambda bad: make_bdg_from_r(np.block([[_ZERO, -bad.T], [bad, _ZERO]])),
    "make_bdg": lambda bad: make_bdg(np.eye(2), np.array([[0.0, bad[0, 0]], [-bad[0, 0], 0.0]])),
    "quadratic_hamiltonian": lambda bad: quadratic_hamiltonian(np.block([[bad, _ZERO], [_ZERO, -bad.T]])),
    "gaussian_number_conserving": gaussian_number_conserving,
    "normal_ordered_exp": normal_ordered_exp,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_NON_FINITE_ENTRIES))
def test_non_finite_input_raises_a_named_error(entry, value):
    # a NaN or inf entry never comes back inside a returned object
    with pytest.raises(FermigaussError) as err:
        _NON_FINITE_ENTRIES[entry](np.full((2, 2), value, dtype=complex))
    assert type(err.value) is not FermigaussError
