import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from conftest import hermitian_matrix, max_abs, skew_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    break_phase,
    covariance_x_from_eigenpairs,
    eigh_covariance_x,
    gamma_ops,
    quadratic_tensor,
    wick_sums_per_term,
)

from fermigauss import (
    BdgMatrix,
    BranchCutError,
    ContractError,
    DegenerateSpectrumError,
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
    normal_ordered_exp,
    paired_eigenvalues,
    polar_decompose,
    quadratic_hamiltonian,
    random_polar_rotation,
    sample_class_d,
    sample_class_d_batch,
    sample_haar_unitary_batch,
    verify_nc_modified,
)
from fermigauss.cli import run
from fermigauss import ensembles, gaussian
from fermigauss.ensembles import _haar_column_normals, _normal_parts, class_d_pair_values
from fermigauss.fock import (
    _annihilators,
    _sigma_x,
    _wick_plan,
    embed_parity_blocks,
    from_eigenpairs,
    quadratic_hamiltonian_batch,
)
from fermigauss.gaussian import (
    _expm,
    _pair_rows,
    _rank_one_filling,
    _rank_one_pair_rows,
    _wick_block_draws,
    assemble_blocks,
    exp_normalized_fock_batch,
    filling_moments,
    log_trace_of_pairs,
    moment_wick_coordinates,
    number_conserving_pair_rows,
    real_form,
    real_form_pair_rows,
    wick_blocks,
    wick_coordinates,
)
from fermigauss.verify import _ncons_eigenvectors


class TestMakeBdg:
    def test_valid_identity_block(self):
        bdg = make_bdg(np.eye(2), np.zeros((2, 2)))
        assert bdg.modes == 2
        assert max_abs(bdg.assembled(), np.diag([1.0, 1.0, -1.0, -1.0])) == 0.0

    def test_fields_are_the_two_blocks(self):
        assert [f.name for f in dataclasses.fields(BdgMatrix)] == ["h", "delta"]

    def test_blocks_of_different_sizes_rejected(self):
        with pytest.raises(StructureError, match="pairing block"):
            BdgMatrix(np.eye(2), np.zeros((3, 3)))

    def test_symmetric_pairing_rejected(self):
        delta = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(StructureError, match="skew-symmetric"):
            make_bdg(np.eye(2), delta)

    @pytest.mark.parametrize("block", ["h", "delta"])
    def test_non_finite_entries_rejected(self, block):
        blocks = {"h": np.eye(2), "delta": np.zeros((2, 2))}
        blocks[block][0, 0] = np.nan
        with pytest.raises(StructureError, match="non-finite"):
            BdgMatrix(**blocks)

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


class TestQuadraticForm:
    def test_single_mode_matches_quadratic_form(self):
        # oracle: (1/2) gamma^T R gamma must equal the quadratic operator of
        # the coefficient matrix sigma R, here [[-r, 0], [0, r]]
        r = 0.7
        rmat = np.array([[0.0, r], [-r, 0.0]], dtype=complex)
        bdg = make_bdg(np.array([[-r]]), np.zeros((1, 1)))
        assert max_abs(_sigma_x(1) @ rmat, bdg.assembled()) == 0.0
        gam = gamma_ops(1)
        direct = 0.5 * sum(
            rmat[i, j] * (gam[i] @ gam[j]) for i in range(2) for j in range(2)
        )
        assert max_abs(quadratic_hamiltonian(bdg).matrix, direct) < 1e-14


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


def _closed_trace(bdg):
    return float(np.exp(log_trace_of_pairs(paired_eigenvalues(bdg))))


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
        if lam.sum() > 1000.0:  # keep the trace inside the float range
            lam = lam * (1000.0 / lam.sum())
        bdg = _rotated_bdg(lam, seed)
        w = np.linalg.eigvalsh(quadratic_hamiltonian_batch(bdg.assembled()[None]))
        assert w.shape == (1, 2, 1 << (len(lam) - 1))
        exact = _closed_trace(bdg)
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


def _real_rows(mats, t=1.0):
    return real_form_pair_rows(*real_form(mats), t)


def _wick_mean(rows, log_weights=None):
    return wick_blocks(wick_coordinates(rows, log_weights))[0]


class TestWickKernel:
    # the Fock kernel and the dense Majorana matrices are the oracles: the
    # Wick kernel builds neither; its input is the real form's pair rows

    @staticmethod
    def _check_per_operator(mats):
        fock = exp_normalized_fock_batch(quadratic_hamiltonian_batch(mats))
        rows = _real_rows(mats)
        for s in range(len(mats)):
            assert max_abs(_wick_mean(rows[:, s : s + 1]), fock[s]) <= 1e-12
        assert max_abs(_wick_mean(rows), fock.mean(axis=0)) <= 1e-12

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
        coords = wick_coordinates(_real_rows(mats[:1]))
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
        assert max_abs(_wick_mean(_real_rows(mats), log_w), want) <= 1e-12

    @pytest.mark.parametrize("modes", [1, 3, 6])
    def test_zero_energies_give_exactly_the_maximally_mixed_state(self, modes):
        counts = [4, _wick_block_draws(modes) + 1] if modes == 6 else [4]  # M = 6: also a stack of two blocks
        for mats in (sample_class_d_batch(modes, 1.0, RngSpec(31), n) for n in counts):
            for rows in (
                _real_rows(np.zeros_like(mats)),  # H = 0
                _real_rows(mats, 0.0),  # L(0 H)
            ):
                assert not rows.any()
                out = embed_parity_blocks(_wick_mean(rows))
                assert np.array_equal(out, np.eye(1 << modes) / (1 << modes))
        # zero nodes of a quadrature rule: every moment but m_0 is 0
        v = random_polar_rotation(modes, RngSpec(31)).bogoliubov.conj().T
        moments = filling_moments(np.zeros((4, modes)), np.ones(4))
        assert np.array_equal(moments, np.eye(1, 1 << modes)[0])
        out = embed_parity_blocks(wick_blocks(moment_wick_coordinates(moments, v))[0])
        assert np.array_equal(out, np.eye(1 << modes) / (1 << modes))

    @pytest.mark.parametrize("modes", [4, 6])
    def test_block_totals_are_the_weighted_mean_of_single_draws(self, modes):
        # stacks on either side of one and two blocks, with a third of the
        # draws near each of -700, 0 and +700 in log weight
        block = _wick_block_draws(modes)
        gen = RngSpec(32).generator()
        rows = _real_rows(sample_class_d_batch(modes, 1.0, gen, 2 * block + 3))
        log_w = 700.0 * gen.integers(-1, 2, rows.shape[1]) + gen.normal(size=rows.shape[1])
        single = np.array([wick_coordinates(rows[:, s : s + 1]) for s in range(rows.shape[1])])
        for n in (block - 1, block, block + 1, 2 * block + 3):
            rel = np.exp(log_w[:n] - log_w[:n].max())
            assert max_abs(wick_coordinates(rows[:, :n], log_w[:n]), rel @ single[:n] / rel.sum()) <= 1e-15

    @pytest.mark.parametrize("modes, draws", [(6, 25), (6, 4), (3, 4000), (2, 1563)])
    def test_one_block_repeats_the_per_term_recursion_exactly(self, monkeypatch, modes, draws):
        # the mc_m6 chunk and its Fock check, a full M = 3 chunk and an
        # nc_modified chunk: reports stay byte-identical only if these agree
        assert draws <= _wick_block_draws(modes)
        gen = RngSpec(33).generator()
        rows = _real_rows(sample_class_d_batch(modes, 1.0, gen, draws))
        log_w = gen.normal(size=draws)
        got = [wick_coordinates(rows), wick_coordinates(rows, log_w)]
        monkeypatch.setattr(gaussian, "_wick_sums", wick_sums_per_term)
        for coords, want in zip(got, [wick_coordinates(rows), wick_coordinates(rows, log_w)], strict=True):
            assert np.array_equal(coords, want)

    @pytest.mark.parametrize("modes", [2, 3, 4, 5, 6])
    def test_pair_rows_are_the_covariance_entries_as_a_view_or_a_copy(self, modes):
        # one-block stacks and stacks on either side of one and two blocks:
        # _pair_rows of X is bit for bit Gamma = X - X^T above its diagonal,
        # and the kernel reads the rows alike as that view and as a copy
        block = _wick_block_draws(modes)
        counts = [4, block - 1, block, block + 1, 2 * block + 3]
        gen = RngSpec(36).generator()
        x = gen.normal(size=(max(counts), 2 * modes, 2 * modes))
        gamma = x - np.swapaxes(x, -1, -2)
        log_w = 300.0 * gen.normal(size=len(gamma))
        plan = _wick_plan(modes)
        for n in counts:
            rows = _pair_rows(x[:n])
            assert np.array_equal(rows, gamma[:n, plan.pair_rows, plan.pair_cols].T)
            for weights in (None, log_w[:n]):
                want = wick_coordinates(rows, weights)
                assert np.array_equal(wick_coordinates(np.ascontiguousarray(rows), weights), want)

    @pytest.mark.parametrize(
        "rows, log_w, error, match",
        [
            (np.zeros(6), None, StructureError, r"\(P, n\)"),  # one draw's rows, not a (P, n) array
            (np.zeros((6, 4, 4)), None, StructureError, r"\(P, n\)"),  # a Gamma stack, not its rows
            (np.zeros((0, 4, 4)), None, StructureError, r"\(P, n\)"),
            (np.zeros((2, 5, 5)), None, StructureError, r"\(P, n\)"),
            (np.zeros((2, 4, 5)), None, StructureError, r"\(P, n\)"),
            (np.zeros((0, 3)), None, StructureError, "P = M"),
            (np.zeros((5, 3)), None, StructureError, "P = M"),
            (np.zeros((7, 3)), None, StructureError, "P = M"),
            (np.zeros((27, 3)), None, StructureError, "P = M"),
            (np.full((6, 3), np.nan), None, StructureError, "finite"),
            (np.where(np.eye(6, 3) > 0.0, np.inf, 0.0), None, StructureError, "finite"),
            (np.zeros((6, 0)), None, ContractError, "at least one draw"),
            (np.zeros((6, 0)), np.zeros(0), ContractError, "at least one draw"),
            (np.zeros((6, 3)), [0.0, np.nan, 1.0], ContractError, "finite log weight"),
            (np.zeros((6, 3)), [0.0, np.inf, 1.0], ContractError, "finite log weight"),
            (np.zeros((6, 3)), [0.0, -np.inf, 1.0], ContractError, "finite log weight"),
            (np.zeros((6, 3)), [0.0, 1.0], ContractError, "finite log weight"),
            (np.zeros((6, 3)), np.zeros((3, 1)), ContractError, "finite log weight"),
            (np.zeros((6, 3)), 0.0, ContractError, "finite log weight"),
        ],
    )
    def test_the_one_entry_rejects_what_it_cannot_read(self, rows, log_w, error, match):
        with pytest.raises(error, match=match):
            wick_coordinates(rows, log_w)

    def test_the_moment_map_repeats_the_per_term_recursion_exactly(self, monkeypatch):
        gen = RngSpec(34).generator()
        v = random_polar_rotation(2, RngSpec(34)).bogoliubov.conj().T
        moments = filling_moments(*TestMomentMap._nodes(gen, 2))
        got = moment_wick_coordinates(moments, v)
        monkeypatch.setattr(gaussian, "_wick_sums", wick_sums_per_term)
        assert np.array_equal(got, moment_wick_coordinates(moments, v))

    def test_a_full_six_mode_chunk_stays_within_one_block_of_memory(self):
        # the pair rows of 4000 antisymmetric 12 x 12 covariances, the CLI's
        # chunk: the transient is one block's gathers, whatever the chunk's size
        rows = _pair_rows(RngSpec(35).generator().normal(size=(4000, 12, 12)))
        wick_coordinates(rows[:, :1])  # the cached plan is built outside the trace
        tracemalloc.start()
        try:
            wick_coordinates(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

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
        gap = np.abs(_real_rows(mats) - _pair_rows(eigh_covariance_x(mats))).max(axis=0)
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
            gap = max_abs(_real_rows(mats[None]), _pair_rows(eigh_covariance_x(mats[None])))
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
        rows = real_form_pair_rows(av, vecs, s)
        assert max_abs(rows, _pair_rows(eigh_covariance_x(mats))) <= 1e-14


class TestPairRowProducers:
    # each producer of the kernel's one input against _pair_rows of the X of
    # its oracle covariance (tests/oracles.py) at the canonical t of the same
    # draws: the real form of L(t H), and the number-conserving pair rows of
    # the energies t lam

    @pytest.mark.parametrize("t", [1.0, -0.7, -1000.0])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_rows_match_pair_rows_of_the_oracle(self, modes, t):
        gen = RngSpec(100 + modes).generator()
        mats = sample_class_d_batch(modes, 1.0, gen, 100)
        lam = np.linalg.eigvalsh(mats)[:, modes:]
        # as in TestRealForm: near saturation the rounding of either route grows with lam_max / lam_min
        tol = 1e-14 * (np.maximum(1.0, lam[:, -1] / lam[:, 0]) if abs(t) > 1.0 else 1.0)
        assert (np.abs(_real_rows(mats, t) - _pair_rows(eigh_covariance_x(t * mats))).max(axis=0) <= tol).all()
        energies, us = t * 3.0 * gen.normal(size=(100, modes)), sample_haar_unitary_batch(modes, gen, 100)
        want = covariance_x_from_eigenpairs(np.concatenate([energies, -energies], axis=1), _ncons_eigenvectors(us))
        assert max_abs(number_conserving_pair_rows(energies, us), _pair_rows(want)) <= 1e-15


class TestNumberConservingDraws:
    # the two steps of the nc_modified worker, against the complex eigvalsh
    # of the draws and covariance_x_from_eigenpairs of the embedding (h, 0)

    @pytest.mark.parametrize("p", [1e-308, 1.0, 1e300])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_sampler_matches_eigvalsh_of_the_same_draws(self, modes, p):
        spec = RngSpec(50 + modes)
        gen, gen_mats = spec.generator(), spec.generator()
        got = class_d_pair_values(modes, p, gen, 200)
        mats = sample_class_d_batch(modes, p, gen_mats, 200)
        assert gen.bit_generator.state == gen_mats.bit_generator.state
        want = np.linalg.eigvalsh(mats)[:, modes:]
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-14 * want[:, -1:]).all()

    @pytest.mark.parametrize("p", [1e-308, 1.0, 1e300])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_sampler_on_the_zero_and_a_scalar_draw(self, modes, p, monkeypatch):
        # normals of H = 0 and of h = a I, D = 0, whose every pair value is a,
        # at the draws' scale (near 1e153 and 1e-151 at the extreme p)
        a, pairs = 0.7 / math.sqrt(p), modes * (modes - 1) // 2
        normals = (np.array([np.zeros(modes), np.full(modes, a)]), np.zeros((2, 4, pairs)))
        monkeypatch.setattr(ensembles, "_class_d_normals", lambda *args: normals)
        got = class_d_pair_values(modes, p, RngSpec(0), 2)
        assert not got[0].any()
        assert np.abs(got[1] - a).max() <= 1e-15 * a

    @pytest.mark.parametrize("p", [1e-308, 1.0, 1e300])
    @pytest.mark.parametrize("count", [0, 1, 1563])
    def test_two_modes_give_contiguous_ascending_rows_at_every_size(self, count, p):
        # the closed form's (6, n) rows of normals, from no draw to an nc_modified chunk
        spec = RngSpec(56)
        gen, gen_mats = spec.generator(), spec.generator()
        got = class_d_pair_values(2, p, gen, count)
        mats = sample_class_d_batch(2, p, gen_mats, count)
        assert gen.bit_generator.state == gen_mats.bit_generator.state
        assert got.shape == (count, 2) and got.dtype == np.float64 and got.flags.c_contiguous
        assert (got[:, 0] <= got[:, 1]).all()
        if count:
            want = np.linalg.eigvalsh(mats)[:, 2:]
            assert (np.abs(got - want) <= 1e-14 * want[:, -1:]).all()

    def test_two_modes_take_no_eigvalsh(self, monkeypatch):
        want = np.linalg.eigvalsh(sample_class_d_batch(2, 1.0, RngSpec(54), 20))[:, 2:]

        def no_matrix(*args, **kwargs):
            raise AssertionError("class_d_pair_values built or diagonalized a matrix at M = 2")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_matrix)
        monkeypatch.setattr(ensembles, "assemble_blocks", no_matrix)
        monkeypatch.setattr(ensembles, "_class_d_blocks", no_matrix)
        assert max_abs(class_d_pair_values(2, 1.0, RngSpec(54), 20), want) <= 1e-14 * want.max()

    def test_haar_column_normals_keep_the_normals_and_the_stream(self):
        gen, gen_z, gen_u = (RngSpec(55).generator() for _ in range(3))
        real, imag = _haar_column_normals(gen, 300)
        want_real, want_imag = _normal_parts(gen_z, 300, 2)  # the QR route's normals
        assert np.array_equal(real, want_real[:, :, 0].T) and np.array_equal(imag, want_imag[:, :, 0].T)
        # copied out: no view holds the (300, 2, 2) draws
        assert all(rows.flags.c_contiguous and rows.base is None for rows in (real, imag))
        sample_haar_unitary_batch(2, gen_u, 300)
        assert gen.bit_generator.state == gen_z.bit_generator.state == gen_u.bit_generator.state

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_covariance_matches_the_embedding_eigenpairs(self, modes):
        gen = RngSpec(60 + modes).generator()
        lam = 3.0 * gen.normal(size=(100, modes))
        us = sample_haar_unitary_batch(modes, gen, 100)
        rows = number_conserving_pair_rows(lam, us)
        want = covariance_x_from_eigenpairs(np.concatenate([lam, -lam], axis=1), _ncons_eigenvectors(us))
        assert max_abs(rows, _pair_rows(want)) <= 1e-15
        assert not number_conserving_pair_rows(np.zeros_like(lam), us).any()

    @staticmethod
    def _two_routes(p):
        """Signed pair values, the column-0 normals' rows, the first columns
        z / |z| of the worker's M = 2 route and the QR unitaries of the same
        normals, and z / |z| in extended precision."""
        n, spec = 500, RngSpec(70)
        if p == "zero":
            lam = np.zeros((n, 2))
        else:
            lam = class_d_pair_values(2, p, spec.with_stream(1), n) * [1.0, -1.0]
        gen_q, gen_u = spec.generator(), spec.generator()
        (real, imag), us = _haar_column_normals(gen_q, n), sample_haar_unitary_batch(2, gen_u, n)
        assert gen_q.bit_generator.state == gen_u.bit_generator.state
        z = (real + 1j * imag).T
        exact_z = z.astype(np.clongdouble)
        exact_q = exact_z / np.sqrt((exact_z * exact_z.conj()).real.sum(axis=-1, keepdims=True))
        return lam, real, imag, z / np.linalg.norm(z, axis=-1, keepdims=True), us, exact_q

    @pytest.mark.parametrize("p", [1e-308, 1.0, 1e300, "zero"])
    def test_rank_one_filling_matches_the_qr_unitaries(self, p):
        # the Fock check's h on the worker's M = 2 route: the same normals, and no QR
        lam, _, _, q, us, exact_q = self._two_routes(p)
        for w in (-0.5 * np.tanh(0.5 * lam), lam):  # a filling F and the Fock check's h
            # to 1e-15 of the largest w_1 - w_2, the scale of the rank-one
            # term: against the same closed form in extended precision, and
            # against the QR unitaries, whose own rounding is the larger
            got, scale = _rank_one_filling(w, q), np.abs(w[:, 0] - w[:, 1]).max()
            assert np.abs(got - _rank_one_filling(w.astype(np.longdouble), exact_q)).max() <= 1e-15 * scale
            assert max_abs(got, from_eigenpairs(w, us)) <= 1e-15 * scale

    @pytest.mark.parametrize("p", [1e-308, 1.0, 1e300, "zero"])
    def test_pair_rows_match_the_qr_unitaries(self, p):
        # the worker's M = 2 pair rows, 2 (F_00, Im F_01, -Re F_01, Re F_01,
        # Im F_01, F_11), to 1e-15 of the largest 2 |w_1 - w_2|, the scale of
        # their rank-one term: against the pair rows of the QR route's
        # draws, and against 2F of the same tanh values in extended precision
        lam, real, imag, _, us, exact_q = self._two_routes(p)
        got = _rank_one_pair_rows(lam, real, imag)
        v = -np.tanh(0.5 * lam)  # 2 w, as the builder takes it
        scale = np.abs(v[:, 0] - v[:, 1]).max()
        assert max_abs(got, number_conserving_pair_rows(lam, us)) <= 1e-15 * scale
        f = _rank_one_filling(v.astype(np.longdouble), exact_q)
        exact = np.stack([f[:, 0, 0].real, f[:, 0, 1].imag, -f[:, 0, 1].real, f[:, 0, 1].real, f[:, 0, 1].imag,
                          f[:, 1, 1].real])
        assert np.abs(got - exact).max() <= 1e-15 * scale
        if p == "zero":
            assert not got.any()

    @pytest.mark.filterwarnings("error")
    def test_nc_modified_at_tiny_stiffness_warns_of_nothing(self):
        # draws near 1e153: an unscaled closed form squares them to inf
        rep = verify_nc_modified(2, 1e-308, 400, RngSpec(3))
        assert rep.passed


class TestMomentMap:
    # the quadrature means' path against the per-node one: each node's
    # covariance from its eigenpairs (tests/oracles.py), then wick_coordinates
    # of its pair rows

    @staticmethod
    def _nodes(gen, modes, n=300):
        pts = 3.0 * gen.normal(size=(n, modes))
        pts[:3] = [[0.0], [50.0], [-1e-9]]  # a zero node, a saturated one and one near zero
        w = gen.uniform(size=n)
        w[::7] = 0.0  # zero weights, as on the zeros of a radial density
        return pts, w

    @pytest.mark.parametrize("source", ["polar", "ncons"])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_matches_the_per_node_pfaffian_path(self, modes, source):
        gen = RngSpec(80 + modes).generator()
        if source == "polar":
            v = random_polar_rotation(modes, RngSpec(90 + modes)).bogoliubov.conj().T
        else:
            v = _ncons_eigenvectors(sample_haar_unitary_batch(modes, gen, 1)[0])
        pts, w = self._nodes(gen, modes)
        got = moment_wick_coordinates(filling_moments(pts, w), v)
        keep = w > 0.0  # a node of weight 0 adds nothing, and has no finite log weight
        x = covariance_x_from_eigenpairs(np.concatenate([pts[keep], -pts[keep]], axis=1), v)
        want = wick_coordinates(_pair_rows(x), np.log(w[keep]))
        assert got.shape == want.shape and got[0] == 1.0
        assert max_abs(got, want) <= 1e-14

    def test_moments_are_the_weighted_means_of_the_products(self):
        gen = RngSpec(85).generator()
        pts, w = self._nodes(gen, 3, 40)
        t = -0.5 * np.tanh(0.5 * pts)
        want = [w @ np.prod(t[:, [j for j in range(3) if mask >> j & 1]], axis=1) / w.sum() for mask in range(8)]
        assert max_abs(filling_moments(pts, w), np.array(want)) <= 1e-15

    def test_eigenvectors_without_the_particle_hole_pairing_are_rejected(self):
        v = sample_haar_unitary_batch(4, RngSpec(86).generator(), 1)[0]  # a unitary, unpaired
        with pytest.raises(StructureError, match="particle-hole pairing"):
            moment_wick_coordinates(filling_moments(np.ones((2, 2)), np.ones(2)), v)


class TestTraceFormula:
    """The closed form prod_j 2 cosh(lambda_j / 2) of the Fock trace, as
    exp(log_trace_of_pairs(paired_eigenvalues(bdg)))."""

    def test_zero_matrix(self):
        # exp(3 log 2): exact up to the rounding of the log and exp
        assert abs(_closed_trace(make_bdg(np.zeros((3, 3)), np.zeros((3, 3)))) - 2.0**3) <= 4e-15

    def test_single_mode_value(self):
        bdg = make_bdg(np.array([[2.0]]), np.zeros((1, 1)))
        assert abs(_closed_trace(bdg) - 3.0861612696304874) < 1e-12  # 2 cosh(1)

    def test_matches_exact_fock_trace(self):
        gen = RngSpec(25).generator()
        for _ in range(20):
            bdg = sample_class_d(2, 1.0, gen)
            exact = scipy.linalg.expm(quadratic_hamiltonian(bdg).matrix).trace().real
            assert abs(_closed_trace(bdg) - exact) / exact < 1e-9

    def test_large_scale_matches_the_log_of_the_fock_trace(self):
        # at 1000 x the trace leaves the float range, and its log does not
        bdg = sample_class_d(3, 1.0, RngSpec(5))
        for scale in (100.0, 1000.0):
            big = make_bdg(scale * bdg.h, scale * bdg.delta)
            w = np.linalg.eigvalsh(quadratic_hamiltonian(big).matrix)
            exact_log = w.max() + math.log(np.exp(w - w.max()).sum())
            assert abs(log_trace_of_pairs(paired_eigenvalues(big)) - exact_log) <= 1e-12 * exact_log

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

    def test_a_unitary_without_the_particle_hole_pairing_is_rejected(self):
        u = sample_haar_unitary_batch(4, RngSpec(30).generator(), 1)[0]
        with pytest.raises(StructureError, match="particle-hole pairing"):
            PolarForm(np.array([0.5, 1.0]), u)
        paired = polar_decompose(sample_class_d(2, 1.0, RngSpec(30))).bogoliubov
        assert PolarForm(np.array([0.5, 1.0]), paired).modes == 2

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
        assert max_abs(comp, b1.assembled()) < 1e-10

    def test_commuting_diagonals_add(self):
        b1 = make_bdg(np.diag([0.3, -0.2]), np.zeros((2, 2)))
        b2 = make_bdg(np.diag([0.1, 0.4]), np.zeros((2, 2)))
        comp = compose_general(b1, b2)
        assert max_abs(comp, b1.assembled() + b2.assembled()) < 1e-12
        assert quadratic_hamiltonian(comp).hermitian

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
        assert not quadratic_hamiltonian(comp).hermitian
        assert max_abs(comp[2:, :2], -comp[:2, 2:].conj()) > 1e-12

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_output_has_the_particle_hole_structure(self, modes):
        # sigma_x X is antisymmetric: the lower blocks are the upper ones' partners
        b1, b2 = _small_norm_pair(RngSpec(39, stream=modes).generator(), modes)
        comp = compose_general(b1, b2)
        assert comp.shape == (2 * modes, 2 * modes)
        sx = _sigma_x(modes) @ comp
        assert max_abs(sx, -sx.T) <= 1e-13
        assert quadratic_hamiltonian(comp).hermitian == (modes == 1)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(_small_norm_pairs())
    def test_group_law_property(self, pair):
        modes, n1, n2, seed = pair
        gen = RngSpec(seed).generator()
        b1, b2 = (_bdg(_with_norm(sample_class_d(modes, 1.0, gen).assembled(), n)) for n in (n1, n2))
        comp = compose_general(b1, b2)
        want = scipy.linalg.expm(b1.assembled()) @ scipy.linalg.expm(b2.assembled())
        assert max_abs(scipy.linalg.expm(comp), want) <= 1e-10
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
        assert max_abs(compose_general(b1, b2), want) < 1e-10


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


def _expm_inputs():
    """(label, matrix) for every kind of input the package gives _expm: the
    zero matrix, multiples of I, hermitian matrices (the normal-ordering
    trial), the logarithms x L x^-1 of _principal_log, and the Fock matrices
    of composed coefficient matrices, commuting and degenerate ones included."""
    gen = RngSpec(70).generator()
    out = [(f"zero {n}", np.zeros((n, n), dtype=complex)) for n in (1, 4, 64)]
    out += [(f"{c} I {n}", c * np.eye(n, dtype=complex)) for c in (0.7, -2.5) for n in (2, 8)]
    for modes in (1, 2, 3):
        h = hermitian_matrix(gen, modes)
        b1, b2 = _small_norm_pair(gen, modes)
        h1, h2 = 0.5 * hermitian_matrix(gen, modes), 0.5 * hermitian_matrix(gen, modes)
        comp = compose_general(b1, b2)
        out += [
            (f"hermitian M={modes}", h),
            (f"general log M={modes}", comp),
            (f"number-conserving log M={modes}", compose_number_conserving(h1, h2)),
            (f"composed Fock M={modes}", quadratic_hamiltonian(comp).matrix),
            (f"composed nc Fock M={modes}", quadratic_hamiltonian(_embedded(compose_number_conserving(h1, h2))).matrix),
        ]
        # commuting compositions, of a degenerate element with itself and of b1 with its multiple
        flat = make_bdg(0.3 * np.eye(modes), np.zeros((modes, modes)))
        half = make_bdg(0.5 * b1.h, 0.5 * b1.delta)
        out += [
            (f"flat with itself M={modes}", quadratic_hamiltonian(compose_general(flat, flat)).matrix),
            (f"b with b/2 M={modes}", quadratic_hamiltonian(compose_general(b1, half)).matrix),
        ]
    for n in (4, 8):  # degenerate and non-normal: y diag(w) y^-1 with repeated real w
        y = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
        out.append((f"degenerate similarity {n}", y @ np.diag(np.repeat([0.4, -1.1], n // 2)) @ np.linalg.inv(y)))
    return out


class TestExpm:
    """gaussian._expm, one eigendecomposition, against scipy.linalg.expm as the oracle."""

    @pytest.mark.parametrize("mat", [pytest.param(mat, id=label) for label, mat in _expm_inputs()])
    def test_matches_scipy_expm(self, mat):
        want = scipy.linalg.expm(mat)
        assert max_abs(_expm(mat), want) <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("compose", [compose_general, compose_number_conserving])
    def test_perturbed_round_trip_raises_branch_cut_error(self, compose, monkeypatch):
        gen = RngSpec(71).generator()
        if compose is compose_general:
            pair = _small_norm_pair(gen, 2)
        else:
            pair = 0.5 * hermitian_matrix(gen, 2), 0.5 * hermitian_matrix(gen, 2)
        compose(*pair)  # the true exponential passes the round trip
        monkeypatch.setattr("fermigauss.gaussian._expm", lambda a: _expm(a) + 1e-8)
        with pytest.raises(BranchCutError, match="round trip failed"):
            compose(*pair)

_ZERO = np.zeros((2, 2))

#: Each public entry point, fed a 2 x 2 block of one non-finite value in one argument.
_NON_FINITE_ENTRIES = {
    "greens_parameterization": greens_parameterization,
    "GreensPair": lambda bad: GreensPair(bad, np.eye(2) - bad),
    "PolarForm": lambda bad: PolarForm(bad[0].real, np.eye(4)),
    "compose_number_conserving": lambda bad: compose_number_conserving(bad, 0.1 * np.eye(2)),
    "compose_general": lambda bad: compose_general(make_bdg(bad, _ZERO), make_bdg(0.1 * np.eye(2), _ZERO)),
    "BdgMatrix": lambda bad: BdgMatrix(_ZERO, bad),
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
