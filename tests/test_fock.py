import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import hermitian_matrix, max_abs
from oracles import quadratic_tensor, tuple_normal_ordered_exp

from fermigauss import (
    CapacityError,
    ContractError,
    DomainError,
    FockOperator,
    StructureError,
    build_mode_operators,
    compose_general,
    make_bdg,
    normal_ordered_exp,
    op_exp,
    quadratic_hamiltonian,
    sample_class_d,
    sample_class_d_batch,
    RngSpec,
)
from fermigauss.fock import (
    _annihilators,
    _assembly_plan,
    _normal_ordered_stack,
    _parity_sectors,
    _wick_plan,
    embed_parity_blocks,
    quadratic_hamiltonian_batch,
)


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
        op = FockOperator(2, np.eye(4), hermitian=True)
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


class TestAssemblyPlan:
    # the dense tensor is the oracle: it is built from the mode-operator
    # matrices, the plan from the bit operations alone

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_blocks_match_dense_contraction(self, modes):
        mats = sample_class_d_batch(modes, 1.0, RngSpec(61, stream=modes), 5)
        # a composed element has the particle-hole structure but, from two
        # modes on, is not hermitian
        unit = mats[:2] / np.abs(np.linalg.eigvalsh(mats[:2])).max(axis=-1)[:, None, None]
        b1, b2 = (make_bdg(d[:modes, :modes], d[:modes, modes:]) for d in unit)
        composed = compose_general(b1, b2)
        assert quadratic_hamiltonian(composed).hermitian == (modes == 1)
        mats = np.concatenate([mats, composed[None]])
        dense = 0.5 * np.einsum("skl,klab->sab", mats, quadratic_tensor(modes))
        blocks = quadratic_hamiltonian_batch(mats)
        half = 1 << (modes - 1)
        assert blocks.shape == (6, 2, half, half)
        for parity, states in enumerate(_parity_sectors(modes)):
            assert max_abs(blocks[:, parity], dense[:, states[:, None], states]) <= 1e-15

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_plan_is_half_the_dense_quadratic_tensor_exactly(self, modes):
        sectors = _parity_sectors(modes)
        dense = 0.5 * quadratic_tensor(modes)[:, :, sectors[:, :, None], sectors[:, None, :]]
        assert np.array_equal(_assembly_plan(modes), dense.real.reshape(4 * modes * modes, -1))

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_embedding_is_zero_across_parities(self, modes):
        mats = sample_class_d_batch(modes, 1.0, RngSpec(62, stream=modes), 3)
        full = embed_parity_blocks(quadratic_hamiltonian_batch(mats))
        states = np.arange(1 << modes)
        parity = np.array([int(n).bit_count() & 1 for n in states])
        across = parity[:, None] != parity[None, :]
        assert (full[:, across] == 0).all()
        dense = 0.5 * np.einsum("skl,klab->sab", mats, quadratic_tensor(modes))
        assert max_abs(full, dense) <= 1e-15


class TestWickPlan:
    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_scatter_columns_are_orthogonal_monomials(self, modes):
        # Tr(c_S^dag c_T) = 2^M delta_ST, and each c_S is 2^M entries of modulus
        # 1, scaled by 2^-M: the scatter has orthogonal columns of norm^2 2^-M
        # and every block entry gathers 2^M coordinates, those of its flip pattern
        columns, weights, entries = _wick_plan(modes).scatter
        dim, size = 1 << modes, 1 << (2 * modes - 1)
        assert columns.shape == entries.shape == (dim // 2, dim) and weights.shape == (2, dim // 2, dim, dim)
        # each coordinate is the column of one pattern, and each block entry one
        # (pattern, src): columns of two patterns share no block entry
        for arr in (columns, entries):
            assert np.array_equal(np.sort(arr, axis=None), np.arange(size))
        values = weights[0] + 1j * weights[1]  # (pattern, src, free index)
        assert (np.abs(values) == 1.0 / dim).all()
        gram = np.zeros((size, size), dtype=complex)
        gram[columns[:, :, None], columns[:, None, :]] = np.swapaxes(values.conj(), -1, -2) @ values
        assert np.array_equal(gram, np.eye(size) / dim)

    @pytest.mark.parametrize("modes", [2, 4])
    def test_recursion_expands_along_the_lowest_index(self, modes):
        plan = _wick_plan(modes)
        assert (plan.pair_rows < plan.pair_cols).all()
        assert [level[0].shape[1] for level in plan.levels] == list(range(3, 2 * modes, 2))

    def test_cached_and_read_only(self):
        plan = _wick_plan(3)
        assert _wick_plan(3) is plan
        for arr in (plan.majorana, plan.pair_rows, *plan.scatter, plan.levels[0][0]):
            with pytest.raises(ValueError):
                arr[0] = 0


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

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_matches_spectral_exponential(self, modes):
        gen = RngSpec(14).generator()
        ann = _annihilators(modes)
        for _ in range(17):
            h = hermitian_matrix(gen, modes)
            ham = FockOperator(modes, np.einsum("kba,kl,lbc->ac", ann, h, ann, optimize=True), hermitian=True)
            direct = op_exp(ham)
            ordered = normal_ordered_exp(scipy.linalg.expm(h) - np.eye(modes))
            assert max_abs(direct.matrix, ordered.matrix) < 1e-9

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_matches_the_index_tuple_expansion(self, modes):
        gen = RngSpec(32).generator()
        for _ in range(50):
            bmat = gen.normal(size=(modes, modes)) + 1j * gen.normal(size=(modes, modes))
            want = tuple_normal_ordered_exp(bmat)
            assert max_abs(normal_ordered_exp(bmat).matrix, want) <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_minus_identity_is_the_vacuum_projector(self, modes):
        # :exp(-N): = |0><0|; every off-diagonal minor of -I is singular
        vacuum = np.zeros((1 << modes, 1 << modes))
        vacuum[0, 0] = 1.0
        assert max_abs(normal_ordered_exp(-np.eye(modes)).matrix, vacuum) == 0.0

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_diagonal_is_the_product_over_modes(self, modes):
        # :exp(sum_j x_j n_j): = prod_j (1 + x_j n_j)
        x = RngSpec(modes).generator().normal(size=modes)
        want = np.eye(1 << modes)
        for j, a in enumerate(_annihilators(modes)):
            want = want @ (np.eye(1 << modes) + x[j] * a.T @ a)
        assert max_abs(normal_ordered_exp(np.diag(x)).matrix, want) < 1e-13

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_overflow_is_a_domain_error(self, action):
        # the 2 x 2 minor, 1e320, exceeds the float range; no RuntimeWarning escapes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(DomainError, match="normal_ordered_exp overflows"):
                normal_ordered_exp(np.diag([1e160, 1e160]))
        assert not caught

    def test_large_rank_one_keeps_only_the_linear_term(self):
        # every minor above size 1 of a rank-one matrix is exactly 0, so no product of entries
        # overflows, and the linear term is B's own entries, so the sum is exact
        bmat = 1e200 * np.ones((3, 3))
        ann = _annihilators(3)
        want = np.eye(8) + np.einsum("kba,kl,lbc->ac", ann, bmat, ann)
        out = normal_ordered_exp(bmat).matrix
        assert np.isfinite(out).all()
        assert max_abs(out, want) == 0.0

    @pytest.mark.parametrize("x", [1e200, 3.7])
    def test_one_mode_is_exact(self, x):
        # the k = 0 and k = 1 terms take no determinant: det([[1e200]]) is 1.000000000000022e200
        a = _annihilators(1)[0]
        assert np.array_equal(normal_ordered_exp([[x]]).matrix, np.eye(2) + x * (a.T @ a))

    def test_a_stack_is_its_matrices_one_at_a_time(self):
        gen = RngSpec(33).generator()
        bmats = gen.normal(size=(20, 3, 3)) + 1j * gen.normal(size=(20, 3, 3))
        stack = _normal_ordered_stack(bmats)
        assert all(np.array_equal(stack[k], normal_ordered_exp(bmats[k]).matrix) for k in range(20))

    def test_non_square_rejected(self):
        with pytest.raises(StructureError):
            normal_ordered_exp(np.zeros((2, 3)))
