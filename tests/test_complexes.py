import pytest

from cycledec.complexes import (
    TwoChain,
    TwoComplex,
    VectorField,
    ZeroForm,
    _field_and_symmetric,
    boundary1,
    boundary2,
    coboundary0,
    coboundary1,
    face_boundary_matrix,
    field_to_rates,
    harmonic_basis,
    hodge_decompose,
    recover_psi,
)
from cycledec.errors import NotHomologous
from cycledec.exact_lp import exact_rank
from cycledec.ratio import ONE, ZERO, Rat

from conftest import cube_complex, face_indicator, gradient_matrix, rand_rat, vertex_indicator
from oracles import in_d_lambda2


def plus_minus_faces(cx, eid):
    """The faces ``(f_plus, f_minus)`` around an agreement-oriented edge."""
    (plus,) = [fid for fid, s in cx.edge_faces[eid] if s == 1]
    (minus,) = [fid for fid, s in cx.edge_faces[eid] if s == -1]
    return plus, minus


def rand_field(rng, cx):
    return VectorField(cx, [rand_rat(rng, -5, 5, 4) for _ in range(cx.n_edges)])


def rand_chain(rng, cx):
    return TwoChain(cx, [rand_rat(rng, -5, 5, 4) for _ in range(cx.n_faces)])


def rand_form(rng, cx):
    return ZeroForm(cx, [rand_rat(rng, -5, 5, 4) for _ in range(cx.n_vertices)])


def torus_boundary_oracle(phi):
    """Explicit torus test for membership in the face-boundary image.

    Zero divergence everywhere plus zero total flux in every coordinate
    direction; on the 1-d torus only the zero field qualifies.
    """
    cx = phi.complex
    if not boundary1(phi).is_zero():
        return False
    if cx.torus_dimension() == 1:
        return phi.is_zero()
    for direction in (0, 1):
        total = sum(
            (
                phi.values[eid]
                for eid in range(cx.n_edges)
                if cx.edge_direction(eid) == direction
            ),
            ZERO,
        )
        if total != 0:
            return False
    return True


def fig2_field(n=10):
    """Two opposite unit columns: up at one x-column, down at another."""
    cx = TwoComplex.torus2(n)
    values = {}
    up, down = (7, 3) if n >= 8 else (3, 1)
    for j in range(n):
        values[((up, j), (up, (j + 1) % n))] = 1
        values[((down, j), (down, (j + 1) % n))] = -1
    return cx, VectorField.from_dict(cx, values)


class TestConstruction:
    def test_torus_counts(self):
        cx = TwoComplex.torus2(3)
        cx.validate()
        assert (cx.n_vertices, cx.n_edges, cx.n_faces) == (9, 18, 9)

    def test_rectangular_torus(self):
        cx = TwoComplex.torus2(3, 5)
        cx.validate()
        assert (cx.n_vertices, cx.n_edges, cx.n_faces) == (15, 30, 15)

    def test_one_dimensional_torus(self):
        cx = TwoComplex.torus1(4)
        assert (cx.n_vertices, cx.n_edges, cx.n_faces) == (4, 4, 0)

    def test_torus_dispatcher(self):
        assert TwoComplex.torus(1, 5).torus_shape == (5,)
        assert TwoComplex.torus(2, 4).torus_shape == (4, 4)

    def test_small_mesh_rejected(self):
        with pytest.raises(ValueError):
            TwoComplex.torus2(2)

    def test_plus_face_above_horizontal_edge(self):
        cx = TwoComplex.torus2(4)
        eid, sign = cx.edge_id((1, 1), (2, 1))
        assert sign == 1
        f_plus, f_minus = plus_minus_faces(cx, eid)
        # chosen faces are indexed by lower-left corner in row-major order
        assert f_plus == 1 * 4 + 1
        assert f_minus == 1 * 4 + 0

    def test_plus_face_left_of_vertical_edge(self):
        cx = TwoComplex.torus2(4)
        eid, _ = cx.edge_id((1, 1), (1, 2))
        f_plus, f_minus = plus_minus_faces(cx, eid)
        assert f_plus == 0 * 4 + 1
        assert f_minus == 1 * 4 + 1

    def test_cube_is_valid_orientable_surface(self):
        cx = cube_complex()
        assert cx.orientable and cx.n_faces == 6 and cx.n_edges == 12

    def test_cube_claimed_nonorientable_rejected(self):
        from conftest import CUBE_FACES

        cx = TwoComplex.from_face_cycles(CUBE_FACES, orientable=False)
        with pytest.raises(ValueError):
            cx.validate()

    def test_klein_grid_is_nonorientable(self):
        cx = TwoComplex.klein_grid(3, 3)
        cx.validate()
        assert not cx.orientable

    def test_klein_claimed_orientable_rejected(self):
        cx = TwoComplex.klein_grid(3, 3)
        cx.orientable = True
        with pytest.raises(ValueError):
            cx.validate()

    def test_dangling_edge_rejected(self):
        cx = TwoComplex.from_face_cycles([("a", "b", "c")], orientable=True)
        with pytest.raises(ValueError):
            cx.validate()


class TestOperators:
    def test_constant_gradient_is_zero(self):
        cx = TwoComplex.torus2(3)
        f = ZeroForm(cx, [Rat(7, 3)] * cx.n_vertices)
        assert coboundary0(f).is_zero()

    def test_indicator_gradient_support(self):
        cx = TwoComplex.torus2(3)
        grad = coboundary0(vertex_indicator(cx, (1, 1)))
        assert sum(1 for v in grad.values if v != 0) == 4

    def test_gradients_are_rotation_free(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(5):
            assert coboundary1(coboundary0(rand_form(rng, cx))).is_zero()

    def test_divergence_of_zero_field(self):
        cx = TwoComplex.torus2(3)
        assert boundary1(VectorField.zero(cx)).is_zero()

    def test_divergence_adjoint_identity(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(3):
            phi = rand_field(rng, cx)
            for x in cx.vertices:
                pairing = phi.inner(coboundary0(vertex_indicator(cx, x)))
                assert pairing == -boundary1(phi).at(x)

    def test_fig2_field_divergence_free(self):
        _, phi = fig2_field()
        assert boundary1(phi).is_zero()

    def test_constant_chain_in_kernel(self):
        cx = TwoComplex.torus2(4)
        psi = TwoChain(cx, [Rat(5, 7)] * cx.n_faces)
        assert boundary2(psi).is_zero()

    def test_face_indicator_boundary(self):
        cx = TwoComplex.torus2(3)
        phi = boundary2(face_indicator(cx, 4))
        assert boundary1(phi).is_zero()
        assert coboundary1(phi).values[4] == 4

    def test_circulation_adjoint_identity(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(3):
            phi = rand_field(rng, cx)
            for g in range(cx.n_faces):
                assert phi.inner(boundary2(face_indicator(cx, g))) == (
                    coboundary1(phi).values[g]
                )

    def test_dd_zero(self, rng):
        for cx in (TwoComplex.torus2(3), cube_complex(), TwoComplex.klein_grid(3, 3)):
            for _ in range(5):
                assert boundary1(boundary2(rand_chain(rng, cx))).is_zero()

    def test_harmonic_basis_properties(self):
        cx = TwoComplex.torus2(3)
        b1, b2 = harmonic_basis(cx)
        for b in (b1, b2):
            assert boundary1(b).is_zero()
            assert coboundary1(b).is_zero()
        assert b1.inner(b2) == ZERO
        assert b1.inner(b1) == 9


class TestMembership:
    def test_fig2_in_image(self):
        _, phi = fig2_field()
        assert in_d_lambda2(phi)

    def test_harmonic_not_in_image(self):
        cx = TwoComplex.torus2(3)
        for b in harmonic_basis(cx):
            assert not in_d_lambda2(b)

    def test_gradient_not_in_image_unless_zero(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(5):
            grad = coboundary0(rand_form(rng, cx))
            assert in_d_lambda2(grad) == grad.is_zero()

    def test_one_dimensional_image_is_zero(self):
        cx = TwoComplex.torus1(4)
        assert in_d_lambda2(VectorField.zero(cx))
        assert not in_d_lambda2(VectorField(cx, [ONE] * 4))

    def test_boundaries_always_in_image(self, rng):
        for cx in (TwoComplex.torus2(3), cube_complex()):
            for _ in range(5):
                assert in_d_lambda2(boundary2(rand_chain(rng, cx)))

    def test_explicit_conditions_agree_with_recovery(self, rng):
        # the explicit torus formula is the oracle for the recovery path
        for cx in (TwoComplex.torus2(3), TwoComplex.torus2(3, 4), TwoComplex.torus1(4)):
            harmonics = harmonic_basis(cx) if cx.torus_dimension() == 2 else [
                VectorField(cx, [ONE] * cx.n_edges)
            ]
            verdicts = set()
            for _ in range(10):
                candidates = [
                    rand_field(rng, cx),
                    boundary2(rand_chain(rng, cx)),
                    boundary2(rand_chain(rng, cx)) + rng.choice(harmonics),
                    boundary2(rand_chain(rng, cx)) + coboundary0(rand_form(rng, cx)),
                ]
                for phi in candidates:
                    explicit = torus_boundary_oracle(phi)
                    assert in_d_lambda2(phi) == explicit
                    verdicts.add(explicit)
            assert verdicts == {True, False}


class TestRecoverPsi:
    def test_zero_field(self):
        cx = TwoComplex.torus2(3)
        assert recover_psi(VectorField.zero(cx)).is_zero()

    def test_fig2_band_chain(self):
        cx, phi = fig2_field()
        psi = recover_psi(phi, base_face=0)
        assert set(psi.values) == {ZERO, ONE}
        band_columns = {fid // 10 for fid in range(100) if psi.values[fid] == ONE}
        assert band_columns == {3, 4, 5, 6}

    def test_harmonic_rejected(self):
        cx = TwoComplex.torus2(3)
        with pytest.raises(NotHomologous):
            recover_psi(harmonic_basis(cx)[0])

    def test_round_trip_and_base_face_shift(self, rng):
        for cx in (TwoComplex.torus2(4), cube_complex()):
            for _ in range(5):
                psi = rand_chain(rng, cx)
                phi = boundary2(psi)
                back = recover_psi(phi)
                assert boundary2(back) == phi
                deltas = {a - b for a, b in zip(back.values, psi.values)}
                assert len(deltas) == 1
                other = recover_psi(phi, base_face=cx.n_faces - 1)
                deltas2 = {a - b for a, b in zip(back.values, other.values)}
                assert len(deltas2) == 1

    def test_edges_outside_plus_minus_form_rejected(self):
        # a face with open edges, and Klein-bottle faces declared orientable
        klein = TwoComplex.klein_grid(3, 3)
        for cx in (
            TwoComplex.from_face_cycles([("a", "b", "c")], orientable=True),
            TwoComplex(klein.vertices, klein.edges, klein.face_edges, orientable=True),
        ):
            with pytest.raises(ValueError, match=r"not in \(\+1, -1\) form"):
                recover_psi(VectorField.zero(cx))

    def test_nonorientable_recovery_unique(self, rng):
        cx = TwoComplex.klein_grid(3, 3)
        for _ in range(5):
            psi = rand_chain(rng, cx)
            phi = boundary2(psi)
            assert recover_psi(phi) == psi

    def test_nonorientable_rejects_non_boundary(self, rng):
        cx = TwoComplex.klein_grid(3, 4)
        grad = coboundary0(rand_form(rng, cx))
        if not grad.is_zero():
            with pytest.raises(NotHomologous):
                recover_psi(grad)


class TestHodge:
    def test_pure_gradient(self, rng):
        cx = TwoComplex.torus2(3)
        grad = coboundary0(rand_form(rng, cx))
        parts = hodge_decompose(grad)
        assert parts.gradient == grad
        assert parts.homologous.is_zero() and parts.harmonic.is_zero()

    def test_pure_harmonic_coefficients(self):
        cx = TwoComplex.torus2(3)
        b1, b2 = harmonic_basis(cx)
        parts = hodge_decompose(b1.scale(3) + b2.scale(2))
        assert parts.harmonic_coefficients == (Rat(3), Rat(2))
        assert parts.gradient.is_zero() and parts.homologous.is_zero()

    def test_random_split_contract(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(5):
            phi = rand_field(rng, cx)
            parts = hodge_decompose(phi)
            assert parts.recompose() == phi
            assert parts.gradient.inner(parts.homologous) == ZERO
            assert parts.gradient.inner(parts.harmonic) == ZERO
            assert parts.homologous.inner(parts.harmonic) == ZERO
            assert in_d_lambda2(parts.homologous)
            again = hodge_decompose(parts.homologous)
            assert again.homologous == parts.homologous
            assert again.gradient.is_zero() and again.harmonic.is_zero()

    def test_dimension_counts(self):
        for n in (3, 4):
            cx = TwoComplex.torus2(n)
            grad_rank = exact_rank(gradient_matrix(cx))
            face_rank = exact_rank(face_boundary_matrix(cx))
            assert grad_rank == n * n - 1
            assert face_rank == n * n - 1
            assert cx.n_edges - grad_rank - face_rank == 2


class TestRatesAndFields:
    def test_symmetric_rates_have_zero_field(self):
        cx = TwoComplex.torus2(3)
        rates = {}
        for u, v in cx.edges:
            rates[(u, v)] = Rat(2, 3)
            rates[(v, u)] = Rat(2, 3)
        scale, phi, s = _field_and_symmetric(rates, cx)
        assert phi.is_zero()
        assert scale == 3 and s == [2] * cx.n_edges

    def test_single_asymmetric_pair(self):
        cx = TwoComplex.torus2(3)
        rates = {((0, 0), (1, 0)): Rat(3), ((1, 0), (0, 0)): ONE}
        scale, phi, s = _field_and_symmetric(rates, cx)
        assert scale == 1 and phi.at((0, 0), (1, 0)) == 2
        eid, _ = cx.edge_id((0, 0), (1, 0))
        assert s[eid] == ONE
        assert [w for i, w in enumerate(s) if i != eid] == [ZERO] * (cx.n_edges - 1)

    def test_decomposition_identity_on_random_rates(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(10):
            rates = {}
            for u, v in cx.edges:
                for e in ((u, v), (v, u)):
                    w = rand_rat(rng, 0, 5, 4)
                    if w > 0:
                        rates[e] = w
            scale, phi, s = _field_and_symmetric(rates, cx)
            assert all(type(n) is int for n in phi.values + s)
            phi = VectorField(cx, [Rat(n, scale) for n in phi.values])
            minimal = field_to_rates(phi)
            rebuilt = dict(minimal)
            for (u, v), n in zip(cx.edges, s):
                for e in ((u, v), (v, u)):
                    rebuilt[e] = rebuilt.get(e, ZERO) + Rat(n, scale)
            rebuilt = {e: w for e, w in rebuilt.items() if w != 0}
            assert rebuilt == rates
            min_scale, min_phi, _ = _field_and_symmetric(minimal, cx)
            assert VectorField(cx, [Rat(n, min_scale) for n in min_phi.values]) == phi
            for u, v in cx.edges:
                assert min(minimal.get((u, v), ZERO), minimal.get((v, u), ZERO)) == ZERO
