import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from cycledec import complexes, exact_lp
from cycledec import io as fio
from cycledec.complexes import (
    TwoChain,
    TwoComplex,
    VectorField,
    ZeroForm,
    rates_pass,
    boundary1,
    boundary2,
    coboundary0,
    coboundary1,
    field_to_rates,
    harmonic_basis,
    hodge_decompose,
    recover_psi,
)
from cycledec.errors import NoSolution, NotHomologous, TooLarge
from cycledec.exact_lp import exact_rank
from cycledec.ratio import ONE, ZERO, Rat

from conftest import CUBE_FACES, cube_complex, face_indicator, gradient_matrix, rand_rat, vertex_indicator
from oracles import (
    _dual_connected,
    edge_direction,
    face_boundary_matrix,
    field_from_dict,
    in_d_lambda2,
    inner,
    reference_boundary2,
    reference_coboundary0,
    reference_hodge_decompose,
    reference_nonorientable_recover_psi,
    reference_recover_psi,
    reference_validate,
    zero_chain,
    zero_field,
)


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
                if edge_direction(cx, eid) == direction
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
    return cx, field_from_dict(cx, values)


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
        assert boundary1(zero_field(cx)).is_zero()

    def test_divergence_adjoint_identity(self, rng):
        cx = TwoComplex.torus2(3)
        for _ in range(3):
            phi = rand_field(rng, cx)
            for x in cx.vertices:
                pairing = inner(phi, coboundary0(vertex_indicator(cx, x)))
                assert pairing == -boundary1(phi).values[cx.vertex_index[x]]

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
                assert inner(phi, boundary2(face_indicator(cx, g))) == (
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
        assert inner(b1, b2) == ZERO
        assert inner(b1, b1) == 9


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
        assert in_d_lambda2(zero_field(cx))
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
        assert recover_psi(zero_field(cx)).is_zero()

    def test_fig2_band_chain(self):
        cx, phi = fig2_field()
        psi = recover_psi(phi)
        assert set(psi.values) == {ZERO, ONE}
        band_columns = {fid // 10 for fid in range(100) if psi.values[fid] == ONE}
        assert band_columns == {3, 4, 5, 6}

    def test_harmonic_rejected(self):
        cx = TwoComplex.torus2(3)
        with pytest.raises(NotHomologous):
            recover_psi(harmonic_basis(cx)[0])

    def test_round_trip(self, rng):
        for cx in (TwoComplex.torus2(4), cube_complex()):
            for _ in range(5):
                psi = rand_chain(rng, cx)
                phi = boundary2(psi)
                back = recover_psi(phi)
                assert boundary2(back) == phi
                assert back.values[0] == 0
                deltas = {a - b for a, b in zip(back.values, psi.values)}
                assert len(deltas) == 1

    def test_edges_outside_plus_minus_form_rejected(self):
        # a face with open edges, Klein-bottle faces declared orientable, and
        # cube faces declared orientable, though some of them are reversed
        klein = TwoComplex.klein_grid(3, 3)
        reversed_cube = [cycle[::-1] if k % 2 else cycle for k, cycle in enumerate(CUBE_FACES)]
        for cx in (
            TwoComplex.from_face_cycles([("a", "b", "c")], orientable=True),
            TwoComplex.from_face_cycles([("a", "b", "c")], orientable=False),
            TwoComplex(klein.vertices, klein.edges, klein.face_edges, orientable=True),
            TwoComplex.from_face_cycles(reversed_cube, orientable=True),
        ):
            with pytest.raises(ValueError, match=r"not in \(\+1, -1\) form"):
                recover_psi(zero_field(cx))

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


# fixed example sequence and no example database, so every run is the same
EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)

BASE_SURFACES = {
    "torus3": TwoComplex.torus2(3),
    "torus3x4": TwoComplex.torus2(3, 4),
    "klein3": TwoComplex.klein_grid(3, 3),
    "klein3x4": TwoComplex.klein_grid(3, 4),
    "cube": cube_complex(),
}


@st.composite
def surfaces(draw, bases=sorted(BASE_SURFACES), orientable=st.booleans(),
             flips=("none", "all", "some"), most=3):
    """Disjoint unions of one to ``most`` base surfaces in a shuffled face
    order.  Per base, no face, every face or some faces are traversed
    backwards."""
    names = draw(st.lists(st.sampled_from(bases), min_size=1, max_size=most))
    cycles = []
    for k, name in enumerate(names):
        base = BASE_SURFACES[name]
        flip = draw(st.sampled_from(flips))
        for fid in range(base.n_faces):
            cycle = tuple((k, v) for v in base.face_cycle(fid))
            backwards = flip == "all" or flip == "some" and draw(st.booleans())
            cycles.append(cycle[::-1] if backwards else cycle)
    cycles = draw(st.permutations(cycles))
    return TwoComplex.from_face_cycles(cycles, orientable=draw(orientable))


def raised(call, *args):
    """The result of ``call(*args)``, or the type and message it raised."""
    try:
        return call(*args)
    except (ValueError, NotHomologous) as exc:
        return type(exc), str(exc)


class TestOneFaceWalk:
    """The face adjacency walk against the traversals it replaced."""

    @EXAMPLES
    @given(surfaces())
    def test_validate_equals_two_traversals(self, cx):
        expected = raised(reference_validate, cx)
        if not cx.orientable and not _dual_connected(cx):
            # connectivity is now checked before the orientation claim
            expected = ValueError, "face adjacency graph is disconnected"
        assert raised(cx.validate) == expected

    def test_declared_nonorientable_union_of_orientable_surfaces(self):
        cx = TwoComplex.from_face_cycles(
            [tuple((k, v) for v in cycle) for k in range(2) for cycle in CUBE_FACES],
            orientable=False,
        )
        assert raised(reference_validate, cx)[1].endswith("agreeing face orientation exists")
        with pytest.raises(ValueError, match="face adjacency graph is disconnected"):
            cx.validate()

    @EXAMPLES
    @given(surfaces(["torus3", "torus3x4", "cube", "klein3"], st.just(True), ("none", "all"), 2),
           st.data())
    def test_orientable_recovery_equals_stack_walk(self, cx, data):
        chain = data.draw(st.lists(st.integers(-5, 5), min_size=cx.n_faces, max_size=cx.n_faces))
        values = [sum(s * chain[f] for f, s in inc) for inc in cx.edge_faces]
        if data.draw(st.booleans()):
            values[data.draw(st.integers(0, cx.n_edges - 1))] += 1
        den = data.draw(st.integers(1, 4))
        phi = VectorField._exact(cx, values) if den == 1 else VectorField(cx, [Rat(v, den) for v in values])
        got, expected = raised(recover_psi, phi), raised(reference_recover_psi, phi)
        if isinstance(expected, TwoChain):
            assert got.values == expected.values
            assert [type(v) for v in got.values] == [type(v) for v in expected.values]
        else:
            assert got == expected


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"
CHAIN_COMPLEXES = {
    "ring4": TwoComplex.torus1(4),
    "torus3x5": TwoComplex.torus2(3, 5),
    "torus4x3": TwoComplex.torus2(4, 3),
    "klein3x4": TwoComplex.klein_grid(3, 4),
    "cube": cube_complex(),
    "klein.surf": fio.read_surface(SAMPLES / "klein.surf"),
    "cube.surf": fio.read_surface(SAMPLES / "cube.surf"),
}
# zeros, negatives and mixed denominators
EXACT_VALUES = st.one_of(st.integers(-7, 7), st.builds(Rat, st.integers(-7, 7), st.integers(1, 12)))


def assert_operators_equal_the_fraction_references(cx, data):
    """``boundary2`` and ``coboundary0`` on drawn values give the values of
    the ``Rat`` references, every one a ``Rat``, also from int numerators."""
    for kind, size, operator, reference in (
        (TwoChain, cx.n_faces, boundary2, reference_boundary2),
        (ZeroForm, cx.n_vertices, coboundary0, reference_coboundary0),
    ):
        if data.draw(st.booleans()):
            # int numerators, as recover_psi returns them
            ints = data.draw(st.lists(st.integers(-7, 7), min_size=size, max_size=size))
            argument = kind._exact(cx, ints)
        else:
            argument = kind(cx, data.draw(st.lists(EXACT_VALUES, min_size=size, max_size=size)))
        got, expected = operator(argument).values, reference(argument).values
        assert got == expected
        assert {type(v) for v in got} <= {Rat} and {type(v) for v in expected} <= {Rat}


@pytest.mark.parametrize("name", sorted(CHAIN_COMPLEXES))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_chain_operators_equal_the_fraction_references(name, data):
    assert_operators_equal_the_fraction_references(CHAIN_COMPLEXES[name], data)


@EXAMPLES
@given(surfaces(), st.data())
def test_chain_operators_equal_the_fraction_references_on_drawn_surfaces(cx, data):
    assert_operators_equal_the_fraction_references(cx, data)


KLEIN_GRIDS = [TwoComplex.klein_grid(*shape) for shape in ((3, 3), (3, 4), (4, 3), (5, 5))]


@EXAMPLES
@given(st.sampled_from(KLEIN_GRIDS), st.data())
def test_klein_recovery_equals_the_gauss_jordan_reference(cx, data):
    chain = data.draw(st.lists(st.integers(-5, 5), min_size=cx.n_faces, max_size=cx.n_faces))
    den = data.draw(st.integers(1, 4))
    if den == 1:
        values = [sum(s * chain[f] for f, s in inc) for inc in cx.edge_faces]
    else:
        values = boundary2(TwoChain(cx, [Rat(v, den) for v in chain])).values
    if data.draw(st.booleans()):
        values[data.draw(st.integers(0, cx.n_edges - 1))] += 1
    phi = VectorField._exact(cx, values)
    try:
        expected = reference_nonorientable_recover_psi(phi)
    except NotHomologous:
        with pytest.raises(NotHomologous):
            recover_psi(phi)
        return
    got = recover_psi(phi)
    assert got.values == expected.values
    assert {type(v) for v in got.values} == {type(v) for v in expected.values} == {Rat}


def test_only_the_klein_recovery_solves_and_for_one_unknown(monkeypatch, rng):
    systems = []
    real = complexes.solve_exact_linear

    def recording(matrix, rhs):
        systems.append(matrix)
        return real(matrix, rhs)

    monkeypatch.setattr(complexes, "solve_exact_linear", recording)
    torus = TwoComplex.torus2(4, 5)
    recover_psi(boundary2(rand_chain(rng, torus)))
    assert systems == []
    klein = TwoComplex.klein_grid(4, 5)
    psi = rand_chain(rng, klein)
    assert recover_psi(boundary2(psi)) == psi
    (matrix,) = systems
    assert matrix and all(row == [2] for row in matrix)


def test_recovery_on_complexes_validate_rejects():
    # an orientable surface, some faces reversed, declared non-orientable:
    # the chain is pinned at face 0
    cycles = [cycle[::-1] if k % 2 else cycle for k, cycle in enumerate(CUBE_FACES)]
    cx = TwoComplex.from_face_cycles(cycles, orientable=False)
    chain = TwoChain(cx, [Rat(f + 1, 2) for f in range(cx.n_faces)])
    psi = recover_psi(boundary2(chain))
    assert psi.values[0] == 0 and boundary2(psi) == boundary2(chain)
    # two Klein bottles, one complex declared non-orientable
    cycles = [tuple((k, v) for v in KLEIN_GRIDS[0].face_cycle(f))
              for k in range(2) for f in range(KLEIN_GRIDS[0].n_faces)]
    cx = TwoComplex.from_face_cycles(cycles, orientable=False)
    with pytest.raises(NotHomologous, match="face adjacency graph is disconnected"):
        recover_psi(zero_field(cx))


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
            assert parts.gradient + parts.homologous + parts.harmonic == phi
            assert inner(parts.gradient, parts.homologous) == ZERO
            assert inner(parts.gradient, parts.harmonic) == ZERO
            assert inner(parts.homologous, parts.harmonic) == ZERO
            assert in_d_lambda2(parts.homologous)
            again = hodge_decompose(parts.homologous)
            assert again.homologous == parts.homologous
            assert again.gradient.is_zero() and again.harmonic.is_zero()

    def test_torus_above_the_limit_is_refused_before_any_system(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a system was solved")

        monkeypatch.setattr(complexes, "dixon_solve", no_solve)
        cx = TwoComplex.torus2(17, 241)
        assert cx.n_vertices == complexes.HODGE_VERTEX_LIMIT + 1
        # a field without values: reading them would fail with a TypeError
        with pytest.raises(TooLarge, match="complexes.HODGE_VERTEX_LIMIT = 4096"):
            hodge_decompose(VectorField._exact(cx, None))

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
        scale, phi, s = rates_pass(rates, cx)
        assert phi.is_zero()
        assert scale == 3 and s == [2] * cx.n_edges

    def test_single_asymmetric_pair(self):
        cx = TwoComplex.torus2(3)
        rates = {((0, 0), (1, 0)): Rat(3), ((1, 0), (0, 0)): ONE}
        scale, phi, s = rates_pass(rates, cx)
        eid, sign = cx.edge_id((0, 0), (1, 0))
        assert scale == 1 and sign == 1 and phi.values[eid] == 2
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
            scale, phi, s = rates_pass(rates, cx)
            assert all(type(n) is int for n in phi.values + s)
            phi = VectorField(cx, [Rat(n, scale) for n in phi.values])
            minimal = field_to_rates(phi)
            rebuilt = dict(minimal)
            for (u, v), n in zip(cx.edges, s):
                for e in ((u, v), (v, u)):
                    rebuilt[e] = rebuilt.get(e, ZERO) + Rat(n, scale)
            rebuilt = {e: w for e, w in rebuilt.items() if w != 0}
            assert rebuilt == rates
            min_scale, min_phi, _ = rates_pass(minimal, cx)
            assert VectorField(cx, [Rat(n, min_scale) for n in min_phi.values]) == phi
            for u, v in cx.edges:
                assert min(minimal.get((u, v), ZERO), minimal.get((v, u), ZERO)) == ZERO


@st.composite
def torus_fields(draw):
    n1, n2 = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    cx = TwoComplex.torus2(n1, n2)
    value = st.builds(Rat, st.integers(-9, 9), st.integers(1, 12))
    return VectorField(cx, draw(st.lists(value, min_size=cx.n_edges, max_size=cx.n_edges)))


def assert_same_split(got, expected):
    assert got.harmonic_coefficients == expected.harmonic_coefficients
    for part in ("gradient", "homologous", "harmonic"):
        assert getattr(got, part) == getattr(expected, part)
        assert {type(v) for v in getattr(got, part).values} == {Rat}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(torus_fields())
def test_hodge_matches_the_gauss_jordan_reference(phi):
    assert_same_split(hodge_decompose(phi), reference_hodge_decompose(phi))


@pytest.mark.parametrize("shape", [(3, 3), (4, 7), (8, 5)])
def test_hodge_on_small_primes_falls_back_and_lifts_exactly(monkeypatch, rng, shape):
    # 2 divides every vertex degree of the torus, so the first pivot vanishes
    monkeypatch.setattr(exact_lp, "_PRIMES", (2, 97, 101, 103, 107, 109, 113))
    factors, steps = [], []
    real_ldl, real_solve = exact_lp._ldl_mod, exact_lp._solve_mod

    def ldl(rows, plan, p):
        factors.append(real_ldl(rows, plan, p))
        return factors[-1]

    def solve(factor, r, p):
        steps.append(p)
        return real_solve(factor, r, p)

    monkeypatch.setattr(exact_lp, "_ldl_mod", ldl)
    monkeypatch.setattr(exact_lp, "_solve_mod", solve)
    cx = TwoComplex.torus2(*shape)
    phi = VectorField(cx, [Rat(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)) for _ in cx.edges])
    assert_same_split(hodge_decompose(phi), reference_hodge_decompose(phi))
    assert factors[0] is None and factors[-1] is not None
    assert len(steps) >= 5 and steps[0] != 2


def test_dixon_solve_raises_when_every_prime_has_a_zero_pivot(monkeypatch):
    monkeypatch.setattr(exact_lp, "_PRIMES", (2,))
    with pytest.raises(NoSolution):
        exact_lp.dixon_solve([{0: 2, 1: 1}, {0: 1, 1: 2}], [1, 1])


def test_dixon_solve_accepts_only_a_zero_residual(monkeypatch):
    # modulo 97^2 the solution 1000 reconstructs to -45/47, which the
    # residual rejects; 97^4 is the first modulus whose bound reaches 1000
    monkeypatch.setattr(exact_lp, "_PRIMES", (97,))
    candidates = []
    real = exact_lp._reconstruct

    def reconstruct(x, modulus):
        candidates.append(real(x, modulus))
        return candidates[-1]

    monkeypatch.setattr(exact_lp, "_reconstruct", reconstruct)
    assert exact_lp.dixon_solve([{0: 1}], [1000]) == ([1000], 1)
    assert ([-45], 47) in candidates


@pytest.mark.parametrize("shape", [(3, 3), (3, 5), (7, 4), (16, 16)])
def test_torus2_equals_the_validated_construction(shape):
    built = TwoComplex.torus2(*shape)
    validated = TwoComplex(
        built.vertices, built.edges, built.face_edges, orientable=True, name=built.name,
    )
    validated.torus_shape = shape
    assert vars(built) == vars(validated)
    validated.validate()


TORI = [TwoComplex.torus1(n) for n in (3, 5)] + [
    TwoComplex.torus2(*shape) for shape in ((3, 3), (3, 5), (4, 3), (6, 6))
]


@pytest.mark.parametrize("cx", TORI, ids=lambda cx: cx.name)
def test_torus_edge_ids_follow_the_layout(cx):
    """Edge ``eid`` of the d-torus leaves vertex ``eid // d`` one step in
    direction ``eid % d``; ``edge_direction`` and ``harmonic_basis``, which
    read it from the id, agree with the edges' coordinates."""
    shape = cx.torus_shape
    d = len(shape)
    assert cx.n_edges == d * cx.n_vertices
    for eid, (u, v) in enumerate(cx.edges):
        k = eid % d
        assert u == cx.vertices[eid // d]
        assert v == tuple((c + (i == k)) % n for i, (c, n) in enumerate(zip(u, shape)))
    if d == 1:
        return
    n1 = shape[0]
    directions = [0 if v == ((u[0] + 1) % n1, u[1]) else 1 for u, v in cx.edges]
    assert [edge_direction(cx, eid) for eid in range(cx.n_edges)] == directions
    assert [b.values for b in harmonic_basis(cx)] == [
        [ONE if direction == k else ZERO for direction in directions] for k in (0, 1)
    ]


@pytest.mark.parametrize("cx", [TwoComplex.torus1(4), TwoComplex.klein_grid(3, 3), cube_complex()],
                         ids=lambda cx: cx.name)
def test_directions_are_refused_off_the_2_torus(cx):
    for read in (lambda: edge_direction(cx, 0), lambda: harmonic_basis(cx)):
        with pytest.raises(ValueError, match="^direction only defined on the 2-d torus$"):
            read()


@pytest.mark.parametrize("vertices, edges, faces, message", [
    (["a", "b", "a"], [], [], "duplicate vertices"),
    (["a", "b"], [("a", "a")], [], "self-loop at a"),
    (["a", "b"], [("a", "c")], [], r"edge \(a, c\) uses unknown vertex"),
    (["a", "b"], [("a", "b"), ("b", "a")], [], "duplicate edge between b and a"),
    (["a", "b"], [("a", "b")], [[(0, 2)]], r"incidence signs must be \+1 or -1"),
])
def test_complex_construction_checks(vertices, edges, faces, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TwoComplex(vertices, edges, faces, orientable=True)


def test_chain_diagnostics():
    with pytest.raises(ValueError, match="^grid sides must be at least 3$"):
        TwoComplex.klein_grid(2, 5)
    klein = TwoComplex.klein_grid(3, 3)
    with pytest.raises(ValueError, match="^not a torus complex$"):
        klein.torus_dimension()
    with pytest.raises(ValueError, match="^hodge decomposition implemented on the 2-d torus$"):
        hodge_decompose(zero_field(klein))
    with pytest.raises(ValueError, match="^hodge decomposition implemented on the 2-d torus$"):
        hodge_decompose(zero_field(TwoComplex.torus1(3)))
    cx = TwoComplex.torus2(3)
    with pytest.raises(ValueError, match=r"^conflicting values on edge \(\(0, 0\), \(1, 0\)\)$"):
        field_from_dict(cx, {((0, 0), (1, 0)): 1, ((1, 0), (0, 0)): 1})
    assert field_from_dict(cx, {((0, 0), (1, 0)): 1, ((1, 0), (0, 0)): -1}).values[0] == 1
    for other in (zero_field(TwoComplex.torus2(3)), zero_chain(cx)):
        with pytest.raises(ValueError, match="^operands live on different complexes$"):
            zero_field(cx) + other
