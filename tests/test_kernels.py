import numpy as np
import pytest
from oracles import (
    axis_table,
    convolve,
    dense_form_eigenvalues,
    direct_convolve,
    direct_potentials,
    kernel_value,
    pair_table,
    quadratic_form,
)
from scipy.special import erf

from crossfv import (
    ConfigurationError,
    Extension,
    Gaussian,
    KernelSpec,
    MeshSpec,
    TopHat,
    build_mesh,
    c_star,
    check_psd,
    discretize,
    small_mass_threshold,
)
from crossfv.kernels import sup_norm
from crossfv.scheme import Coupling, coupled

RNG = np.random.default_rng(1234)


def unit_mesh(m, d=1):
    """Unit cube mesh with m cells per axis, or the cell counts m as a tuple."""
    cells = m if isinstance(m, tuple) else (m,) * d
    return build_mesh(MeshSpec(extents=((0.0, 1.0),) * len(cells), cells_per_axis=cells))


def single_species(shape, strength=1.0, extension=Extension.PERIODIC_WRAP):
    return KernelSpec(strengths=np.array([[strength]]), shape=shape, extension=extension)


def shape_id(shape) -> str:
    """The shape's class and width, e.g. Gaussian(eps=0.3), as a test id."""
    width = "eps" if isinstance(shape, Gaussian) else "radius"
    return f"{type(shape).__name__}({width}={getattr(shape, width)})"


# ---------------------------------------------------------------------------
# discretize


def test_constant_kernel_averages_to_constant():
    # Top-hat with R = 1/2 covers the whole unit torus: W == alpha/(2R) == 1.
    mesh = unit_mesh(8)
    kernel = discretize(single_species(TopHat(radius=0.5)), mesh)
    assert np.allclose(pair_table(kernel, 0, 0), 1.0, rtol=0, atol=1e-14)


def test_constant_kernel_2d():
    mesh = unit_mesh(4, d=2)
    kernel = discretize(single_species(TopHat(radius=0.5), strength=3.0), mesh)
    assert np.allclose(pair_table(kernel, 0, 0), 3.0, rtol=0, atol=1e-13)


def _band_area(t1, t2, dx):
    """Area of {(x, y) in [0,dx]^2 : t1 <= x - y <= t2} via the CDF of x - y."""

    def cdf(t):
        if t <= -dx:
            return 0.0
        if t <= 0:
            return (t + dx) ** 2 / 2.0
        if t <= dx:
            return dx * dx - (dx - t) ** 2 / 2.0
        return dx * dx

    return cdf(t2) - cdf(t1)


def test_tophat_exact_against_band_area_oracle():
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(8,)))
    radius = 0.3
    kernel = discretize(single_species(TopHat(radius=radius), strength=2.0), mesh)
    dx = mesh.dx[0]
    length = 1.0
    norm = 2.0 / (2.0 * radius)
    for delta in range(8):
        c = delta * dx
        expected = 0.0
        for img in (-length, 0.0, length):
            expected += _band_area(-radius - (c + img), radius - (c + img), dx) / dx**2
        assert pair_table(kernel, 0, 0)[delta] == pytest.approx(norm * expected, rel=1e-14)


def test_gaussian_quadrature_matches_higher_order():
    # Default-order tables agree with the order q+4 oracle, and the gap
    # collapses fast under refinement (high-order quadrature on smooth data).
    def gap(m):
        mesh = build_mesh(MeshSpec(extents=((-2.0, 2.0),), cells_per_axis=(m,)))
        tables = []
        for q in (4, 8):
            shape = Gaussian(eps=0.7, quadrature_order=q)
            spec = single_species(shape, extension=Extension.WHOLE_SPACE)
            tables.append(pair_table(discretize(spec, mesh), 0, 0))
        return np.max(np.abs(tables[0] - tables[1])) / np.max(np.abs(tables[1]))

    g16, g32 = gap(16), gap(32)
    assert g32 <= 5e-13
    assert g16 / g32 >= 50


def test_gaussian_cell_average_is_second_order_in_h():
    # |w[delta] - W(x_K - x_J)| = O(h^2): the max error drops 4x per refinement.
    eps = 0.5

    def max_midpoint_error(m):
        mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(m,)))
        kernel = discretize(
            single_species(Gaussian(eps=eps, quadrature_order=6), extension=Extension.WHOLE_SPACE),
            mesh,
        )
        table = pair_table(kernel, 0, 0)
        deltas = np.arange(-(m - 1), m) * mesh.dx[0]
        exact = np.exp(-(deltas**2) / (2 * eps**2)) / np.sqrt(2 * np.pi * eps**2)
        return np.max(np.abs(table - exact))

    e1, e2 = max_midpoint_error(16), max_midpoint_error(32)
    assert 3.2 <= e1 / e2 <= 4.8


def test_row_sum_matches_torus_integral_tophat():
    mesh = unit_mesh(16)
    kernel = discretize(single_species(TopHat(radius=0.3), strength=2.0), mesh)
    row = mesh.cell_measure * pair_table(kernel, 0, 0).sum()
    assert row == pytest.approx(2.0, rel=1e-13)


def test_row_sum_matches_torus_integral_gaussian():
    # The image-summed periodized Gaussian integrates over one period to the
    # whole-line integral, i.e. the strength itself. The width is small enough
    # that quadrature resolves the profile.
    eps, alpha = 0.06, 1.5
    mesh = unit_mesh(64)
    kernel = discretize(single_species(Gaussian(eps=eps, quadrature_order=8), strength=alpha), mesh)
    row = mesh.cell_measure * pair_table(kernel, 0, 0).sum()
    assert row == pytest.approx(alpha, rel=1e-11)


def test_discrete_symmetry_exact():
    # W_KJ^{ij} = W_JK^{ji}: KernelSpec requires alpha_ij = alpha_ji exactly,
    # and the unit-strength table is exactly mirror-symmetric, w[d] = w[-d].
    strengths = np.array([[2.0, -1.0], [-1.0, 0.5]])
    for cells in ((12,), (12, 7)):
        mesh = unit_mesh(cells)
        for extension in Extension:
            spec = KernelSpec(strengths=strengths, shape=Gaussian(eps=0.8), extension=extension)
            kernel = discretize(spec, mesh)
            assert np.array_equal(kernel.spec.strengths, kernel.spec.strengths.T)
            mirrored = np.flip(kernel.table)
            if extension is Extension.PERIODIC_WRAP:
                mirrored = np.roll(mirrored, 1, axis=tuple(range(mesh.dim)))
            assert np.array_equal(kernel.table, mirrored)


@pytest.mark.parametrize("m", [2, 3, 7, 16, 500, 2048])
def test_axis_factors_bitwise_equal_per_offset_oracle(m):
    # On a domain of length 2 the top-hat of radius 2.5 is wider than the
    # domain, so its periodic image sum has overlapping images.
    mesh = build_mesh(MeshSpec(extents=((-1.0, 1.0),), cells_per_axis=(m,)))
    for shape in (Gaussian(eps=0.3), Gaussian(eps=0.02), TopHat(radius=0.3), TopHat(radius=2.5)):
        for extension in Extension:
            factor = discretize(single_species(shape, extension=extension), mesh).axis_factors[0]
            expected = axis_table(shape, mesh, 0, extension)
            assert factor.tobytes() == expected.tobytes(), (shape, extension)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        KernelSpec(strengths=np.array([[1.0, 2.0], [3.0, 1.0]]), shape=Gaussian(eps=1.0))
    with pytest.raises(ConfigurationError):
        KernelSpec(strengths=np.eye(2), shape=[[Gaussian(eps=1.0)] * 2] * 2)
    with pytest.raises(ConfigurationError):
        Gaussian(eps=0.0)
    with pytest.raises(ConfigurationError):
        TopHat(radius=-1.0)


# ---------------------------------------------------------------------------
# convolve


def test_identity_convolution():
    mesh = unit_mesh(8)
    w = np.zeros(8)
    w[0] = 1.0 / mesh.cell_measure
    f = RNG.normal(size=8)
    for g in (convolve(w, f, mesh), direct_convolve(w, f, mesh)):
        assert np.allclose(g, f, rtol=0, atol=1e-13)


def test_constant_field_row_sum():
    mesh = unit_mesh(8)
    w = RNG.normal(size=8)
    f = np.ones(8)
    for g in (convolve(w, f, mesh), direct_convolve(w, f, mesh)):
        assert np.allclose(g, mesh.cell_measure * w.sum(), rtol=1e-13)


# Grids that are not powers of two (6, 500, 12 x 10) use the same FFT path.
NON_POW2 = [(6, 1), (500, 1), pytest.param((12, 10), 2, id="12x10-2")]


@pytest.mark.parametrize("m,d", [(8, 1), (64, 1), (8, 2), (16, 2)] + NON_POW2)
def test_fast_matches_direct_circular(m, d):
    mesh = unit_mesh(m, d=d)
    w = RNG.normal(size=mesh.shape)
    f = RNG.normal(size=mesh.shape)
    fast = convolve(w, f, mesh)
    direct = direct_convolve(w, f, mesh)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(fast - direct)) <= 1e-14 * max(scale, 1.0)


@pytest.mark.parametrize("m,d", [(8, 1), (32, 1), (8, 2)] + NON_POW2)
def test_fast_matches_direct_linear(m, d):
    mesh = unit_mesh(m, d=d)
    w = RNG.normal(size=tuple(2 * s - 1 for s in mesh.shape))
    f = RNG.normal(size=mesh.shape)
    fast = convolve(w, f, mesh, extension=Extension.WHOLE_SPACE)
    direct = direct_convolve(w, f, mesh, extension=Extension.WHOLE_SPACE)
    scale = max(float(np.max(np.abs(direct))), 1.0)
    assert np.max(np.abs(fast - direct)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# potentials


def two_species_kernel(mesh, extension=Extension.PERIODIC_WRAP, shape=None):
    shape = shape or Gaussian(eps=0.6)
    strengths = np.array([[1.0, 0.5], [0.5, 2.0]])
    return discretize(
        KernelSpec(strengths=strengths, shape=shape, extension=extension), mesh
    )


def test_potential_of_constants_is_constant():
    mesh = unit_mesh(16)
    kernel = two_species_kernel(mesh)
    c = np.array([2.0, 3.0])
    fields = np.stack([np.full(mesh.shape, c[0]), np.full(mesh.shape, c[1])])
    p = kernel.potentials(fields)
    for i in range(2):
        assert np.max(np.abs(p[i] - p[i].flat[0])) <= 1e-12 * abs(p[i].flat[0])
        expected = sum(
            mesh.cell_measure * pair_table(kernel, i, j).sum() * c[j] for j in range(2)
        )
        assert p[i].flat[0] == pytest.approx(expected, rel=1e-12)


def test_zero_kernel_gives_zero_potential():
    mesh = unit_mesh(8)
    kernel = discretize(
        KernelSpec(strengths=np.zeros((2, 2)), shape=Gaussian(eps=1.0)), mesh
    )
    fields = RNG.random(size=(2,) + mesh.shape)
    assert np.all(kernel.potentials(fields) == 0)


def test_point_mass_reads_off_table():
    mesh = unit_mesh(16)
    kernel = discretize(single_species(Gaussian(eps=0.5)), mesh)
    fields = np.zeros((1,) + mesh.shape)
    j0 = 5
    fields[0, j0] = 1.0
    p = kernel.potentials(fields)
    for k in range(16):
        expected = mesh.cell_measure * pair_table(kernel, 0, 0)[(k - j0) % 16]
        assert p[0, k] == pytest.approx(expected, rel=1e-12, abs=1e-300)


MIXED_STRENGTHS = {
    1: np.array([[-1.5]]),
    2: np.array([[1.0, -0.7], [-0.7, 2.0]]),
    3: np.array([[2.0, -0.5, 0.3], [-0.5, -1.0, 0.8], [0.3, 0.8, 0.4]]),
}


@pytest.mark.parametrize("n", sorted(MIXED_STRENGTHS))
@pytest.mark.parametrize("extension", list(Extension))
@pytest.mark.parametrize("shape", [Gaussian(eps=0.3), TopHat(radius=0.2)], ids=shape_id)
@pytest.mark.parametrize("cells", [(24,), (500,), (12, 10)], ids=str)
def test_potentials_match_direct_oracle(cells, shape, extension, n):
    # The bound is relative to the oracle on |alpha| and |fields|, the
    # size of the sums before any cancellation.
    mesh = unit_mesh(cells)
    strengths = MIXED_STRENGTHS[n]
    rng = np.random.default_rng(n)
    fields = rng.normal(size=(n,) + mesh.shape)
    kernel = discretize(KernelSpec(strengths=strengths, shape=shape, extension=extension), mesh)
    absolute = discretize(
        KernelSpec(strengths=np.abs(strengths), shape=shape, extension=extension), mesh
    )
    scale = float(np.max(direct_potentials(absolute, np.abs(fields))))
    gap = np.max(np.abs(kernel.potentials(fields) - direct_potentials(kernel, fields)))
    assert gap <= 1e-14 * scale


def test_potentials_one_transform_pair(monkeypatch):
    # The species are mixed by alpha first, so one batched forward and one
    # inverse transform serve every species.
    calls = []
    for name in ("rfftn", "irfftn"):

        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    mesh = unit_mesh(16)
    fields = RNG.random(size=(3,) + mesh.shape)
    for extension in Extension:
        spec = KernelSpec(MIXED_STRENGTHS[3], Gaussian(eps=0.3), extension=extension)
        kernel = discretize(spec, mesh)
        kernel.potentials(fields)  # computes and caches the table's spectrum
        calls.clear()
        kernel.potentials(fields)
        assert sorted(calls) == ["irfftn", "rfftn"]


def test_midpoint_potential_reductions():
    mesh = unit_mesh(8)
    kernel = two_species_kernel(mesh)
    u = RNG.random(size=(2,) + mesh.shape)
    v = RNG.random(size=(2,) + mesh.shape)
    # The mid-point rule on potentials is W*((u + v)/2), by linearity of W;
    # the implicit rule is W*u itself.
    p_u, p_v = kernel.potentials(u), kernel.potentials(v)
    assert coupled(p_u, p_v, Coupling.IMPLICIT) is p_u
    same = coupled(p_u, p_u, Coupling.MIDPOINT)
    assert np.allclose(same, kernel.potentials(u), rtol=1e-14)
    half = coupled(p_u, kernel.potentials(np.zeros_like(u)), Coupling.MIDPOINT)
    assert np.allclose(half, kernel.potentials(0.5 * u), rtol=1e-14)
    mid = coupled(p_u, p_v, Coupling.MIDPOINT)
    direct = kernel.potentials(0.5 * (u + v))
    assert np.allclose(mid, direct, rtol=1e-12, atol=1e-14)


def test_differentiation_rule_periodic():
    # D_l (W * u) = W * (D_l u) for periodic kernels, every signed axis.
    # The narrow kernel keeps the potential differences well away from zero.
    mesh = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(8, 8)))
    kernel = two_species_kernel(mesh, shape=Gaussian(eps=0.12))
    u = RNG.random(size=(2,) + mesh.shape)
    p = kernel.potentials(u)
    for axis in range(2):
        for sign in (+1, -1):
            shift = -sign
            dp = np.stack([np.roll(p[i], shift, axis=axis) - p[i] for i in range(2)])
            du = np.stack([np.roll(u[j], shift, axis=axis) - u[j] for j in range(2)])
            rhs = kernel.potentials(du)
            scale = max(float(np.max(np.abs(dp))), 1e-30)
            assert np.max(np.abs(dp - rhs)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# PSD check


def brute_force_min_quadratic(kernel, n_samples=1000, seed=7):
    rng = np.random.default_rng(seed)
    mesh = kernel.mesh
    n = kernel.n_species
    m = mesh.cell_measure
    cells = list(np.ndindex(mesh.shape))
    best = np.inf
    samples = [rng.normal(size=(n,) + mesh.shape) for _ in range(n_samples)]
    samples.append(np.ones((n,) + mesh.shape))
    for v in samples:
        q = 0.0
        for i in range(n):
            for j in range(n):
                for ck in cells:
                    for cj in cells:
                        w = kernel_value(kernel, i, j, ck, cj)
                        q += m * m * w * v[(i,) + ck] * v[(j,) + cj]
        norm = float(np.sum(v * v))
        best = min(best, q / norm)
    return best


def test_psd_zero_kernel():
    mesh = unit_mesh(8)
    kernel = discretize(
        KernelSpec(strengths=np.zeros((1, 1)), shape=Gaussian(eps=1.0)), mesh
    )
    report = check_psd(kernel)
    assert report.is_psd
    assert report.min_eigenvalue == 0.0


def test_psd_gaussian_pair():
    mesh = unit_mesh(64)
    spec = KernelSpec(
        strengths=np.array([[10.0, 5.0], [5.0, 3.0]]), shape=Gaussian(eps=1.0)
    )
    report = check_psd(discretize(spec, mesh))
    assert report.is_psd


def test_psd_gaussian_pair_whole_space():
    mesh = unit_mesh(32)
    spec = KernelSpec(
        strengths=np.array([[10.0, 5.0], [5.0, 3.0]]),
        shape=Gaussian(eps=1.0),
        extension=Extension.WHOLE_SPACE,
    )
    report = check_psd(discretize(spec, mesh))
    assert report.is_psd


def test_attractive_tophat_not_psd():
    mesh = build_mesh(MeshSpec(extents=((-10.0, 10.0),), cells_per_axis=(128,)))
    kernel = discretize(single_species(TopHat(radius=1.0), strength=-1.0), mesh)
    report = check_psd(kernel)
    assert not report.is_psd
    assert report.min_eigenvalue < 0


@pytest.mark.parametrize(
    "strength,shape",
    [(-1.0, TopHat(radius=1.0)), (1.0, Gaussian(eps=1.0))],
)
def test_psd_sign_agrees_with_brute_force(strength, shape):
    mesh = build_mesh(MeshSpec(extents=((-2.0, 2.0),), cells_per_axis=(16,)))
    kernel = discretize(single_species(shape, strength=strength), mesh)
    report = check_psd(kernel)
    sampled = brute_force_min_quadratic(kernel, n_samples=100)
    if report.is_psd:
        assert sampled >= -1e-10
    else:
        assert sampled < 0


STRENGTHS = {
    "psd": np.array([[2.0, 1.0, 0.5], [1.0, 1.5, 0.2], [0.5, 0.2, 1.0]]),
    "indefinite": np.array([[1.0, 2.0], [2.0, 0.5]]),
    "negative": np.array([[-1.0, -0.3], [-0.3, -2.0]]),
    "zero": np.zeros((2, 2)),
}


@pytest.mark.parametrize("extension", list(Extension))
@pytest.mark.parametrize("shape", [Gaussian(eps=0.4), TopHat(radius=0.3)], ids=shape_id)
@pytest.mark.parametrize("cells", [(24,), (8, 6)], ids=str)
def test_check_psd_matches_dense_oracle(extension, shape, cells):
    # The Kronecker factorization gives the dense form's verdict and its
    # smallest eigenvalue (of m(K) W, on both extensions) to round-off.
    extents = ((0.0, 1.5), (-1.0, 1.0))[: len(cells)]
    mesh = build_mesh(MeshSpec(extents=extents, cells_per_axis=cells))
    for strengths in STRENGTHS.values():
        spec = KernelSpec(strengths=strengths, shape=shape, extension=extension)
        kernel = discretize(spec, mesh)
        report = check_psd(kernel)
        eigs = dense_form_eigenvalues(kernel)
        scale = max(1.0, float(np.abs(eigs).max()))
        assert abs(report.min_eigenvalue - eigs.min()) <= 1e-12 * scale
        assert report.is_psd == bool(eigs.min() >= -1e-12 * scale)


def test_quadratic_form_matches_brute_force():
    mesh = unit_mesh(8)
    kernel = two_species_kernel(mesh)
    v = RNG.normal(size=(2,) + mesh.shape)
    direct = 0.0
    m = mesh.cell_measure
    for i in range(2):
        for j in range(2):
            for ck in np.ndindex(mesh.shape):
                for cj in np.ndindex(mesh.shape):
                    w = kernel_value(kernel, i, j, ck, cj)
                    direct += m * m * w * v[(i,) + ck] * v[(j,) + cj]
    assert quadratic_form(kernel, v) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# c*


def test_c_star_zero_data():
    mesh = unit_mesh(8)
    spec = single_species(TopHat(radius=0.25))
    assert c_star(spec, np.zeros((1,) + mesh.shape), mesh) == 0.0


def test_c_star_unit_mass_tophat():
    mesh = build_mesh(MeshSpec(extents=((-10.0, 10.0),), cells_per_axis=(500,)))
    spec = single_species(TopHat(radius=1.0), strength=-1.0)
    u0 = np.zeros((1,) + mesh.shape)
    # unit mass: 25 cells of width 0.04 at height 1.0
    u0[0, 100:125] = 1.0
    assert mesh.cell_measure * u0.sum() == pytest.approx(1.0, rel=1e-14)
    assert c_star(spec, u0, mesh) == pytest.approx(0.5, rel=1e-12)


def test_c_star_two_species_matches_direct_evaluation():
    mesh = build_mesh(MeshSpec(extents=((-4.0, 4.0),), cells_per_axis=(64,)))
    strengths = np.array([[-2.0, 0.5], [0.5, -1.0]])
    spec = KernelSpec(strengths=strengths, shape=TopHat(radius=1.0))
    u0 = np.stack(
        [np.full(mesh.shape, 0.25), np.full(mesh.shape, 0.125)]
    )  # masses 2 and 1
    masses = mesh.cell_measure * u0.reshape(2, -1).sum(axis=1)
    sup = 1.0 / 2.0  # |alpha|/(2R) with R=1 and support inside the domain
    expected = max(
        sum(abs(strengths[i, j]) * sup * masses[i] for i in range(2)) for j in range(2)
    )
    assert c_star(spec, u0, mesh) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "radius,count", [(0.25, 1), (0.5, 1), (0.5 + 1e-6, 2), (1.2, 3)]
)
def test_periodic_tophat_sup_counts_overlapping_images(radius, count):
    # On a unit torus the images of [-R, R] overlap ceil(2R)-fold on a set
    # of measure 2R - floor(2R) > 0, so that is the essential sup.
    shape = TopHat(radius=radius)
    mesh = unit_mesh(16)
    assert sup_norm(shape, Extension.PERIODIC_WRAP, mesh) == count * shape.normalization
    mesh_2d = unit_mesh(4, d=2)
    assert sup_norm(shape, Extension.PERIODIC_WRAP, mesh_2d) == count**2 * shape.normalization
    u0 = np.ones((1,) + mesh.shape)  # unit mass
    assert c_star(single_species(shape, strength=-2.0), u0, mesh) == (
        2.0 * count * shape.normalization
    )


def test_small_mass_threshold_value():
    # kappa (1-alpha)^2 / (4 (alpha(1-alpha) + 1)) at alpha = 1/2
    assert small_mass_threshold(0.01, 0.5) == pytest.approx(0.01 * 0.25 / (4 * 1.25))
