import numpy as np
import pytest

from spectrosens import adiabatic, fcs
from spectrosens.errors import FitResidualExceeded
from spectrosens.params import from_config, stack
from spectrosens.pipeline import evaluate_point
from stencils import hessian, richardson


def test_stationary_probabilities():
    params = from_config({"rate_a_mhz": 3e-4, "rate_b_mhz": 1e-4})
    p_a, p_b = adiabatic.stationary_probabilities(params)
    assert p_a == pytest.approx(0.75)
    assert p_b == pytest.approx(0.25)
    assert adiabatic.reaction_time(params) == pytest.approx(
        1.0 / (params.molecule.rate_a + params.molecule.rate_b))


def test_conditioned_cross_sections(default_params):
    mol, der = default_params.molecule, default_params.derived
    s_plus, s_minus = adiabatic.conditioned_cross_sections(default_params, "A")
    denom = 4 * mol.detuning_a**2 + mol.decay_gamma**2
    assert s_plus == pytest.approx(0.5 * mol.decay_gamma * der.beta_sq_a / denom)
    assert s_minus == pytest.approx(mol.detuning_a * der.beta_sq_a / denom)
    # dark state: no dipole, no cross section
    assert adiabatic.conditioned_cross_sections(default_params, "B") == (0, 0)
    with pytest.raises(ValueError):
        adiabatic.conditioned_cross_sections(default_params, "C")


def test_phase_cross_section_extremal_at_half_gamma():
    """S_minus(eps) = eps * beta^2 / (4 eps^2 + gamma^2) peaks at gamma/2."""
    gamma_mhz = 10.0
    values = {}
    for eps in (4.0, 5.0, 6.0):
        params = from_config({"detuning_a_mhz": eps, "gamma_mhz": gamma_mhz})
        values[eps] = adiabatic.conditioned_cross_sections(params, "A")[1]
    assert values[5.0] > values[4.0]
    assert values[5.0] > values[6.0]


def test_effective_cross_sections_are_weighted(default_params):
    p_a, _ = adiabatic.stationary_probabilities(default_params)
    s_cond = adiabatic.conditioned_cross_sections(default_params, "A")
    s_eff = adiabatic.effective_cross_sections(default_params)
    assert s_eff[0] == pytest.approx(p_a * s_cond[0], rel=1e-12)
    assert s_eff[1] == pytest.approx(p_a * s_cond[1], rel=1e-12)


@pytest.mark.parametrize("config", [
    {}, {"detuning_a_mhz": 100.0}, {"rate_a_mhz": 1e-6, "rate_b_mhz": 3e-6}])
def test_weak_field_expansion_is_the_composed_rate(config):
    """The closed-form expansion is the weak-field composition at every flux
    up to roundoff, and within 1e-3 of the exact composition at J0."""
    params = from_config(config)
    j0 = params.derived.photon_flux_j0
    s_plus, s_minus, exp = adiabatic.weak_field_expansion(params)
    assert (s_plus, s_minus) == adiabatic.effective_cross_sections(params)
    assert exp.fit_residual == 0.0
    for J in (j0 / 10, j0 / 2, j0):
        closed = exp.D1 * J + 0.5 * exp.D2 * J**2
        weak = adiabatic.adiabatic_rate(params, J, method="weak_field")
        assert np.max(np.abs(closed - weak)) <= 1e-12 * np.max(np.abs(weak))
    exact = adiabatic.adiabatic_rate(params, j0, method="exact")
    assert np.max(np.abs(closed - exact)) <= 1e-3 * np.max(np.abs(exact))


def test_weak_field_expansion_beyond_float_range_is_typed():
    """At a detuning whose square overflows, the Lorentzians saturate to
    zero instead of raising OverflowError, and the expansion, whose
    curvature is then undefined, raises a ModelError.  As in the pipeline,
    the saturating arithmetic runs without floating-point warnings."""
    params = from_config({"detuning_a_mhz": 1e300})
    with np.errstate(all="ignore"):
        assert adiabatic.effective_cross_sections(params) == (0.0, 0.0)
        with pytest.raises(FitResidualExceeded):
            adiabatic.weak_field_expansion(params)


def test_weak_field_curvature_matches_exact(default_params):
    """The weak-field closed-form curvature reproduces the exact
    conditioned eigenvalue curvature at weak drive.  At very small flux the
    finite-difference curvature loses relative accuracy (the eigenvalue's
    counting-field dependence scales with the flux while the generator norm
    does not), so the comparison is made at 1% of the reference flux where
    saturation corrections are still below 1%."""
    J = default_params.derived.photon_flux_j0 * 1e-2
    weak = adiabatic._curvature_weak_field(
        adiabatic._constants(default_params),
        J / default_params.derived.photon_flux_j0)[0]
    fun = lambda a, b: adiabatic.conditioned_cgf(default_params, "A", a, b, J)
    exact = richardson(hessian, fun, 1e-3)
    assert np.max(np.abs(weak - exact)) < 1e-2 * np.max(np.abs(exact))


def test_conditioned_rate_linear_coefficient_is_2s_plus(default_params):
    """Weak-field conditioned diffusion: both +/- combinations have linear
    flux coefficient exactly twice the absorption cross section.  The table
    rate is an exact quadratic in the flux, so one Richardson step removes
    the quadratic part to machine precision."""
    J = default_params.derived.photon_flux_j0 * 1e-3
    g = lambda j: adiabatic.conditioned_rate(default_params, "A", j,
                                             method="weak_field") / j
    d1 = 2 * g(J / 2) - g(J)
    s_plus, _ = adiabatic.conditioned_cross_sections(default_params, "A")
    vp, vm = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    assert vp @ d1 @ vp == pytest.approx(2 * s_plus, rel=1e-12)
    assert vm @ d1 @ vm == pytest.approx(2 * s_plus, rel=1e-12)


def _table_curvature(params, state, J):
    """The weak-field curvature from the table of characteristic-polynomial
    coefficients of the conditioned tilted generator (counting order)."""
    rabi, eps = {"A": (params.derived.rabi_a, params.molecule.detuning_a),
                 "B": (params.derived.rabi_b, params.molecule.detuning_b)}[state]
    gamma = params.molecule.decay_gamma
    om_sq = rabi**2 * (J / params.derived.photon_flux_j0)
    a0_k = {1: -1j * (gamma / 8.0 - eps / 4.0) * om_sq,
            2: -1j * (gamma / 8.0 + eps / 4.0) * om_sq}
    a0_kl = {(1, 1): gamma * om_sq / 8.0, (2, 2): gamma * om_sq / 8.0,
             (1, 2): 0.0, (2, 1): 0.0}
    a1 = eps**2 + gamma**2 / 4.0
    a1_k = {1: -1j * om_sq / 4.0, 2: -1j * om_sq / 4.0}
    a2 = eps**2 / gamma + 1.25 * gamma
    out = np.zeros((2, 2))
    for k in (1, 2):
        for l in (1, 2):
            value = (a0_kl[(k, l)] / a1
                     + 2.0 * a2 * a0_k[k] * a0_k[l] / a1**3
                     - (a0_k[k] * a1_k[l] + a0_k[l] * a1_k[k]) / a1**2)
            out[k - 1, l - 1] = value.real
    return out


@pytest.mark.parametrize("state", "AB")
@pytest.mark.parametrize("eps_mhz", [-40.0, 0.0, 40.0])
@pytest.mark.parametrize("flux", [1e-3, 1.0])
def test_weak_field_closed_form_matches_table(state, eps_mhz, flux):
    params = from_config({"dipole_b_debye": 0.6, "detuning_a_mhz": eps_mhz,
                          "detuning_b_mhz": eps_mhz})
    J = flux * params.derived.photon_flux_j0
    closed = adiabatic._curvature_weak_field(
        adiabatic._constants(params),
        J / params.derived.photon_flux_j0)["AB".index(state)]
    table = _table_curvature(params, state, J)
    assert np.max(np.abs(closed - table)) <= 1e-14 * np.max(np.abs(table))


def test_chemical_term_is_two_state_curvature():
    """The weak-field telegraph term 2 t_R p_A p_B dS dS^T is the curvature
    of the top eigenvalue of the two-state generator whose state-resolved
    generating rates are K_state(s) = s . c1_state."""
    params = from_config({"rate_a_mhz": 3e-4, "rate_b_mhz": 1e-4,
                          "dipole_b_debye": 0.6, "detuning_b_mhz": -15.0})
    r_a, r_b = params.molecule.rate_a, params.molecule.rate_b
    J = params.derived.photon_flux_j0
    c1 = adiabatic._statistics(params, J, "weak_field")[0]

    def top(s1, s2):
        s = np.stack([s1, s2], axis=-1)
        k_a, k_b = s @ c1[0], s @ c1[1]
        generator = np.empty(k_a.shape + (2, 2))
        generator[..., 0, 0], generator[..., 0, 1] = k_a - r_b, r_a
        generator[..., 1, 0], generator[..., 1, 1] = r_b, k_b - r_a
        return np.max(np.linalg.eigvals(generator).real, axis=-1)

    h = 1e-2 * (r_a + r_b) / np.max(np.abs(c1[0] - c1[1]))
    curvature = richardson(hessian, top, h)
    chemical = adiabatic.chemical_rate_term(params, J, method="weak_field")
    assert np.max(np.abs(curvature[::-1, ::-1] - chemical)) \
        <= 1e-4 * np.max(np.abs(chemical))


@pytest.mark.parametrize("function", [
    lambda p, J, method: adiabatic.conditioned_rate(p, "A", J, method=method),
    adiabatic.chemical_rate_term,
    adiabatic.adiabatic_rate,
], ids=["conditioned_rate", "chemical_rate_term", "adiabatic_rate"])
def test_unknown_method_rejected(default_params, function):
    J = default_params.derived.photon_flux_j0
    with pytest.raises(ValueError, match="unknown method"):
        function(default_params, J, method="weakfield")


@pytest.mark.parametrize("function", [
    lambda p, J: adiabatic.conditioned_cross_sections(p, "C"),
    lambda p, J: adiabatic.conditioned_first_cumulants(p, "C", J),
    lambda p, J: adiabatic.conditioned_rate(p, "C", J, method="exact"),
    lambda p, J: adiabatic.conditioned_rate(p, "C", J, method="weak_field"),
], ids=["cross_sections", "first_cumulants", "rate_exact",
        "rate_weak_field"])
def test_unknown_state_rejected(default_params, function):
    """A state off the state axis (A, B) raises ValueError, by either
    method, instead of reading another state's constants."""
    J = default_params.derived.photon_flux_j0
    with pytest.raises(ValueError, match="unknown chemical state 'C'"):
        function(default_params, J)


@pytest.mark.parametrize("config", [
    {}, {"rate_a_mhz": 1e-6, "rate_b_mhz": 3e-6}], ids=["default", "slow"])
def test_adiabatic_matches_full_statistics(config):
    params = from_config(config)
    j0 = params.derived.photon_flux_j0
    full = fcs.diffusion_rate(params, j0)
    adia = adiabatic.adiabatic_rate(params, j0)
    assert np.max(np.abs(full - adia)) < 1e-5 * np.max(np.abs(full))


def test_pipeline_nonadiabatic_warning():
    params = from_config({"rate_a_mhz": 5.0, "rate_b_mhz": 5.0})
    with pytest.warns(UserWarning, match="adiabatic factorization"):
        evaluate_point(params, "adiabatic")


def _kron_conditioned_cgf(params, state, s1, s2, J):
    """Dominant eigenvalue of the conditioned generator assembled with
    np.kron from an explicit two-level Hamiltonian."""
    rabi, eps = {"A": (params.derived.rabi_a, params.molecule.detuning_a),
                 "B": (params.derived.rabi_b, params.molecule.detuning_b)}[state]
    amp = rabi * np.sqrt(J / params.derived.photon_flux_j0) / (2.0 * np.sqrt(2.0))
    offsets = (np.pi / 4.0, -np.pi / 4.0)

    def ham(p1, p2):
        h = np.zeros((2, 2), dtype=complex)
        h[1, 1] = eps
        h[1, 0] = amp * (np.exp(1j * (p1 + offsets[0]))
                         + np.exp(1j * (p2 + offsets[1])))
        h[0, 1] = amp * (np.exp(-1j * (p1 + offsets[0]))
                         + np.exp(-1j * (p2 + offsets[1])))
        return h

    chi = (-1j * s1, -1j * s2)
    eye, lower = np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])
    h_left = ham(chi[0] / 2.0, chi[1] / 2.0)
    h_right = ham(-chi[0] / 2.0, -chi[1] / 2.0)
    matrix = -1j * (np.kron(h_left, eye) - np.kron(eye, h_right.T))
    jdj = lower.T @ lower
    matrix += params.molecule.decay_gamma * (
        np.kron(lower, lower) - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T)))
    values = np.linalg.eigvals(matrix)
    return values[np.argmax(values.real)].real


@pytest.mark.parametrize("state,s1,s2,flux", [
    ("A", 0.0, 0.0, 1.0),
    ("A", 1e-4, -2e-4, 1e-3),
    ("A", -3e-3, 3e-3, 0.5),
    ("B", 2e-3, 1e-3, 2.0),
])
def test_conditioned_cgf_matches_kron_assembly(state, s1, s2, flux):
    params = from_config({"dipole_b_debye": 0.6, "detuning_b_mhz": -15.0})
    J = flux * params.derived.photon_flux_j0
    assert adiabatic.conditioned_cgf(params, state, s1, s2, J) \
        == _kron_conditioned_cgf(params, state, s1, s2, J)


def test_conditioned_cgf_arrays_equal_scalar_calls():
    params = from_config({"dipole_b_debye": 0.6, "detuning_b_mhz": -15.0})
    s1 = np.array([0.0, 1e-4, -3e-3, 2e-3])
    s2 = np.array([0.0, -2e-4, 3e-3, 1e-3])
    for state in "AB":
        J = 0.5 * params.derived.photon_flux_j0
        values = adiabatic.conditioned_cgf(params, state, s1, s2, J)
        assert np.array_equal(values, [
            adiabatic.conditioned_cgf(params, state, a, b, J)
            for a, b in zip(s1, s2)])


# the fluxes of one 21-point rule of the quadrature oracle, in units of J0
_RULE_FLUXES = np.geomspace(1e-3, 2.0, 21)[:, None, None]


def _rate_functions(params, method):
    return [lambda J: adiabatic.adiabatic_rate(params, J, method),
            lambda J: adiabatic.conditioned_rate(params, "A", J, method),
            lambda J: adiabatic.conditioned_rate(params, "B", J, method),
            lambda J: adiabatic.chemical_rate_term(params, J, method)]


@pytest.mark.parametrize("method", ["weak_field", "exact"])
def test_flux_array_equals_scalar_calls(method):
    """A (21, 1, 1) flux array at one point gives, flux by flux, the bytes
    of 21 scalar calls, in one array of 21 2x2 rates."""
    params = from_config({"dipole_b_debye": 0.6, "detuning_b_mhz": -15.0})
    J = _RULE_FLUXES * params.derived.photon_flux_j0
    for function in _rate_functions(params, method):
        values = function(J)
        if method == "weak_field":
            assert values.shape == (21, 1, 1, 2, 2)
        scalar = np.array([function(j) for j in J.ravel().tolist()])
        assert np.reshape(values, (21, 2, 2)).tobytes() == scalar.tobytes()


@pytest.mark.parametrize("x", [1.0, _RULE_FLUXES], ids=["scalar", "array"])
@pytest.mark.parametrize("function", [
    lambda p, J, method: adiabatic.conditioned_rate(p, "A", J, method=method),
    adiabatic.chemical_rate_term,
    adiabatic.adiabatic_rate,
], ids=["conditioned_rate", "chemical_rate_term", "adiabatic_rate"])
def test_exact_method_rejects_stacked_points(function, x):
    """The exact method takes one point: on a stack, at a scalar flux or a
    flux array, it raises a ValueError that names the weak-field method,
    even a stack of one."""
    one, other = from_config({}), from_config({"rate_a_mhz": 0.05})
    for points in (stack([one]), stack([one, other])):
        J = x * points.derived.photon_flux_j0[0, 0]
        with pytest.raises(ValueError, match='method="exact" takes one '
                           'point.*method="weak_field"'):
            function(points, J, method="exact")


def test_flux_array_broadcasts_over_stacked_points():
    """On a stack of two points a (21, 1, 1) flux array broadcasts over the
    (2, 1) point axes as a scalar flux does, flux by flux byte for byte.
    The exact method has no stacked form: its conditioned builds take the
    stack's unit axis for their tilts."""
    points = stack([from_config({}),
                    from_config({"detuning_a_mhz": -80.0, "rate_a_mhz": 0.05,
                                 "dipole_b_debye": 0.6})])
    J = _RULE_FLUXES * float(points.derived.photon_flux_j0[0, 0])
    for function in _rate_functions(points, "weak_field"):
        values = function(J)
        assert values.shape == (21, 2, 1, 2, 2)
        scalar = np.array([function(j) for j in J.ravel().tolist()])
        assert values.tobytes() == scalar.tobytes()


def test_exact_rate_computes_first_cumulants_once_per_state(default_params,
                                                            monkeypatch):
    """The exact method solves each state's conditioned generator once, for
    its first cumulants and its curvature together."""
    j0 = default_params.derived.photon_flux_j0
    p_a, p_b = adiabatic.stationary_probabilities(default_params)
    expected = (p_a * adiabatic.conditioned_rate(default_params, "A", j0)
                + p_b * adiabatic.conditioned_rate(default_params, "B", j0)
                + adiabatic.chemical_rate_term(default_params, j0))
    states = []
    solve = adiabatic._conditioned_cumulants

    def counted(params, state, J):
        states.append(state)
        return solve(params, state, J)

    monkeypatch.setattr(adiabatic, "_conditioned_cumulants", counted)
    rate = adiabatic.adiabatic_rate(default_params, j0)
    assert sorted(states) == ["A", "B"]
    assert np.array_equal(rate, expected)
    states.clear()
    adiabatic.conditioned_rate(default_params, "A", j0)
    assert states == ["A"]


def test_route_deviation_on_resonance(resonant_params):
    """On resonance S- is zero on the adiabatic route and finite-difference
    noise on the full route; the routes still agree on the cross section."""
    result = evaluate_point(resonant_params, "both")
    assert result.route_deviation < 0.02
